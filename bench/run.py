#!/usr/bin/env python3
"""qlre benchmark: run one workload, check every result, print the metrics.

    python3 bench/run.py --workload chain-evolve --seed 1 --seconds 12 --trace 0

Run it from a checkout of the repository; qlre is imported from the
checkout's ``src/``, never from an installed copy.  One process, one client,
closed loop: passes over the workload's operations run back to back until
the next pass would end after ``--seconds`` (at least one pass, two with
``--trace 1``).  The BLAS thread count is pinned for the whole run, because
runs with different thread counts are not comparable.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, and writes the
spans to ``.bench_out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-ups per operation in each untraced pass: one for the solve, the rest
# timed alone.  Spread over the run, they keep set-up time steady under
# the seconds-long load swings of a shared machine.
SETUP_REPEATS = 5
RHS_REPEATS = 30
EXIT_NO_PROGRAM = 2


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_libraries() -> list:
    """Every OpenBLAS loaded in this process, with its configuration and thread count."""
    import ctypes

    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["config"] = get_config().decode()
                    info["threads"] = get_threads()
                    break
            if "threads" in info:
                break
        found.append(info)
    return found


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "loaded_blas": _openblas_libraries(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one pass over the workload
# ---------------------------------------------------------------------------


class Pass:
    """Timings and outcomes of one pass."""

    def __init__(self, traced: bool, first_span: int):
        self.traced = traced
        self.first_span = first_span
        self.setup_s = {}  # op name -> seconds of each set-up
        self.solve_s = {}  # op name -> [seconds]
        self.rss_growth_mib = 0.0
        self.failures = {}  # op name -> problems
        self.attempted = 0
        self.steady_tau = 0.0
        self.steady_residual = 0.0
        self.evolve_tau = 0.0
        self.spans = None  # Tracer.summary() of this pass, when traced


def _setup(qlre, op, span, wrap):
    with span("scenarios.build_basis"):
        basis = qlre.build_basis(op.cfg)
    with span("scenarios.build_master_equation"):
        eq = qlre.build_master_equation(op.cfg)
    with span("scenarios.build_initial_state"):
        rho0 = qlre.build_initial_state(op.cfg)
    with span("scenarios.compile_observables"):
        observables = qlre.compile_observables(op.cfg, basis)
    # the first rhs forces the lazily compiled operators into set-up
    with span("dynamics.first_rhs"):
        qlre.lindblad_rhs(eq, rho0)
    return eq, rho0, {k: wrap("observables.eval", fn) for k, fn in observables.items()}


_SOLVE_SPAN = {
    "evolve": "dynamics.evolve",
    "steady": "dynamics.steady_state",
    "cli": "cli.run_config",
}


def _no_span(name):
    return contextlib.nullcontext()


def _no_wrap(name, fn):
    return fn


def run_pass(qlre, wl, order, refs, out_dir, tracer=None) -> Pass:
    import workloads

    if tracer is None:
        span, wrap = _no_span, _no_wrap
        p = Pass(False, 0)
    else:
        span, wrap = tracer.span, tracer.wrap
        p = Pass(True, len(tracer.spans))
    results = {}
    with span("bench.pass"):
        for op in order:
            p.attempted += 1
            problems = []
            try:
                t0 = time.perf_counter()
                eq, rho0, observables = _setup(qlre, op, span, wrap)
                t1 = time.perf_counter()
                rss0 = _maxrss_mib()
                try:
                    with span(_SOLVE_SPAN[op.kind]):
                        result = workloads.solve(op, eq, rho0, observables, out_dir)
                finally:
                    p.solve_s[op.name] = [time.perf_counter() - t1]
                    p.rss_growth_mib += _maxrss_mib() - rss0
                p.setup_s[op.name] = [t1 - t0]
                if op.kind == "steady":
                    p.steady_tau += result.elapsed_scaled_time
                    p.steady_residual = max(p.steady_residual, result.residual)
                else:
                    p.evolve_tau += op.cfg.t_max
                with span("oracle.check"):
                    problems = workloads.check(op, result, observables, refs, out_dir)
                results[op.name] = (op, result)
                if tracer is None:
                    for _ in range(SETUP_REPEATS - 1):
                        p.setup_s[op.name].append(_timed_setup(qlre, op))
            except Exception as exc:  # a failed operation is counted; the pass goes on
                problems = [f"raised {type(exc).__name__}: {exc}"]
            if problems:
                p.failures[op.name] = problems
        if wl.pass_check is not None:
            with span("oracle.check"):
                for name, problem in wl.pass_check(results).items():
                    p.failures.setdefault(name, []).append(problem)
    if tracer is not None:
        p.spans = tracer.summary(p.first_span)
    return p


def _timed_setup(qlre, op) -> float:
    started = time.perf_counter()
    _setup(qlre, op, _no_span, _no_wrap)
    return time.perf_counter() - started


def rhs_ms(qlre, wl) -> float:
    """Median time of one lindblad_rhs on the workload's largest initial state."""
    op = max(wl.ops, key=lambda o: qlre.hilbert_dimension(o.cfg))
    eq = qlre.build_master_equation(op.cfg)
    rho0 = qlre.build_initial_state(op.cfg)
    qlre.lindblad_rhs(eq, rho0)
    times = []
    for _ in range(RHS_REPEATS):
        t0 = time.perf_counter()
        qlre.lindblad_rhs(eq, rho0)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_op_median_total(passes, field="solve_s") -> float:
    """Seconds of one pass: each operation's median over the run, summed."""
    samples = {}
    for p in passes:
        for name, value in getattr(p, field).items():
            samples.setdefault(name, []).extend(value)
    return sum(_median(v) for v in samples.values())


def end_to_end_metrics(passes) -> dict:
    return {
        "solve_s": (per_op_median_total(passes), "s"),
        "setup_s": (per_op_median_total(passes, "setup_s"), "s"),
        "peak_rss_mib": (_maxrss_mib(), "MiB"),
    }


def _span_total(p, name, field="total_s"):
    return p.spans["names"].get(name, {}).get(field, 0.0)


def _calls(p, name) -> float:
    return float(p.spans["names"].get(name, {}).get("calls", 0))


def per_layer_metrics(plain, traced, first_pass, import_s, rhs) -> dict:
    def med(fn):
        return _median([fn(p) for p in traced])

    def integrate_s(p):
        # evolve and steady_state minus the observable callbacks they make
        return _span_total(p, "dynamics.evolve", "self_s") + _span_total(
            p, "dynamics.steady_state", "self_s"
        )

    def tau_per_s(p):
        t = integrate_s(p)
        return (p.evolve_tau + p.steady_tau) / t if t > 0 else 0.0

    metrics = {
        "import_s": (import_s, "s"),
        "trace.overhead_ratio": (
            per_op_median_total(traced) / per_op_median_total(plain),
            "ratio",
        ),
        "dynamics.rhs_ms": (rhs, "ms"),
        "dynamics.evolve_s": (med(lambda p: _span_total(p, "dynamics.evolve")), "s"),
        "dynamics.tau_per_s": (med(tau_per_s), "1/s"),
        "dynamics.steady_state_s": (med(lambda p: _span_total(p, "dynamics.steady_state")), "s"),
        "dynamics.steady_tau": (med(lambda p: p.steady_tau), "tau"),
        "dynamics.steady_residual": (med(lambda p: p.steady_residual), "norm"),
        "dynamics.first_rhs_s": (med(lambda p: _span_total(p, "dynamics.first_rhs")), "s"),
        "dynamics.rss_growth_mib": (first_pass.rss_growth_mib, "MiB"),
        "observables.eval_s": (med(lambda p: _span_total(p, "observables.eval")), "s"),
        "observables.calls": (med(lambda p: _calls(p, "observables.eval")), "count"),
        "hilbert.partial_trace_s": (med(lambda p: _span_total(p, "hilbert.partial_trace")), "s"),
        "hilbert.partial_trace_calls": (
            med(lambda p: _calls(p, "hilbert.partial_trace")),
            "count",
        ),
        "entanglement.measure_s": (med(lambda p: _span_total(p, "entanglement.measure")), "s"),
        "entanglement.measure_calls": (
            med(lambda p: _calls(p, "entanglement.measure")),
            "count",
        ),
        "cli.run_config_s": (med(lambda p: _span_total(p, "cli.run_config")), "s"),
        "oracle.check_s": (med(lambda p: _span_total(p, "oracle.check")), "s"),
    }
    for name in ("build_master_equation", "build_initial_state", "compile_observables"):
        metrics[f"scenarios.{name}_s"] = (
            med(lambda p, n=name: _span_total(p, f"scenarios.{n}")),
            "s",
        )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            med(lambda p, l=layer: p.spans["layers"].get(l, {}).get("self_s", 0.0)),
            "s",
        )
    return metrics


LAYERS = ("scenarios", "hilbert", "dynamics", "entanglement", "oracle", "cli", "observables")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="'tiny' shrinks every workload for the self-test",
    )
    return parser.parse_args(argv)


def _import_program():
    """Import qlre from this checkout's src/; None when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "qlre" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import qlre
    import qlre.cli

    if Path(qlre.__file__).resolve().parent != (src / "qlre").resolve():
        return None
    return qlre


def _passes(qlre, wl, args, refs, out_dir, tracer):
    """Passes until the next one would end after --seconds; traced ones alternate."""
    modules = {"qlre.cli": qlre.cli, "qlre.scenarios": qlre.scenarios}
    rng = random.Random(args.seed)
    minimum = 2 if tracer is not None else 1
    passes = []
    started = time.perf_counter()
    while True:
        order = list(wl.ops)
        rng.shuffle(order)
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            with tracer.patched(modules):
                passes.append(run_pass(qlre, wl, order, refs, out_dir, tracer))
        else:
            passes.append(run_pass(qlre, wl, order, refs, out_dir))
        elapsed = time.perf_counter() - started
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            return passes


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    qlre = _import_program()
    import_s = time.perf_counter() - t0
    if qlre is None:
        print(f"error: no qlre sources under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOAD_NAMES)}",
            file=sys.stderr,
        )
        return EXIT_NO_PROGRAM
    wl = workloads.build(args.workload, args.size)
    refs = workloads.load_references()[args.size]
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))

    tracer = tracing.Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    try:
        passes = _passes(qlre, wl, args, refs, out_dir, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for i, p in enumerate(passes):
        for name, problems in sorted(p.failures.items()):
            print(f"FAILED pass {i} {name}: {'; '.join(problems)}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(plain, traced, passes[0], import_s, rhs_ms(qlre, wl))
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps(
                {"provenance": prov, "workload": args.workload, "spans": tracer.records()}
            )
            + "\n"
        )
        print(f"spans written to {trace_path}")
    else:
        metrics = end_to_end_metrics(plain)

    print(
        f"{args.workload}: {len(passes)} passes ({len(traced)} traced), "
        f"{attempted} operations, {failed} failed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
