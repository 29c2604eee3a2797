"""Command-line front end.

Four subcommands: `simulate` runs one config or preset family and writes a
time-series CSV plus a JSON summary per run, `sweep` fans a base config out
over a parameter list (optionally in parallel processes), `reproduce` maps
figure ids to preset bundles and writes plot-ready CSVs with a manifest,
and `validate` runs the analytic oracle suite against the simulator.

Exit codes: 0 success, 1 invalid config, unknown name, unusable --config or
--out path or an output file that cannot be written, 2 integration or
convergence failure, 3 sweep finished with failed rows, 4 validation failed.
All files are written atomically (temp file in the target directory, then
rename; a failed write removes the temp file).  Numeric output uses 12
significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynamics import build_collective_zero_T, evolve, half_max_time, lindblad_rhs, steady_state
from .entanglement import (
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    log_negativity,
    negativity,
    tripartite_negativity,
)
from .errors import (
    ConvergenceFailure,
    IntegrationFailure,
    NumericalFailure,
    UndefinedResultError,
    UnsupportedConfigurationError,
)
from .hilbert import (
    Backend,
    BasisDescriptor,
    DensityMatrix,
    fidelity_with_pure,
    partial_trace,
    product_state,
    to_collective_basis,
    to_full_basis,
    trace_distance,
)
from .oracle import (
    dark_state,
    edge_excited_steady,
    intro_pair_steady,
    w_state,
    x_dark,
    x_reduced,
)
from .scenarios import (
    PRESET_NAMES,
    ScenarioConfig,
    _family,
    build_basis,
    build_initial_state,
    build_master_equation,
    compile_observables,
    config_from_dict,
    config_hash,
    config_to_dict,
    effective_backend,
    hilbert_dimension,
    preset,
    sweep,
)

DEFAULT_MEM_BYTES = 4 * 2**30
MEM_ENV_VAR = "QLRE_MAX_MEM_BYTES"
# evolve's peak per sample: the intro pair (d = 4) took ~830 B per sample at 2.5e5
# and 2.5e6 samples, fig1a and fig3b (d = 4, 12) ~1.1 KiB.  The first SAMPLE_SLACK
# bytes of samples are not counted: the few hundred samples of a preset keep far
# less than the interpreter's own ~30 MiB, which the estimate leaves out too.
SAMPLE_BYTES = 1024
SAMPLE_SLACK = 2**20

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTEGRATION = 2
EXIT_SWEEP_PARTIAL = 3
EXIT_VALIDATION = 4

# by name: under "python -m qlre.cli" __name__ is "__main__", outside "qlre"
_log = logging.getLogger("qlre.cli")


class _ConfigError(Exception):
    """User-facing config problem; message names the failing field."""


def _fmt(x) -> str:
    if x is None:
        return ""
    return "%.12g" % x


def _csv_header(fields) -> str:
    """One CSV header line, each field quoted as the csv module quotes it (RFC 4180).

    Observable names such as E_F(A,C) hold commas; the numbers of the rows never need quotes.
    """
    line = io.StringIO()
    csv.writer(line, lineterminator="").writerow(fields)
    return line.getvalue()


def _atomic_write(path: Path, text: str):
    """Write text to a temp file beside path, then rename it to path; a failed
    write removes the temp file and raises a _ConfigError naming path."""
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):  # the temp file may never have been made
            tmp.unlink()
        raise _ConfigError(f"{path}: cannot write ({exc.strerror or exc})") from None


_INTEGRATION_ERRORS = (IntegrationFailure, ConvergenceFailure, NumericalFailure)
# what a command reports as an error line and an exit code, never as a traceback
_REPORTED = (_ConfigError, ValueError, UnsupportedConfigurationError) + _INTEGRATION_ERRORS


def _report(exc: Exception, cfg: Optional[ScenarioConfig] = None) -> int:
    """Print exc as one error line and return its exit code.

    A _ConfigError names its field or path itself; any other failure is
    prefixed with the name of cfg, the config that was running, if any."""
    prefix = "" if cfg is None or isinstance(exc, _ConfigError) else f"{cfg.name}: "
    print(f"error: {prefix}{exc}", file=sys.stderr)
    return EXIT_INTEGRATION if isinstance(exc, _INTEGRATION_ERRORS) else EXIT_CONFIG


def _mem_cap() -> int:
    raw = os.environ.get(MEM_ENV_VAR)
    if raw is None:
        return DEFAULT_MEM_BYTES
    try:
        cap = int(raw)
        if cap <= 0:
            raise ValueError
    except ValueError:
        raise _ConfigError(f"{MEM_ENV_VAR}: expected a positive integer, got {raw!r}")
    return cap


# ---------------------------------------------------------------------------
# single-run engine
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    name: str
    config_hash: str
    backend: str
    dim: int
    residual: float
    wall_time_s: float
    phase_times_s: dict
    observables: dict
    config: dict

    def to_json(self) -> str:
        """Every field, keys sorted, with ``residual`` written as ``steady_state_residual``."""
        fields = dict(vars(self))
        fields["steady_state_residual"] = fields.pop("residual")
        return json.dumps(fields, indent=2, sort_keys=True)


def _check_memory(cfg: ScenarioConfig, force: bool):
    """Refuse cfg if one density matrix and its samples are estimated above the cap.

    The sample count is a float, t_max / sample_dt, so an absurd one gives an
    infinite estimate rather than an overflow."""
    cap = _mem_cap()
    full = effective_backend(cfg) is Backend.FULL
    log2_dim = sum(d.population if full else math.log2(d.population + 1) for d in cfg.domains)
    if log2_dim > 64:
        # d = 2**population may be an integer too large to build at all, and
        # no machine holds 16 d^2 bytes: compare in log space
        over = 4 + 2 * log2_dim > math.log2(cap)
        estimate = f"2^{4 + 2 * log2_dim:.6g}"
    else:
        dim = hilbert_dimension(cfg)
        _log.info("%s: dimension %d, density matrix ~%.1f MiB", cfg.name, dim, 16 * dim**2 / 2**20)
        samples = (cfg.t_max / cfg.sample_dt + 1.0) * SAMPLE_BYTES
        estimate = 16.0 * dim * dim + max(0.0, samples - SAMPLE_SLACK)
        over = estimate > cap
        estimate = f"{estimate:.6g}"
    if over and not force:
        raise _ConfigError(
            f"{cfg.name}: estimated {estimate} bytes exceeds the cap of {cap}; "
            f"rerun with --force or raise {MEM_ENV_VAR}"
        )


def run_config(cfg: ScenarioConfig, out_dir: Path, force: bool = False) -> RunSummary:
    """Simulate one scenario and write its CSV/summary artifacts.

    The summary records the seconds spent in each phase: build (basis,
    equation, initial state, observables), evolve and residual, which
    ``wall_time_s`` spans, then write (the observable summary and the time
    series; the summary file itself comes after).  The residual is
    ``Trajectory.residual``, the Frobenius norm of the right-hand side at
    the final state, which evolve takes on its sector coordinates.
    """
    _check_memory(cfg, force)
    clock = [time.perf_counter()]
    basis = build_basis(cfg)
    eq = build_master_equation(cfg, allow_large=True)
    rho0 = build_initial_state(cfg)
    observables = compile_observables(cfg, basis)
    clock.append(time.perf_counter())
    traj = evolve(eq, rho0, cfg.t_max, cfg.sample_dt, observables=observables)
    clock.append(time.perf_counter())
    residual = traj.residual
    clock.append(time.perf_counter())

    obs_summary = {}
    for name in cfg.observables:
        series = traj.observables[name]
        try:
            t_half = half_max_time(series, traj.times)
        except UndefinedResultError:  # the series never rises above zero
            t_half = None
        obs_summary[name] = {"final": float(series[-1]), "t_half": t_half}
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.observables:
        # one format string per row, as _fmt would write each cell
        row = ",".join(["%.12g"] * (1 + len(cfg.observables)))
        table = np.column_stack([traj.times] + [traj.observables[n] for n in cfg.observables])
        lines = [_csv_header(["t_scaled", *cfg.observables])]
        lines += [row % tuple(values) for values in table.tolist()]
        _atomic_write(out_dir / f"{cfg.name}_timeseries.csv", "\n".join(lines) + "\n")
    clock.append(time.perf_counter())

    phases = dict(zip(("build", "evolve", "residual", "write"), np.diff(clock).tolist()))
    summary = RunSummary(
        name=cfg.name,
        config_hash=config_hash(cfg),
        backend=basis.backend.value,
        dim=basis.dim,
        residual=residual,
        wall_time_s=clock[3] - clock[0],
        phase_times_s=phases,
        observables=obs_summary,
        config=config_to_dict(cfg),
    )
    _atomic_write(out_dir / f"{cfg.name}_summary.json", summary.to_json() + "\n")
    return summary


def _load_configs(spec: str) -> list:
    """A --config value is a readable JSON file, else a preset name, else an error.

    Another path that exists, such as a directory, cannot be read; a preset of
    its name still is one, so ``--out intro-pair`` does not hide the preset.
    """
    path = Path(spec)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        if spec in PRESET_NAMES:
            return preset(spec)
        if path.exists():
            raise _ConfigError(f"{spec}: cannot read ({exc})")
    else:
        try:
            return [config_from_dict(json.loads(text))]
        except json.JSONDecodeError as exc:
            raise _ConfigError(f"{spec}: not valid JSON ({exc})")
        except ValueError as exc:
            raise _ConfigError(f"{spec}: {exc}")
    raise _ConfigError(
        f"{spec!r} is neither a readable file nor a preset; "
        f"presets: {', '.join(PRESET_NAMES)}"
    )


def _out_dir(spec: str) -> Path:
    """The --out directory, made if missing; a path that cannot be one is a _ConfigError."""
    out_dir = Path(spec)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _ConfigError(f"--out: {exc}")
    return out_dir


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = None
    try:
        configs = _load_configs(args.config)
        out_dir = _out_dir(args.out)
        for cfg in configs:
            summary = run_config(cfg, out_dir, force=args.force)
            finals = ", ".join(
                f"{k}={_fmt(v['final'])}" for k, v in summary.observables.items()
            )
            print(f"{cfg.name}: residual {summary.residual:.3e}  {finals}")
    except _REPORTED as exc:
        return _report(exc, cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_values(raw: str) -> list:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(int(token))
        except ValueError:
            try:
                values.append(float(token))
            except ValueError:
                raise _ConfigError(f"--values: {token!r} is not a number")
    if not values:
        raise _ConfigError("--values: no values given")
    return values


def _sweep_worker(payload):
    """Run one sweep point, in this process or a pool worker; returns a row dict."""
    cfg, out_dir, force, value = payload
    try:
        summary = run_config(cfg, out_dir, force=force)
    except Exception as exc:  # the row records the failure, the sweep continues
        status = f"failed: {type(exc).__name__}: {exc}"
        return {"value": value, "status": status, "obs": {}}
    return {"value": value, "status": "ok", "obs": summary.observables}


def cmd_sweep(args) -> int:
    try:
        configs = _load_configs(args.config)
        if len(configs) != 1:
            raise _ConfigError(
                f"--config: sweep needs a single base config, got {len(configs)}"
            )
        base = configs[0]
        values = _parse_values(args.values)
        swept = sweep(base, args.param, values)
        out_dir = _out_dir(args.out)
    except (_ConfigError, ValueError) as exc:
        return _report(exc)

    payloads = [(cfg, out_dir, args.force, value) for cfg, value in zip(swept, values)]
    # more workers than cores or points only oversubscribe the machine
    workers = min(args.jobs, os.cpu_count() or 1, len(payloads))
    if workers <= 1:
        rows = [_sweep_worker(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, payloads))

    rows.sort(key=lambda r: r["value"])
    obs_names = list(base.observables)
    header = [args.param, "status"]
    for n in obs_names:
        header += [f"final_{n}", f"t_half_{n}"]
    lines = [_csv_header(header)]
    failed = 0
    for row in rows:
        # the rows are comma-joined without quotes: a failure message keeps
        # its text but not its commas or line breaks
        status = " ".join(row["status"].replace(",", ";").split())
        cells = [_fmt(row["value"]), status]
        for n in obs_names:
            entry = row["obs"].get(n)
            if entry is None:
                cells += ["", ""]
            else:
                cells += [_fmt(entry["final"]), _fmt(entry["t_half"])]
        if row["status"] != "ok":
            failed += 1
        lines.append(",".join(cells))
    try:
        _atomic_write(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    except _ConfigError as exc:
        return _report(exc)
    print(f"sweep over {args.param}: {len(rows)} rows, {failed} failed")
    return EXIT_SWEEP_PARTIAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


class _Curve(NamedTuple):
    """A plot-ready CSV, one ``row(config, summary)`` per run: the ``configs()``
    runs, made for the curve alone and left out of the manifest, then the figure's."""

    file: str
    header: str
    panel: str
    row: Callable
    configs: Optional[Callable] = None


class _Figure(NamedTuple):
    families: tuple  # preset families, run in order
    panel: str  # manifest panel of each of their time series
    curve: Optional[_Curve] = None


def _final(s: RunSummary, name: str) -> float:
    return s.observables[name]["final"]


_DYNAMICS = "entanglement and relaxation dynamics"
_NOISE = "pair entanglement under noise"

# figure id -> what `qlre reproduce <id>` runs and writes
_FIGURES = {
    "intro": _Figure(("intro-pair",), "two-spin pair entanglement versus time"),
    "fig1a": _Figure(("fig1a-sweep",), "per-size time series", _Curve(
        "fig1a_curve.csv", "N_A,E_N", "steady log-negativity versus N_A",
        lambda c, s: (c.domains[0].population, _final(s, "E_N(A|B)")),
    )),
    "fig3a": _Figure(("fig3a",), _DYNAMICS),
    "fig3b": _Figure(("fig3b",), _DYNAMICS, _Curve(
        "fig3b_curve.csv", "N_B,E_F,t_half", "steady entanglement and half-rise time versus N_B",
        lambda c, s: (
            c.domains[1].population, _final(s, "E_F(A,C)"), s.observables["E_F(A,C)"]["t_half"]
        ),
    )),
    "fig4": _Figure(("fig4-chain4", "fig4-chain5"), "outer-domain pair entanglement"),
    "fig5a": _Figure(("fig5a-dephasing",), _NOISE),
    "fig5b": _Figure(("fig5b-individual",), _NOISE),
    "fig5c": _Figure(("fig5c-thermal",), _NOISE),
    "fig6": _Figure(("fig6-star",), "tripartite negativity versus time", _Curve(
        "fig6_inset.csv", "N_D,N_ABC", "steady tripartite negativity versus N_D",
        lambda c, s: (c.domains[3].population, _final(s, "N_ABC")),
        # N_D = 11 is the preset's own run
        configs=lambda: _family("fig6_star_nd{}", preset("fig6-star")[0], "N_D", range(1, 11)),
    )),
    "appA": _Figure(("appA-initial-states",), "per-initial-state entanglement dynamics"),
    "appA-mixed": _Figure(("appA-mixed",), "mixed-preparation dynamics", _Curve(
        "appA_mixed_curve.csv", "F_0,E_F", "steady entanglement versus preparation fidelity",
        lambda c, s: (c.domains[1].initial.a + c.domains[1].initial.b, _final(s, "E_F(A,C)")),
    )),
    "appB": _Figure(("appB-oracle",), "oracle-scenario dynamics", _Curve(
        "appB_curve.csv", "N_B,C,x_d", "steady concurrence and dark-state weight versus N_B",
        lambda c, s: (c.domains[1].population, _final(s, "C(A,C)"), _final(s, "x_d")),
    )),
}


def cmd_reproduce(args) -> int:
    figure = args.figure
    if figure not in _FIGURES:
        print(
            f"error: unknown figure {figure!r}; valid ids: {', '.join(_FIGURES)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    families, panel, curve = _FIGURES[figure]
    files, runs, cfg = [], [], None
    try:
        out_dir = _out_dir(args.out)
        for family in families:
            for cfg in preset(family):
                runs.append((cfg, run_config(cfg, out_dir, force=args.force)))
                files.append({"file": f"{cfg.name}_timeseries.csv", "panel": panel})
        if curve is not None:
            if curve.configs is not None:
                extra = []
                for cfg in curve.configs():
                    extra.append((cfg, run_config(cfg, out_dir, force=args.force)))
                runs = extra + runs
            rows = [",".join(_fmt(x) for x in curve.row(c, s)) for c, s in runs]
            _atomic_write(out_dir / curve.file, "\n".join([curve.header] + rows) + "\n")
            files.append({"file": curve.file, "panel": curve.panel})
        manifest = {"figure": figure, "files": files}
        _atomic_write(out_dir / f"{figure}_manifest.json", json.dumps(manifest, indent=2) + "\n")
    except _REPORTED as exc:
        return _report(exc, cfg)
    print(f"{figure}: wrote {len(files)} files to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check_measures():
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1 / math.sqrt(2)
    b2 = BasisDescriptor(Backend.FULL, (1, 1))
    rho = DensityMatrix(np.outer(bell, bell.conj()), b2)
    errs = [
        abs(concurrence(rho) - 1.0),
        abs(entanglement_of_formation(rho) - 1.0),
        abs(negativity(rho, [0]) - 0.5),
        abs(log_negativity(rho, [0]) - 1.0),
        abs(eof_from_concurrence(0.5) - 0.35457890266526954),
    ]
    w = w_state().projector()
    errs.append(abs(tripartite_negativity(w) - math.sqrt(2) / 3))
    intro = intro_pair_steady()
    errs.append(abs(entanglement_of_formation(intro) - 0.35457890266526954))
    return max(errs), "entanglement measures on closed-form states"


def _check_dark_stationarity(cap):
    worst = 0.0
    for n_b in range(1, cap + 1):
        for backend in Backend:
            rho = dark_state(n_b, backend).projector()
            eq = build_collective_zero_T(rho.basis, [[0, 1], [1, 2]])
            worst = max(worst, float(np.linalg.norm(lindblad_rhs(eq, rho))))
    return worst, f"dark-state rhs norm, sizes 1..{cap}, both backends"


def _check_weights(cap):
    worst = 0.0
    for n_b in range(1, cap + 1):
        basis = BasisDescriptor(Backend.COLLECTIVE, (1, n_b, 1))
        eq = build_collective_zero_T(basis, [[0, 1], [1, 2]])
        rho = steady_state(eq, product_state(basis, [1, 0, 0])).rho
        weight = fidelity_with_pure(rho, dark_state(n_b, Backend.COLLECTIVE))
        worst = max(worst, abs(weight - x_dark(n_b)))
        worst = max(worst, abs(concurrence(partial_trace(rho, [0, 2])) - x_reduced(n_b)))
        worst = max(worst, trace_distance(rho, edge_excited_steady(n_b, Backend.COLLECTIVE)))
    return worst, f"steady-state weights versus closed forms, sizes 1..{cap}"


def _check_backends(cap):
    worst = 0.0
    for n_b in range(1, cap + 1):
        bc = BasisDescriptor(Backend.COLLECTIVE, (1, n_b, 1))
        keep = [0, 1, 2]
        eqc = build_collective_zero_T(bc, [[0, 1], [1, 2]])
        rc = product_state(bc, [0, n_b, 0])
        tc = evolve(eqc, rc, 3.0, 0.5, keep=keep)
        bf = bc.counterpart()
        eqf = build_collective_zero_T(bf, [[0, 1], [1, 2]])
        tf = evolve(eqf, to_full_basis(rc), 3.0, 0.5, keep=keep)
        for sc, sf in zip(tc.snapshots, tf.snapshots):
            worst = max(worst, trace_distance(sc, to_collective_basis(sf)))
    return worst, f"backend agreement per snapshot, sizes 1..{cap}"


def cmd_validate(args) -> int:
    cap = 5 if args.scale == "quick" else 8
    checks = [
        ("measures", _check_measures, 1e-9),
        ("dark-stationarity", lambda: _check_dark_stationarity(cap), 1e-10),
        ("steady-weights", lambda: _check_weights(cap), 1e-6),
        ("backend-agreement", lambda: _check_backends(min(cap, 5)), 1e-8),
    ]
    failed = []
    width = max(len(n) for n, _, _ in checks)
    for name, fn, tol in checks:
        try:
            worst, detail = fn()
            ok = worst < tol
        except Exception as exc:
            worst, detail, ok = math.inf, f"raised {type(exc).__name__}: {exc}", False
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  worst {worst:.3e} (tol {tol:.0e})  {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"all {len(checks)} checks passed at scale {args.scale}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlre",
        description="Collective spin relaxation simulator: scenarios, sweeps, "
        "figure reproduction, analytic validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one config file or preset family")
    p_sim.add_argument("--config", required=True, help="JSON config path or preset name")
    p_sim.add_argument("--out", default="qlre_out", help="output directory")
    p_sim.add_argument("--force", action="store_true", help="bypass the memory guard")
    p_sim.set_defaults(fn=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a base config across parameter values")
    p_sweep.add_argument("--config", required=True, help="JSON config path or preset name")
    p_sweep.add_argument("--param", required=True, help="parameter to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated value list")
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes, at most one per core"
    )
    p_sweep.add_argument("--out", default="qlre_out", help="output directory")
    p_sweep.add_argument("--force", action="store_true", help="bypass the memory guard")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="write plot-ready CSVs for a figure id")
    p_rep.add_argument("figure", help=f"figure id: {', '.join(_FIGURES)}")
    p_rep.add_argument("--out", default="qlre_out", help="output directory")
    p_rep.add_argument("--force", action="store_true", help="bypass the memory guard")
    p_rep.set_defaults(fn=cmd_reproduce)

    p_val = sub.add_parser("validate", help="run the analytic oracle suite")
    p_val.add_argument(
        "--scale", choices=("quick", "full"), default="quick", help="size cap for checks"
    )
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv: Optional[list] = None) -> int:
    # the package logs; the command line shows those records as plain
    # stderr lines for the duration of the command
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    package = logging.getLogger("qlre")
    level = package.level
    package.addHandler(handler)
    package.setLevel(logging.INFO)
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
