#!/usr/bin/env python3
"""Hash what qlre computes on a fixed list of configs, and diff two checkouts.

    python3 tools/sector_census.py OLD_CHECKOUT NEW_CHECKOUT
    python3 tools/sector_census.py --hash

The first form runs the second once per checkout, each in a fresh
interpreter with that checkout's ``src/`` on ``PYTHONPATH`` and one BLAS
thread, and prints every config whose hashes differ, field by field.  It
exits 1 if any do, or if a config is missing on one side.  The second form
prints the hashes of the ``qlre`` on the path as one JSON object.

The configs are every preset config, the fig6 star at N_D = 1..11, and
every fig5a and fig5b config at N_B = 2..7.  Per config it hashes the
config's name, ``config_to_dict`` (as JSON, in its key order) and
``config_hash``; ``_Sector``'s keys, levels, L, S, diagonal and roots; the
steady state with its residual and step count; ``compile_observables``'
keeps and operators; and ``evolve`` to the config's own horizon: its
times, observables, final_rho, SolverStats and residual.  Once per run it also
hashes ``collective_lowering`` and ``collective_jz`` for N = 1..12 on both
backends, and ``build_collective_zero_T``'s terms on the (1, N_B, 1)
chains, N_B = 1..5, on both backends.  It hashes the construction layer no
config reaches as well: ``dicke_level_vector`` for N = 1..10 and every k
on both backends, ``symmetric_isometry`` and ``basis_isometry``,
``product_state`` and ``pure_product_state`` on Dicke, bitstring and
refused levels, ``build_realistic`` with per-spin decay at nbar > 0 and
dephasing, and ``RunSummary.to_json`` of a few small runs with their
timings zeroed.  Of the public surface it hashes ``sorted(qlre.__all__)``,
the names ``from qlre import *`` binds, and ``config_from_dict`` on one
malformed config per loader refusal.  Of the mixed-weight rule it hashes
``sweep`` of a mixed (1, 4, 1) chain, on the full and the symmetric mixed
basis, to F_0 = 0.5, 0.8 and 1, and of each of those to N_B = 1..12.
Equal hashes mean bitwise equal arrays, and for an operator the same
storage too; an exception is hashed by its type and message.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configs():
    """(name, config) for every config the census covers."""
    from qlre import PRESET_NAMES, preset, sweep

    for name in PRESET_NAMES:
        for k, cfg in enumerate(preset(name)):
            yield f"{name}[{k}]", cfg
    for cfg in sweep(preset("fig6-star")[0], "N_D", list(range(1, 12))):
        yield f"fig6-star N_D={cfg.domains[3].population}", cfg
    for name in ("fig5a-dephasing", "fig5b-individual"):
        for k, base in enumerate(preset(name)):
            for cfg in sweep(base, "N_B", list(range(2, 8))):
                yield f"{name}[{k}] N_B={cfg.domains[1].population}", cfg


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes), numbers and strings, in order."""
    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def operator_digest(op) -> str:
    """An Operator's, DensityMatrix's or PureState's storage, dtype and bytes."""
    if hasattr(op, "amplitudes"):
        return digest("PureState", op.amplitudes)
    return matrix_digest(op.matrix)


def matrix_digest(m) -> str:
    """A dense or CSR matrix's storage, dtype and bytes."""
    import numpy as np

    if isinstance(m, np.ndarray):
        return digest("ndarray", m)
    return digest(type(m).__name__, m.indptr, m.indices, m.data, m.shape)


def attempt(hash_of, compute, *args) -> str:
    """hash_of(compute(*args)), or the hash of the exception it raised."""
    try:
        return hash_of(compute(*args))
    except Exception as exc:  # a refused call is a result to compare too
        return digest(type(exc).__name__, str(exc))


def builders() -> dict:
    """Hashes of the single-domain operators and the zero-T equations, keyed by call."""
    from qlre import Backend, BasisDescriptor, build_collective_zero_T
    from qlre.hilbert import collective_jz, collective_lowering

    out = {}
    for backend in Backend:
        for n in range(1, 13):
            for fn in (collective_lowering, collective_jz):
                out[f"{fn.__name__}({n}, {backend.value})"] = operator_digest(fn(n, backend))
        for n_b in range(1, 6):
            eq = build_collective_zero_T(BasisDescriptor(backend, (1, n_b, 1)), [[0, 1], [1, 2]])
            terms = [(operator_digest(t.jump), t.rate) for t in eq.terms]
            out[f"build_collective_zero_T((1, {n_b}, 1), {backend.value})"] = digest(*terms)
    out.update(construction())
    out.update(loader())
    out.update(mixed_sweeps())
    return out


def mixed_sweeps() -> dict:
    """Hashes of the mixed-weight rule: a (1, 4, 1) chain with B mixed at a = 1, b = 0 on
    either mixed basis, swept to each F_0 and that config swept to each N_B, keyed by call."""
    from qlre import DomainSpec, InitialSpec, ReservoirSpec, ScenarioConfig, config_hash, sweep

    def config_digest(cfgs):
        return digest(*[(repr(c), config_hash(c)) for c in cfgs])

    out = {}
    for mixed_basis in ("full", "symmetric"):
        mixed = DomainSpec(4, InitialSpec("mixed", a=1.0, b=0.0))
        base = ScenarioConfig(
            name="census_mixed",
            domains=(DomainSpec(1), mixed, DomainSpec(1)),
            reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
            mixed_basis=mixed_basis,
        )
        for f0 in (0.5, 0.8, 1.0):
            key = f"sweep({mixed_basis}, F_0={f0})"
            out[key] = attempt(config_digest, sweep, base, "F_0", [f0])
            for n_b in range(1, 13):
                out[f"{key} N_B={n_b}"] = attempt(
                    config_digest, lambda: sweep(sweep(base, "F_0", [f0])[0], "N_B", [n_b])
                )
    return out


# one malformed JSON config per refusal of the config loader, as edits of a valid one
MALFORMED = {
    "not an object": lambda d: [1],
    "unknown key": lambda d: dict(d, x=1),
    "no name": lambda d: {k: v for k, v in d.items() if k != "name"},
    "no domains": lambda d: {k: v for k, v in d.items() if k != "domains"},
    "domains not a list": lambda d: dict(d, domains=1),
    "domain not an object": lambda d: dict(d, domains=[1, d["domains"][1]]),
    "domain unknown key": lambda d: dict(d, domains=[dict(d["domains"][0], x=1), d["domains"][1]]),
    "domain without population": lambda d: dict(d, domains=[{}, d["domains"][1]]),
    "initial unknown string": lambda d: dict(d, domains=[{"population": 1, "initial": "up"}] * 2),
    "initial bad mixed": lambda d: dict(
        d, domains=[{"population": 1, "initial": {"mixed": {"a": 1}}}] * 2
    ),
    "initial unknown object": lambda d: dict(
        d, domains=[{"population": 1, "initial": {"x": 1}}] * 2
    ),
    "initial not a string": lambda d: dict(d, domains=[{"population": 1, "initial": 3}] * 2),
    "reservoirs not a list": lambda d: dict(d, reservoirs={}),
    "reservoir not an object": lambda d: dict(d, reservoirs=[[0, 1]]),
    "reservoir unknown key": lambda d: dict(d, reservoirs=[{"domains": [0, 1], "x": 1}]),
    "reservoir without domains": lambda d: dict(d, reservoirs=[{"rate": 1.0}]),
    "reservoir domains not a list": lambda d: dict(d, reservoirs=[{"domains": 0}]),
    "temperature not an object": lambda d: dict(d, temperature=1),
    "temperature missing key": lambda d: dict(d, temperature={"omega0_over_2pi_hz": 1e10}),
    "temperature unknown key": lambda d: dict(
        d, temperature={"T_kelvin": 0.1, "omega0_over_2pi_hz": 1e10, "x": 1}
    ),
    "observables not a list": lambda d: dict(d, observables="E_F(A,B)"),
}


def loader() -> dict:
    """Hashes of the public names and of config_from_dict's refusals, keyed by case."""
    import qlre

    star = {}
    exec("from qlre import *", star)
    out = {
        "qlre.__all__": digest(sorted(qlre.__all__)),
        "from qlre import *": digest(sorted(set(star) - {"__builtins__"})),
    }
    valid = {
        "name": "census",
        "domains": [{"population": 1, "initial": "excited"}, {"population": 2}],
        "reservoirs": [{"domains": [0, 1], "rate": 1.0}],
    }
    for case, edit in MALFORMED.items():
        out[f"config_from_dict({case})"] = attempt(digest, qlre.config_from_dict, edit(valid))
    return out


def construction() -> dict:
    """Hashes of the state factors, isometries, thermal per-spin equations and summary text."""
    import tempfile

    import numpy as np
    from qlre import Backend, BasisDescriptor, build_realistic, preset
    from qlre.cli import run_config
    from qlre.hilbert import (
        basis_isometry,
        dicke_level_vector,
        product_state,
        pure_product_state,
        symmetric_isometry,
    )

    out = {}
    for backend in Backend:
        for n in range(1, 11):
            for k in range(-1, n + 2):
                out[f"dicke_level_vector({n}, {k}, {backend.value})"] = attempt(
                    digest, dicke_level_vector, n, k, backend
                )
    for n in range(0, 11):
        out[f"symmetric_isometry({n})"] = attempt(matrix_digest, symmetric_isometry, n)
    for pops in [(1,), (3,), (1, 2), (2, 1, 3), (1, 4, 1), (3, 3, 2)]:
        for backend in Backend:
            basis = BasisDescriptor(backend, pops)
            out[f"basis_isometry({pops}, {backend.value})"] = attempt(
                matrix_digest, basis_isometry, basis
            )
    level_lists = {
        (1, 3): [[0, 0], [1, 2], [1, 3], [0, 1], ["u", "udd"], ["d", "dud"], [1, "UdU"]],
        (2, 1, 2): [[2, 0, 1], ["ud", 1, "du"], [0, "u", 2], [3, 0, 0], [0, 0], ["uu", 0, "d"]],
        (2,): [[-1], [1.5], [None], ["x"], [np.array([1.0, 0.0])]],
    }
    for pops, lists in level_lists.items():
        for backend in Backend:
            basis = BasisDescriptor(backend, pops)
            for levels in lists:
                for fn in (product_state, pure_product_state):
                    key = f"{fn.__name__}({pops}, {backend.value}, {levels!r})"
                    out[key] = attempt(operator_digest, fn, basis, levels)
    for pops, reservoirs, rates in [
        ((1, 1, 1), [[0, 1], [1, 2]], [1.0, 2.5]),
        ((1, 3, 1), [[0, 1], [1, 2]], None),
        ((2, 2), [[0, 1]], [0.7]),
    ]:
        basis = BasisDescriptor(Backend.FULL, pops)
        for nbar, individual, dep in [(0.3, True, 0.1), (0.0, True, 0.2), (1.5, True, 0.0)]:
            eq = build_realistic(basis, reservoirs, nbar, individual, dep, rates=rates)
            terms = [(operator_digest(t.jump), t.rate) for t in eq.terms]
            key = f"build_realistic({pops}, {reservoirs}, {nbar}, {individual}, {dep}, {rates})"
            out[key] = digest(*terms)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("intro-pair", "appB-oracle", "appA-mixed"):
            cfg = preset(name)[0]
            summary = run_config(cfg, Path(tmp))
            summary.wall_time_s = 0.0
            summary.phase_times_s = {k: 0.0 for k in summary.phase_times_s}
            out[f"RunSummary.to_json({cfg.name})"] = digest(summary.to_json())
    return out


def guarded(compute):
    """compute()'s hashes, or one hash of the exception it raised, under its name."""
    try:
        return compute()
    except Exception as exc:  # a refused config is a result to compare too
        return {f"{compute.__name__} raised": digest(type(exc).__name__, str(exc))}


def census() -> dict:
    import qlre
    from qlre import dynamics

    out = {"source": str(Path(qlre.__file__).resolve().parent), "once": builders(), "configs": {}}
    for name, cfg in configs():
        eq, rho0 = qlre.build_master_equation(cfg), qlre.build_initial_state(cfg)

        def sector():
            s = dynamics._Sector(eq, rho0.matrix)
            L, S = s.liouvillian, s._to_elements
            return {
                "keys": digest(s.keys),
                "levels": digest(s.levels),
                "L": digest(L.indptr, L.indices, L.data, L.shape),
                "S": digest(S.indptr, S.indices, S.data, S.shape),
                "diagonal": digest(s.diagonal),
                "roots": digest(s._roots),
            }

        def steady():
            result = qlre.steady_state(eq, rho0)
            return {"steady": digest(result.rho.matrix, result.residual, result.steps)}

        def compiled():
            observables = qlre.compile_observables(cfg, qlre.build_basis(cfg))
            parts = [
                (k, ob.keep, None if ob.operator is None else operator_digest(ob.operator))
                for k, ob in sorted(observables.items())
            ]
            return {"observables compiled": digest(*parts)}

        def run():
            observables = qlre.compile_observables(cfg, qlre.build_basis(cfg))
            traj = qlre.evolve(eq, rho0, cfg.t_max, cfg.sample_dt, observables=observables)
            series = [(k, traj.observables[k]) for k in sorted(traj.observables)]
            stats = None if traj.stats is None else dataclasses.astuple(traj.stats)
            return {
                "times": digest(traj.times),
                "observables": digest(*[x for pair in series for x in pair]),
                "final_rho": digest(traj.final_rho.matrix),
                "stats": digest(stats, traj.residual),
            }

        row = {
            "name": digest(cfg.name),
            "config_to_dict": digest(json.dumps(qlre.config_to_dict(cfg))),
            "config_hash": digest(qlre.config_hash(cfg)),
        }
        row.update(guarded(sector))
        row.update(guarded(steady))
        row.update(guarded(compiled))
        row.update(guarded(run))
        out["configs"][name] = row
    return out


def hashes_of(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    command = [sys.executable, str(Path(__file__).resolve()), "--hash"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def diff_once(old: dict, new: dict) -> list[str]:
    keys = sorted(set(old["once"]) | set(new["once"]))
    return [f"{k}: differs" for k in keys if old["once"].get(k) != new["once"].get(k)]


def diff(old: dict, new: dict) -> list[str]:
    lines = []
    for name in list(old["configs"]) + [n for n in new["configs"] if n not in old["configs"]]:
        a, b = old["configs"].get(name), new["configs"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'new' if a is None else 'old'}")
            continue
        fields = [f for f in sorted(set(a) | set(b)) if a.get(f) != b.get(f)]
        if fields:
            lines.append(f"{name}: {', '.join(fields)} differ")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="OLD and NEW checkout roots")
    parser.add_argument("--hash", action="store_true", help="print this qlre's hashes as JSON")
    args = parser.parse_args(argv)
    if args.hash:
        json.dump(census(), sys.stdout)
        return 0
    if len(args.checkouts) != 2:
        parser.error("give two checkouts, or --hash")
    old, new = (hashes_of(c.resolve()) for c in args.checkouts)
    once, lines = diff_once(old, new), diff(old, new)
    fields = sum(len(row) for row in new["configs"].values())
    print(f"old: {old['source']}\nnew: {new['source']}")
    print("\n".join(once + lines) if once or lines else "no difference")
    print(f"{len(new['once'])} builder calls, {len(once)} differ")
    print(f"{len(new['configs'])} configs, {fields} hashes, {len(lines)} configs differ")
    return 1 if once or lines else 0


if __name__ == "__main__":
    sys.exit(main())
