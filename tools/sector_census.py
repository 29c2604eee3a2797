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
every fig5a and fig5b config at N_B = 2..7.  Per config it hashes
``_Sector``'s keys, levels, L, S, diagonal and roots, the steady state
with its residual and step count, ``compile_observables``' keeps and
operators, and ``evolve`` to the config's own horizon: its times,
observables, final_rho, SolverStats and residual.  Once per run it also
hashes ``collective_lowering`` and ``collective_jz`` for N = 1..12 on both
backends, and ``build_collective_zero_T``'s terms on the (1, N_B, 1)
chains, N_B = 1..5, on both backends.  Equal hashes mean bitwise equal
arrays, and for an operator the same storage too; an exception is hashed
by its type and message.
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
    """An Operator's or PureState's storage, dtype and bytes."""
    import numpy as np

    if hasattr(op, "amplitudes"):
        return digest("PureState", op.amplitudes)
    m = op.matrix
    if isinstance(m, np.ndarray):
        return digest("ndarray", m)
    return digest(type(m).__name__, m.indptr, m.indices, m.data, m.shape)


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

        row = guarded(sector)
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
