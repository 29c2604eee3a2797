#!/usr/bin/env python3
"""Write bench/references.json: the values each workload operation must reproduce.

    python3 bench/make_references.py

Solves every operation of every workload once, at every size, and stores
the observable values that ``workloads.check`` compares against.  It also
stores the appB closed form ``oracle.edge_excited_steady`` on the collective
ladder, so the check never builds the full 2^N state in the measured
process.  The file is written fresh each time.  The stored file was
produced from the code the benchmark was introduced with; rerun this only
when a change to the physics is intended, and say so.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import run

LEAK_TOL = 1e-12


def edge_excited_ladder_data(qlre, workloads, n: int) -> dict:
    """x_dark(n) and the dark and ground vectors of edge_excited_steady(n) on the ladder.

    Both vectors must lie in the symmetric subspace, so that a trace
    distance taken on the ladder equals the full-basis one of criterion 4;
    and the state rebuilt from them must be the oracle's own closed form.
    """
    import numpy as np

    dark = qlre.dark_state(n)
    ground = np.zeros(dark.basis.dim, dtype=complex)
    ground[-1] = 1.0  # every spin down
    data = {"x_dark": qlre.x_dark(n)}
    for key, full in (("dark", dark), ("ground", qlre.PureState(ground, dark.basis))):
        ladder = qlre.to_collective_basis(full)
        leak = float(np.linalg.norm(qlre.to_full_basis(ladder).amplitudes - full.amplitudes))
        if leak > LEAK_TOL:
            raise ValueError(
                f"{key} vector of edge_excited_steady({n}) leaves the symmetric subspace"
                f" by {leak:.3e}"
            )
        data[key] = [[float(z.real), float(z.imag)] for z in ladder.amplitudes]
    oracle = qlre.to_collective_basis(qlre.edge_excited_steady(n))
    rebuilt = workloads.edge_excited_on_ladder(data, oracle.basis)
    error = float(np.abs(rebuilt.matrix - oracle.matrix).max())
    if error > LEAK_TOL:
        raise ValueError(f"rebuilt edge_excited_steady({n}) differs from the oracle by {error:.3e}")
    return data


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    qlre = run._import_program()
    if qlre is None:
        print("error: no qlre sources in this checkout", file=sys.stderr)
        return run.EXIT_NO_PROGRAM
    import workloads

    refs = {"edge_excited_steady": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for size in workloads.SIZES:
            refs[size] = {}
            for name in workloads.WORKLOAD_NAMES:
                for op in workloads.build(name, size).ops:
                    if op.edge_excited:
                        n = op.cfg.domains[1].population
                        refs["edge_excited_steady"][str(n)] = edge_excited_ladder_data(
                            qlre, workloads, n
                        )
                    eq, rho0, observables = run._setup(qlre, op, run._no_span, run._no_wrap)
                    result = workloads.solve(op, eq, rho0, observables, Path(tmp))
                    values = workloads.measured_values(op, result, observables)
                    refs[size][op.name] = values
                    print(size, op.name, values, flush=True)
    workloads.REFERENCES_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
