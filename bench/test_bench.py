"""Self-test of the benchmark at the tiny size.

    python3 -m pytest -q bench/test_bench.py

Runs every workload through the benchmark's command line, untraced and
traced, and checks that each metric named in BENCHMARK.json is printed with
its unit.  Checks that the stored appB closed forms are still the oracle's.
Then shows that the correctness gate can fail: a perturbed reference or
closed form must mark exactly the perturbed operation as failed.
"""

import copy
import json
import subprocess
import sys

import pytest

import run

QLRE = run._import_program()  # puts the checkout's src/ on the path for workloads

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload]
    cmd += ["--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert NAMES == list(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(workloads.build(workload, "tiny").ops)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_without_the_program_the_run_fails(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in run.ROOT.joinpath("bench").glob("*.py"):
        bench.joinpath(f.name).write_text(f.read_text())
    bench.joinpath("references.json").write_text(workloads.REFERENCES_PATH.read_text())
    cmd = [sys.executable, str(bench / "run.py"), "--workload", NAMES[0]]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", NAMES)
def test_a_perturbed_reference_is_counted_as_failed(workload, tmp_path):
    wl = workloads.build(workload, "tiny")
    refs = copy.deepcopy(workloads.load_references()["tiny"])
    victim = wl.ops[-1].name
    key = sorted(refs[victim])[0]
    refs[victim][key] += 10 * workloads.FINAL_TOL

    perturbed = run.run_pass(QLRE, wl, list(wl.ops), refs, tmp_path)
    assert perturbed.attempted == len(wl.ops)
    assert list(perturbed.failures) == [victim]

    clean = run.run_pass(QLRE, wl, list(wl.ops), workloads.load_references()["tiny"], tmp_path)
    assert clean.failures == {}


def test_stored_closed_forms_are_the_oracle():
    import numpy as np

    import make_references

    for n, stored in workloads.load_references()["edge_excited_steady"].items():
        fresh = make_references.edge_excited_ladder_data(QLRE, workloads, int(n))
        assert fresh["x_dark"] == stored["x_dark"]
        for key in ("dark", "ground"):
            np.testing.assert_allclose(fresh[key], stored[key], rtol=0, atol=1e-12)


def test_a_perturbed_closed_form_is_counted_as_failed(monkeypatch, tmp_path):
    wl = workloads.build("steady-oracle", "tiny")
    victim = next(op for op in wl.ops if op.edge_excited)
    n = str(victim.cfg.domains[1].population)
    forms = copy.deepcopy(workloads.load_references()["edge_excited_steady"])
    forms[n]["x_dark"] += 10 * workloads.TRACE_DISTANCE_TOL
    monkeypatch.setattr(workloads, "_closed_forms", lambda: forms)

    perturbed = run.run_pass(QLRE, wl, list(wl.ops), workloads.load_references()["tiny"], tmp_path)
    assert list(perturbed.failures) == [victim.name]
    assert "trace distance" in perturbed.failures[victim.name][0]
