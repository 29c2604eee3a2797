import ast
import csv
import dataclasses
import json
import logging
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from qlre import cli, scenarios
from qlre.cli import main, run_config
from qlre.dynamics import evolve
from qlre.errors import (
    ConvergenceFailure,
    IntegrationFailure,
    NumericalFailure,
    UnsupportedConfigurationError,
)
from qlre.scenarios import (
    DomainSpec,
    InitialSpec,
    ReservoirSpec,
    ScenarioConfig,
    build_basis,
    build_initial_state,
    build_master_equation,
    compile_observables,
    config_hash,
    config_from_dict,
    config_to_dict,
    preset,
)


def chain(name="cli_chain", n_b=2, t_max=6.0, observables=("E_F(A,C)",)):
    return ScenarioConfig(
        name=name,
        domains=(
            DomainSpec(1, InitialSpec("ground")),
            DomainSpec(n_b, InitialSpec("excited")),
            DomainSpec(1, InitialSpec("ground")),
        ),
        reservoirs=(ReservoirSpec((0, 1)), ReservoirSpec((1, 2))),
        t_max=t_max,
        sample_dt=0.5,
        observables=observables,
    )


def write_config(path, cfg):
    path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
    return str(path)


def no_temp_leftovers(directory):
    return not [p for p in directory.iterdir() if ".tmp" in p.name]


class TestSimulate:
    def test_config_file_run(self, tmp_path):
        src = write_config(tmp_path / "c.json", chain())
        out = tmp_path / "out"
        assert main(["simulate", "--config", src, "--out", str(out)]) == 0
        csv = (out / "cli_chain_timeseries.csv").read_text().splitlines()
        assert csv[0] == 't_scaled,"E_F(A,C)"'
        assert len(csv) == 1 + 13  # header plus t = 0, 0.5, ..., 6.0
        assert csv[1].startswith("0,")
        assert no_temp_leftovers(out)

    def test_summary_contents(self, tmp_path):
        cfg = chain()
        main(["simulate", "--config", write_config(tmp_path / "c.json", cfg),
              "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "cli_chain_summary.json").read_text())
        assert summary.keys() == {
            "name", "config_hash", "backend", "dim", "steady_state_residual",
            "wall_time_s", "phase_times_s", "observables", "config",
        }
        assert summary["backend"] == "collective"
        assert summary["dim"] == 12
        assert summary["steady_state_residual"] >= 0.0
        # embedded config reproduces the run exactly
        assert config_hash(config_from_dict(summary["config"])) == summary["config_hash"]
        entry = summary["observables"]["E_F(A,C)"]
        assert entry["final"] > 0.0
        assert 0.0 < entry["t_half"] < cfg.t_max

    def test_timeseries_rows_read_as_one_cell_at_a_time(self, tmp_path):
        # fig3b N_B = 4 to t = 1.05 ends on a short interval after t = 1.0
        cfg = dataclasses.replace(preset("fig3b")[2], t_max=1.05)
        assert cfg.name == "fig3b_nb4" and len(cfg.observables) == 2
        run_config(cfg, tmp_path)
        written = (tmp_path / "fig3b_nb4_timeseries.csv").read_bytes()
        traj = evolve(build_master_equation(cfg), build_initial_state(cfg), cfg.t_max,
                      cfg.sample_dt, observables=compile_observables(cfg, build_basis(cfg)))
        assert traj.times[-2:].tolist() == [1.0, 1.05]
        lines = ['t_scaled,"E_F(A,C)",Jz_B/N_B']
        for i, t in enumerate(traj.times):
            row = [cli._fmt(t)] + [cli._fmt(traj.observables[n][i]) for n in cfg.observables]
            lines.append(",".join(row))
        assert written == ("\n".join(lines) + "\n").encode()

    def test_phase_times_fill_the_wall_time(self, tmp_path):
        summary = run_config(chain(), tmp_path)
        written = json.loads((tmp_path / "cli_chain_summary.json").read_text())
        assert written["phase_times_s"] == summary.phase_times_s
        phases = summary.phase_times_s
        assert list(phases) == ["build", "evolve", "residual", "write"]
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert phases["evolve"] > 0.0
        # consecutive laps of one clock: build, evolve and residual add up to
        # the wall time but for the rounding of the sum; write comes after it
        simulated = phases["build"] + phases["evolve"] + phases["residual"]
        assert simulated <= summary.wall_time_s + 1e-9
        assert simulated >= summary.wall_time_s - 1e-9

    def test_preset_family_runs(self, tmp_path):
        assert main(["simulate", "--config", "intro-pair", "--out", str(tmp_path)]) == 0
        name = preset("intro-pair")[0].name
        assert (tmp_path / f"{name}_timeseries.csv").exists()
        assert (tmp_path / f"{name}_summary.json").exists()

    def test_unknown_source(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1
        assert "presets:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_error_names_field(self, tmp_path, capsys):
        d = config_to_dict(chain())
        d["gamma"] = 1.0
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps(d))
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "gamma" in capsys.readouterr().err

    def test_memory_guard(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QLRE_MAX_MEM_BYTES", "1024")
        src = write_config(tmp_path / "c.json", chain())
        rc = main(["simulate", "--config", src, "--out", str(tmp_path)])
        assert rc == 1
        assert "exceeds the cap" in capsys.readouterr().err
        # same run squeaks through with the override flag
        assert main(["simulate", "--config", src, "--out", str(tmp_path), "--force"]) == 0

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("domains", lambda d: d.update(domains=5)),
            ("reservoirs", lambda d: d.update(reservoirs=5)),
            ("observables", lambda d: d.update(observables=5)),
            ("reservoirs[0].domains", lambda d: d["reservoirs"][0].update(domains=5)),
        ],
    )
    def test_non_sequence_field_exits_1(self, field, edit, tmp_path, capsys):
        data = config_to_dict(chain())
        edit(data)
        src = tmp_path / "c.json"
        src.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["simulate", "--config", str(src), "--out", str(tmp_path)])
        assert rc == 1
        assert f": {field}: expected a" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("reservoirs[0].rate", lambda d: d["reservoirs"][0].update(rate=None)),
            ("nbar", lambda d: d.update(nbar=[1])),
        ],
    )
    def test_non_numeric_field_exits_1(self, field, edit, tmp_path, capsys):
        data = config_to_dict(chain())
        edit(data)
        src = tmp_path / "c.json"
        src.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["simulate", "--config", str(src), "--out", str(tmp_path)])
        assert rc == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("domains[1].population", lambda d: d["domains"][1].update(population=True)),
            ("domains[1].initial.dicke", lambda d: d["domains"][1].update(initial={"dicke": True})),
            ("reservoirs[0].domains", lambda d: d["reservoirs"][0].update(domains=[False, True])),
        ],
    )
    def test_boolean_integer_field_exits_1(self, field, edit, tmp_path, capsys):
        data = config_to_dict(chain())
        edit(data)
        src = tmp_path / "c.json"
        src.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["simulate", "--config", str(src), "--out", str(tmp_path)])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not list(tmp_path.glob("*_summary.json"))

    def test_path_like_name_exits_1(self, tmp_path, capsys):
        data = config_to_dict(chain())
        data["name"] = "../../evil"
        src = tmp_path / "c.json"
        src.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "a" / "b"
        rc = main(["simulate", "--config", str(src), "--out", str(out)])
        assert rc == 1
        assert "name" in capsys.readouterr().err
        assert not list(tmp_path.glob("evil*"))

    def test_undefined_half_max_time_is_recorded_as_null(self, tmp_path):
        cfg = chain(t_max=1.0)
        ground = tuple(dataclasses.replace(d, initial=InitialSpec("ground")) for d in cfg.domains)
        summary = run_config(dataclasses.replace(cfg, domains=ground), tmp_path)
        assert summary.observables["E_F(A,C)"] == {"final": 0.0, "t_half": None}

    def test_other_half_max_time_errors_propagate(self, tmp_path, monkeypatch):
        def broken(series, times):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "half_max_time", broken)
        with pytest.raises(RuntimeError, match="boom"):
            run_config(chain(t_max=1.0), tmp_path)

    @pytest.mark.parametrize("raw", ["zero", "0", "-5"])
    def test_memory_cap_must_be_positive(self, raw, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QLRE_MAX_MEM_BYTES", raw)
        src = write_config(tmp_path / "c.json", chain())
        rc = main(["simulate", "--config", src, "--out", str(tmp_path)])
        assert rc == 1
        assert "QLRE_MAX_MEM_BYTES" in capsys.readouterr().err


class TestSweep:
    def run_sweep(self, tmp_path, values, jobs=1, sub="out"):
        src = write_config(tmp_path / "base.json", chain())
        out = tmp_path / sub
        rc = main([
            "sweep", "--config", src, "--param", "N_B", "--values", values,
            "--jobs", str(jobs), "--out", str(out),
        ])
        return rc, out

    def test_rows_sorted_by_value(self, tmp_path):
        rc, out = self.run_sweep(tmp_path, "2,1")
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == 'N_B,status,"final_E_F(A,C)","t_half_E_F(A,C)"'
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2"]
        assert all(ln.split(",")[1] == "ok" for ln in lines[1:])
        assert no_temp_leftovers(out)

    def test_parallel_matches_serial(self, tmp_path):
        rc1, out1 = self.run_sweep(tmp_path, "1,2,3", jobs=1, sub="serial")
        rc2, out2 = self.run_sweep(tmp_path, "1,2,3", jobs=2, sub="parallel")
        assert rc1 == rc2 == 0
        assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()

    def test_failed_rows_reported(self, tmp_path, monkeypatch):
        # (1,1,1) fits under a 4 KiB cap, (1,8,1) does not
        monkeypatch.setenv("QLRE_MAX_MEM_BYTES", "4096")
        rc, out = self.run_sweep(tmp_path, "1,8")
        assert rc == 3
        lines = (out / "sweep.csv").read_text().splitlines()
        ok_row = lines[1].split(",")
        bad_row = lines[2].split(",")
        assert ok_row[0] == "1" and ok_row[1] == "ok"
        assert bad_row[0] == "8" and bad_row[1].startswith("failed:")
        assert bad_row[2] == "" and bad_row[3] == ""

    def test_failed_row_keeps_message(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QLRE_MAX_MEM_BYTES", "4096")
        rc, out = self.run_sweep(tmp_path, "8")
        assert rc == 3
        status = (out / "sweep.csv").read_text().splitlines()[1].split(",")[1]
        assert status.startswith("failed: _ConfigError: ")
        assert "exceeds the cap of 4096" in status

    def test_failure_message_commas_do_not_split_cells(self, tmp_path, monkeypatch):
        def failing(cfg, out_dir, force=False):
            raise ValueError("bad, worse\nworst")

        monkeypatch.setattr(cli, "run_config", failing)
        rc, out = self.run_sweep(tmp_path, "2")
        assert rc == 3
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row == ["2", "failed: ValueError: bad; worse worst", "", ""]

    def test_unknown_parameter(self, tmp_path, capsys):
        src = write_config(tmp_path / "base.json", chain())
        rc = main(["sweep", "--config", src, "--param", "N_Q", "--values", "1"])
        assert rc == 1
        assert "valid names" in capsys.readouterr().err

    def test_non_numeric_value(self, tmp_path, capsys):
        src = write_config(tmp_path / "base.json", chain())
        rc = main(["sweep", "--config", src, "--param", "N_B", "--values", "1,two"])
        assert rc == 1
        assert "'two'" in capsys.readouterr().err

    def test_non_integer_population_named(self, tmp_path, capsys):
        src = write_config(tmp_path / "base.json", chain())
        rc = main(["sweep", "--config", src, "--param", "N_B", "--values", "2.5",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: domains[1].population: must be an integer >= 1, got 2.5" in (
            capsys.readouterr().err
        )

    def test_huge_mixed_population_named(self, tmp_path, capsys):
        src = write_config(tmp_path / "base.json", preset("appA-mixed")[0])
        rc = main(["sweep", "--config", src, "--param", "N_B", "--values", "2000",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: domains[1].initial: mixed weights" in capsys.readouterr().err

    @pytest.mark.parametrize("param, values", [("F_0", "0.6,0.8"), ("N_B", "3,5")])
    def test_symmetric_mixed_sweep_runs(self, tmp_path, param, values):
        # B mixed on the ladder at a + b = 0.6, a + 5 b = 1
        base = chain("sym", n_b=4, t_max=2.0)
        mixed = DomainSpec(4, InitialSpec("mixed", a=0.5, b=0.1))
        cfg = dataclasses.replace(
            base, domains=(base.domains[0], mixed, base.domains[2]), mixed_basis="symmetric"
        )
        src = write_config(tmp_path / "base.json", cfg)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", src, "--param", param, "--values", values,
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[v, "ok"] for v in values.split(",")]

    def test_preset_family_rejected_as_base(self, tmp_path, capsys):
        rc = main(["sweep", "--config", "fig3a", "--param", "N_B", "--values", "1",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "single base config" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [",", " , ,", ""])
    def test_value_list_without_values_refused(self, raw):
        with pytest.raises(cli._ConfigError, match="^--values: no values given$"):
            cli._parse_values(raw)


class TestSweepJobs:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts asked of ProcessPoolExecutor; the points run in-process."""
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # cmd_sweep imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        return made

    @pytest.mark.parametrize(
        "jobs, cpus, values, expected",
        [
            (64, 3, "1,2,3,4", [3]),  # capped by the cores
            (64, 8, "1,2", [2]),  # capped by the points
            (2, 8, "1,2,3", [2]),  # as asked
            (64, 1, "1,2,3", []),  # one core: no pool at all
            (64, None, "1,2", []),  # an unknown core count counts as one
        ],
    )
    def test_workers_capped(self, jobs, cpus, values, expected, pools, monkeypatch, tmp_path):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        src = write_config(tmp_path / "base.json", chain())
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", src, "--param", "N_B", "--values", values,
            "--jobs", str(jobs), "--out", str(out),
        ])
        assert rc == 0
        assert pools == expected
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [[v, "ok"] for v in values.split(",")]


class TestMemoryNotice:
    def test_logged_not_printed(self, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="qlre.cli"):
            cli._check_memory(chain(), force=False)
        [record] = caplog.records
        assert record.name == "qlre.cli"
        assert record.levelno == logging.INFO
        assert record.getMessage() == "cli_chain: dimension 12, density matrix ~0.0 MiB"
        assert capsys.readouterr() == ("", "")

    def test_command_line_shows_it_on_stderr(self, tmp_path, capsys):
        src = write_config(tmp_path / "c.json", chain())
        assert main(["simulate", "--config", src, "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == "cli_chain: dimension 12, density matrix ~0.0 MiB\n"
        assert out.startswith("cli_chain: residual ")
        # the handler lives only as long as the command
        assert logging.getLogger("qlre").handlers == []


class TestMemoryGuardHugePopulation:
    @pytest.fixture
    def no_dimension(self, monkeypatch):
        # building 2**(2**40) as an integer never returns: fail instead of hanging
        def never(cfg):
            raise AssertionError("the memory guard built the Hilbert-space dimension")

        for module in (cli, scenarios):
            monkeypatch.setattr(module, "hilbert_dimension", never)
            monkeypatch.setattr(module, "build_basis", never)

    def test_refused_with_exit_1_naming_the_config(self, no_dimension, tmp_path, capsys):
        data = config_to_dict(chain(name="huge_full"))
        data["backend"] = "full"
        data["include_individual"] = True
        data["domains"][1]["population"] = 2**40
        src = tmp_path / "huge.json"
        src.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["simulate", "--config", str(src), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: huge_full: estimated 2^")
        assert "exceeds the cap" in err
        assert no_temp_leftovers(tmp_path)

    def test_collective_population_of_the_same_size_is_refused_too(self, no_dimension):
        cfg = chain(name="huge_collective", n_b=2**70)
        with pytest.raises(cli._ConfigError, match="huge_collective: estimated 2\\^"):
            cli._check_memory(cfg, force=False)


class TestReproduce:
    def test_unknown_figure(self, tmp_path, capsys):
        rc = main(["reproduce", "fig9", "--out", str(tmp_path)])
        assert rc == 1
        assert "valid ids" in capsys.readouterr().err

    def test_intro_bundle(self, tmp_path):
        assert main(["reproduce", "intro", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "intro_manifest.json").read_text())
        assert manifest["figure"] == "intro"
        assert manifest["files"]
        for entry in manifest["files"]:
            assert (tmp_path / entry["file"]).exists()
            assert entry["panel"]
        assert no_temp_leftovers(tmp_path)


# Each stub run returns, for observable n of the k-th run (k from 1),
# final = k + _STUB_FINAL[n] and t_half = k + 0.5, so a curve row shows
# both which run and which observable it was read from.
_STUB_FINAL = {"E_N(A|B)": 0.125, "E_F(A,C)": 0.25, "C(A,C)": 0.375, "x_d": 0.5, "N_ABC": 0.625}


def _series(names, panel):
    return [{"file": f"{n}_timeseries.csv", "panel": panel} for n in names]


_FIG1A = [f"fig1a_na{n}" for n in range(1, 9)]
_FIG3A = [f"fig3a_nb{n}" for n in (3, 6, 9, 12)]
_FIG3B = [f"fig3b_nb{n}" for n in range(2, 13)]
_FIG5A = [f"fig5a_dep{g}" for g in ("0", "0.02", "0.05", "0.1", "0.2")]
_FIG5C = [f"fig5c_T{t}" for t in ("0", "0.1", "0.3", "0.5", "1")]
_FIG6 = ["fig6_star_nd11"] + [f"fig6_star_nd{n}" for n in range(1, 11)]
_APPA = [f"appA_{p}" for p in ("ddd", "dud", "udd", "ddu", "uuu", "udu", "uud", "duu")]
_APPA_MIXED = [f"appA_mixed_f{f}" for f in ("0.5", "0.6", "0.7", "0.8", "0.9", "1")]
_APPB = [f"appB_nb{n}" for n in range(1, 9)]
_NOISE = "pair entanglement under noise"
_DYNAMICS = "entanglement and relaxation dynamics"

# figure id -> (configs run in order, manifest files, curve CSV texts)
_REPRODUCE_PINS = {
    "intro": (
        ["intro-pair"],
        _series(["intro-pair"], "two-spin pair entanglement versus time"),
        {},
    ),
    "fig1a": (
        _FIG1A,
        _series(_FIG1A, "per-size time series")
        + [{"file": "fig1a_curve.csv", "panel": "steady log-negativity versus N_A"}],
        {"fig1a_curve.csv": "N_A,E_N\n"
         "1,1.125\n2,2.125\n3,3.125\n4,4.125\n5,5.125\n6,6.125\n7,7.125\n8,8.125\n"},
    ),
    "fig3a": (_FIG3A, _series(_FIG3A, _DYNAMICS), {}),
    "fig3b": (
        _FIG3B,
        _series(_FIG3B, _DYNAMICS)
        + [{"file": "fig3b_curve.csv",
            "panel": "steady entanglement and half-rise time versus N_B"}],
        {"fig3b_curve.csv": "N_B,E_F,t_half\n"
         "2,1.25,1.5\n3,2.25,2.5\n4,3.25,3.5\n5,4.25,4.5\n6,5.25,5.5\n7,6.25,6.5\n"
         "8,7.25,7.5\n9,8.25,8.5\n10,9.25,9.5\n11,10.25,10.5\n12,11.25,11.5\n"},
    ),
    "fig4": (
        ["fig4_chain4", "fig4_chain5"],
        _series(["fig4_chain4", "fig4_chain5"], "outer-domain pair entanglement"),
        {},
    ),
    "fig5a": (_FIG5A, _series(_FIG5A, _NOISE), {}),
    "fig5b": (["fig5b_individual"], _series(["fig5b_individual"], _NOISE), {}),
    "fig5c": (_FIG5C, _series(_FIG5C, _NOISE), {}),
    # eleven runs, but only the star's own series and the inset are listed; the
    # star's own run, the first, gives the inset's N_D = 11 row
    "fig6": (
        _FIG6,
        _series(_FIG6[:1], "tripartite negativity versus time")
        + [{"file": "fig6_inset.csv", "panel": "steady tripartite negativity versus N_D"}],
        {"fig6_inset.csv": "N_D,N_ABC\n"
         "1,2.625\n2,3.625\n3,4.625\n4,5.625\n5,6.625\n6,7.625\n7,8.625\n8,9.625\n"
         "9,10.625\n10,11.625\n11,1.625\n"},
    ),
    "appA": (_APPA, _series(_APPA, "per-initial-state entanglement dynamics"), {}),
    "appA-mixed": (
        _APPA_MIXED,
        _series(_APPA_MIXED, "mixed-preparation dynamics")
        + [{"file": "appA_mixed_curve.csv",
            "panel": "steady entanglement versus preparation fidelity"}],
        {"appA_mixed_curve.csv": "F_0,E_F\n"
         "0.5,1.25\n0.6,2.25\n0.7,3.25\n0.8,4.25\n0.9,5.25\n1,6.25\n"},
    ),
    "appB": (
        _APPB,
        _series(_APPB, "oracle-scenario dynamics")
        + [{"file": "appB_curve.csv",
            "panel": "steady concurrence and dark-state weight versus N_B"}],
        {"appB_curve.csv": "N_B,C,x_d\n"
         "1,1.375,1.5\n2,2.375,2.5\n3,3.375,3.5\n4,4.375,4.5\n5,5.375,5.5\n"
         "6,6.375,6.5\n7,7.375,7.5\n8,8.375,8.5\n"},
    ),
}


class TestReproduceTable:
    """Pins what every figure id runs and writes, with the solver stubbed out."""

    @pytest.fixture
    def stub_runs(self, monkeypatch):
        ran = []

        def stub(cfg, out_dir, force=False):
            ran.append(cfg.name)
            out_dir.mkdir(parents=True, exist_ok=True)
            k = len(ran)
            observables = {
                n: {"final": k + _STUB_FINAL.get(n, 0.0), "t_half": k + 0.5}
                for n in cfg.observables
            }
            return types.SimpleNamespace(observables=observables)

        monkeypatch.setattr(cli, "run_config", stub)
        return ran

    @pytest.mark.parametrize("figure", list(_REPRODUCE_PINS))
    def test_figure_outputs(self, figure, stub_runs, tmp_path):
        runs, files, curves = _REPRODUCE_PINS[figure]
        assert main(["reproduce", figure, "--out", str(tmp_path)]) == 0
        assert stub_runs == runs
        manifest = json.loads((tmp_path / f"{figure}_manifest.json").read_text())
        assert manifest == {"figure": figure, "files": files}
        written = {p.name: p.read_text() for p in tmp_path.glob("*.csv")}
        assert written == curves
        assert no_temp_leftovers(tmp_path)

    def test_valid_ids_listed_in_order(self, tmp_path, capsys):
        assert main(["reproduce", "fig9", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: unknown figure 'fig9'; valid ids: " + ", ".join(_REPRODUCE_PINS) + "\n"
        )


class TestValidate:
    def test_quick_scale_passes(self, capsys):
        assert main(["validate", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        assert "all 4 checks passed" in out

    def test_failing_check_exits_4_and_names_it(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_check_measures", lambda: (1.0, "a broken measure"))
        assert main(["validate", "--scale", "quick"]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert "FAIL  measures" in out
        assert out.count("PASS") == 3
        assert err == "validation failed: measures\n"

    def test_raising_check_fails_alone_and_exits_4(self, monkeypatch, capsys):
        def broken(cap):
            raise RuntimeError("no steady state")

        monkeypatch.setattr(cli, "_check_weights", broken)
        assert main(["validate", "--scale", "quick"]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        line = "FAIL  steady-weights     worst inf (tol 1e-06)  raised RuntimeError: no steady state"
        assert line in out.splitlines()
        assert out.count("PASS") == 3
        assert err == "validation failed: steady-weights\n"


class TestSimulateRunErrors:
    """A run that raises inside run_config exits with its code and the config named."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (ValueError, 1),
            (UnsupportedConfigurationError, 1),
            (IntegrationFailure, 2),
            (ConvergenceFailure, 2),
            (NumericalFailure, 2),
        ],
    )
    def test_exit_code(self, error, code, tmp_path, monkeypatch, capsys):
        def failing(cfg, out_dir, force=False):
            raise error("went wrong")

        monkeypatch.setattr(cli, "run_config", failing)
        src = write_config(tmp_path / "c.json", chain())
        assert main(["simulate", "--config", src, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == "error: cli_chain: went wrong\n"


class TestReproduceRunErrors:
    """reproduce maps a failed run to the same exit code and message as simulate."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (ValueError, 1),
            (UnsupportedConfigurationError, 1),
            (IntegrationFailure, 2),
            (ConvergenceFailure, 2),
            (NumericalFailure, 2),
        ],
    )
    def test_exit_code(self, error, code, tmp_path, monkeypatch, capsys):
        def failing(cfg, out_dir, force=False):
            raise error("went wrong")

        monkeypatch.setattr(cli, "run_config", failing)
        assert main(["reproduce", "intro", "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == "error: intro-pair: went wrong\n"
        assert not list(tmp_path.iterdir())


class TestMemoryGuardSamples:
    """The estimate counts the samples, so a run with too many is refused before it starts."""

    def intro(self, tmp_path, t_max, sample_dt):
        data = config_to_dict(preset("intro-pair")[0])
        data.update(t_max=t_max, sample_dt=sample_dt)
        return write_config_dict(tmp_path / "intro.json", data)

    def test_many_samples_refused_under_a_small_cap(self, tmp_path, monkeypatch, capsys):
        # 2.5e6 samples peak at ~2 GiB; the estimate must say so, not 256 B
        monkeypatch.setenv("QLRE_MAX_MEM_BYTES", str(2**30))
        src = self.intro(tmp_path, 25.0, 1e-5)
        assert main(["simulate", "--config", src, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: intro-pair: estimated 2.55" in err
        assert "bytes exceeds the cap of 1073741824" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*_summary.json"))

    def test_overflowing_sample_count_refused(self, tmp_path, capsys):
        src = self.intro(tmp_path, 1e300, 1e-300)
        assert main(["simulate", "--config", src, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: intro-pair: estimated inf bytes exceeds the cap" in err
        assert "Traceback" not in err

    def test_no_preset_refused_at_the_default_cap(self, monkeypatch):
        monkeypatch.delenv("QLRE_MAX_MEM_BYTES", raising=False)
        for name in scenarios.PRESET_NAMES:
            for cfg in preset(name):
                cli._check_memory(cfg, force=False)


def write_config_dict(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


_SWEEP_ARGS = ["--param", "N_B", "--values", "1"]


class TestUnusablePaths:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("kind", ["directory", "non-UTF-8 file"])
    def test_unreadable_config_exits_1(self, command, kind, tmp_path, capsys):
        spec = tmp_path / "cfg.json"
        if kind == "directory":
            spec.mkdir()
        else:
            spec.write_bytes(b"\xff\xfe{}")
        extra = _SWEEP_ARGS if command == "sweep" else []
        rc = main([command, "--config", str(spec), *extra, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}: ")

    @pytest.mark.parametrize("command", ["simulate", "sweep", "reproduce"])
    def test_out_naming_a_file_exits_1(self, command, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        if command == "reproduce":
            argv = ["reproduce", "intro"]
        else:
            argv = [command, "--config", write_config(tmp_path / "base.json", chain())]
            argv += _SWEEP_ARGS if command == "sweep" else []
        rc = main(argv + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert out.read_text() == ""


class TestCsvFiles:
    def test_every_file_reads_back_as_a_table(self, tmp_path):
        # fig3b's E_F(A,C) and the sweep's final_E_F(A,C) hold commas, quoted in the headers
        assert main(["reproduce", "fig3b", "--out", str(tmp_path / "fig3b")]) == 0
        src = write_config(tmp_path / "base.json", chain())
        assert main(["sweep", "--config", src, *_SWEEP_ARGS, "--out", str(tmp_path / "sweep")]) == 0
        files = sorted(tmp_path.glob("*/*.csv"))
        assert len(files) == 14  # fig3b's 11 time series and curve, the sweep's one and its table
        headers = set()
        for path in files:
            with path.open(newline="") as f:
                rows = list(csv.reader(f))
            assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}, path.name
            headers.update(rows[0])
        assert {"E_F(A,C)", "final_E_F(A,C)", "t_half_E_F(A,C)"} <= headers

    def test_a_preset_name_is_read_beside_a_directory_of_that_name(
        self, tmp_path, monkeypatch, capsys
    ):
        # the first run makes the directory intro-pair; the second still finds the preset
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert main(["simulate", "--config", "intro-pair", "--out", "intro-pair"]) == 0
        assert "error" not in capsys.readouterr().err
        assert (tmp_path / "intro-pair" / "intro-pair_timeseries.csv").is_file()


class TestFailedWrites:
    """An output file that cannot be written exits 1 naming it, and leaves no temp file."""

    @pytest.mark.parametrize(
        "argv, taken",
        [
            (["simulate", "--config", "intro-pair"], "intro-pair_timeseries.csv"),
            (["reproduce", "intro"], "intro-pair_timeseries.csv"),
            (["sweep", "--config", "intro-pair", *_SWEEP_ARGS], "sweep.csv"),
        ],
        ids=["simulate", "reproduce", "sweep"],
    )
    def test_exits_1_naming_the_path(self, argv, taken, tmp_path, capsys):
        (tmp_path / taken).mkdir()
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / taken}: cannot write" in err
        assert "Traceback" not in err
        assert no_temp_leftovers(tmp_path)


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


class TestImportWeight:
    # each of these adds 8-30 MiB of RSS at import, more than the
    # benchmark's peak-RSS bound allows; a path no workload takes may
    # import one lazily
    HEAVY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.integrate")
    # these two share scipy's array-API layer, ~20 MiB; the runs below
    # DENSE_LIMIT, collective or per-spin, need neither, and the builders of
    # operators above it import scipy.sparse when they first run
    SPARSE = ("scipy.sparse", "scipy.constants")
    # hashlib maps OpenSSL's libcrypto (~3.5 MiB) and the process pool pulls in
    # multiprocessing (~1 MiB); only config_hash and a multi-worker sweep need them
    STDLIB = ("hashlib", "_hashlib", "concurrent.futures", "multiprocessing")

    def loaded_after(self, code, modules):
        """Which of modules are loaded once code has run in a fresh interpreter."""
        src = str(Path(cli.__file__).resolve().parents[1])  # the copy under test
        code += f"\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.strip()

    def test_cli_import_leaves_heavy_scipy_modules_out(self):
        assert self.loaded_after("import qlre.cli", self.HEAVY + self.SPARSE) == "[]"

    def test_solves_leave_hashing_and_the_process_pool_out(self):
        # a steady state on appB N_B = 4 and the fig5b (1,4,1) evolve, after the cli import
        code = (
            "import sys\n"
            "import qlre.cli\n"
            f"assert not [m for m in {self.STDLIB!r} if m in sys.modules]\n"
            "from qlre.dynamics import evolve, steady_state\n"
            "from qlre.scenarios import build_basis, build_initial_state, build_master_equation\n"
            "from qlre.scenarios import compile_observables, preset, sweep\n"
            "cfg = preset('appB-oracle')[3]\n"
            "assert cfg.domains[1].population == 4\n"
            "assert steady_state(build_master_equation(cfg), build_initial_state(cfg)).steps > 0\n"
            "cfg = sweep(preset('fig5b-individual')[0], 'N_B', [4])[0]\n"
            "eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)\n"
            "observables = compile_observables(cfg, build_basis(cfg))\n"
            "assert evolve(eq, rho0, 1.0, 0.1, observables=observables).times.size == 11"
        )
        assert self.loaded_after(code, self.STDLIB) == "[]"

    def test_config_hash_loads_hashlib_and_keeps_its_value(self):
        code = (
            "from qlre.scenarios import config_hash, preset\n"
            "print(config_hash(preset('appB-oracle')[3]))"
        )
        assert self.loaded_after(code, ("hashlib",)).splitlines() == [
            "eed1bfa2f1e7c39a",
            "['hashlib']",
        ]

    def test_run_config_leaves_heavy_scipy_modules_out(self, tmp_path):
        # the batched observables of fig3b N_B = 12 through the whole run_config path
        code = (
            "from pathlib import Path\n"
            "from qlre.cli import run_config\n"
            "from qlre.scenarios import preset\n"
            "cfg = preset('fig3b')[10]\n"
            "assert cfg.name == 'fig3b_nb12'\n"
            f"summary = run_config(cfg, Path({str(tmp_path)!r}))\n"
            "assert summary.observables['E_F(A,C)']['final'] > 0"
        )
        assert self.loaded_after(code, self.HEAVY + self.SPARSE) == "[]"

    @pytest.mark.parametrize("family, index", [("fig5a-dephasing", 4), ("appA-mixed", 0)])
    def test_per_spin_run_config_leaves_heavy_scipy_modules_out(self, family, index, tmp_path):
        # fig5a dep 0.2 (d = 128) and appA-mixed f 0.5 (d = 64) on the full backend
        code = (
            "from pathlib import Path\n"
            "from qlre.cli import run_config\n"
            "from qlre.scenarios import build_basis, preset\n"
            f"cfg = preset({family!r})[{index}]\n"
            "assert build_basis(cfg).backend.value == 'full'\n"
            f"summary = run_config(cfg, Path({str(tmp_path)!r}))\n"
            "assert summary.observables"
        )
        assert self.loaded_after(code, self.HEAVY + self.SPARSE) == "[]"

    def test_propagated_evolve_leaves_heavy_scipy_modules_out(self):
        # fig3b N_B = 12 is the largest small-sweep sector, advanced by its exact propagator
        code = (
            "import qlre.cli\n"
            "from qlre.dynamics import evolve\n"
            "from qlre.scenarios import build_initial_state, build_master_equation, preset\n"
            "cfg = preset('fig3b')[10]\n"
            "assert cfg.name == 'fig3b_nb12'\n"
            "traj = evolve(build_master_equation(cfg), build_initial_state(cfg), 1.0, 0.1)\n"
            "assert traj.stats is None"
        )
        assert self.loaded_after(code, self.HEAVY + self.SPARSE) == "[]"

    def test_per_spin_evolve_leaves_heavy_scipy_modules_out(self):
        # fig5b at (1,4,1): per-spin decay, 65 orbit coordinates, advanced by its exact
        # propagator; its jumps are dense at d = 64, and so is its set-up's rhs
        code = (
            "import qlre.cli\n"
            "from qlre.dynamics import _Sector, evolve, lindblad_rhs\n"
            "from qlre.scenarios import build_basis, build_initial_state, build_master_equation\n"
            "from qlre.scenarios import compile_observables, preset, sweep\n"
            "cfg = sweep(preset('fig5b-individual')[0], 'N_B', [4])[0]\n"
            "eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)\n"
            "assert _Sector(eq, rho0.matrix).levels.size == 65\n"
            "observables = compile_observables(cfg, build_basis(cfg))\n"
            "lindblad_rhs(eq, rho0)\n"
            "traj = evolve(eq, rho0, 1.0, 0.1, observables=observables)\n"
            "assert traj.stats is None"
        )
        assert self.loaded_after(code, self.HEAVY + self.SPARSE) == "[]"

    def test_per_spin_evolve_above_the_dense_limit_loads_scipy_sparse_when_built(self):
        # fig5b at (1,7,1), d = 512: its CSR jumps load scipy.sparse, and only when
        # they are built
        code = (
            "import sys\n"
            "import qlre.cli\n"
            "from qlre.dynamics import evolve\n"
            "from qlre.scenarios import build_basis, build_initial_state, build_master_equation\n"
            "from qlre.scenarios import compile_observables, preset, sweep\n"
            "cfg = sweep(preset('fig5b-individual')[0], 'N_B', [7])[0]\n"
            "assert build_basis(cfg).dim == 512\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)\n"
            "assert 'scipy.sparse' in sys.modules\n"
            "observables = compile_observables(cfg, build_basis(cfg))\n"
            "traj = evolve(eq, rho0, 0.2, 0.1, observables=observables)\n"
            "assert traj.stats.substeps > 0"
        )
        assert self.loaded_after(code, self.HEAVY + self.SPARSE) == "['scipy.sparse']"

    def test_krylov_evolve_leaves_heavy_scipy_modules_out(self):
        # fig4 chain4, 771 coordinates, advanced by Krylov substeps: the chain-evolve path
        code = (
            "import qlre.cli\n"
            "from qlre.dynamics import evolve\n"
            "from qlre.scenarios import build_basis, build_initial_state, build_master_equation\n"
            "from qlre.scenarios import compile_observables, preset\n"
            "cfg = preset('fig4-chain4')[0]\n"
            "observables = compile_observables(cfg, build_basis(cfg))\n"
            "traj = evolve(build_master_equation(cfg), build_initial_state(cfg), 0.25, 0.25,\n"
            "              observables=observables)\n"
            "assert traj.stats.substeps > 0"
        )
        assert self.loaded_after(code, self.HEAVY) == "[]"

    def test_steady_state_leaves_heavy_scipy_modules_out(self):
        # the steady-oracle path: appB N_B = 4 and 8 by level sweeps and the fig6 star at N_D = 7
        code = (
            "import qlre.cli\n"
            "from qlre.dynamics import steady_state\n"
            "from qlre.scenarios import build_initial_state, build_master_equation, preset, sweep\n"
            "appb = [preset('appB-oracle')[n - 1] for n in (4, 8)]\n"
            "assert [cfg.domains[1].population for cfg in appb] == [4, 8]\n"
            "star = sweep(preset('fig6-star')[0], 'N_D', [7])[0]\n"
            "for cfg in appb + [star]:\n"
            "    eq, rho0 = build_master_equation(cfg), build_initial_state(cfg)\n"
            "    assert steady_state(eq, rho0).steps > 0"
        )
        assert self.loaded_after(code, self.HEAVY + self.SPARSE) == "[]"


class TestLibraryOutput:
    def test_only_the_cli_prints(self):
        # library code reports through logging; the command line is the one writer
        offenders = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            if path.name == "cli.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
