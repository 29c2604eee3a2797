import dataclasses
import json

import pytest

from qlre import cli
from qlre.cli import main, run_config
from qlre.scenarios import (
    DomainSpec,
    InitialSpec,
    ReservoirSpec,
    ScenarioConfig,
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
        assert csv[0] == "t_scaled,E_F(A,C)"
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
            "wall_time_s", "observables", "config",
        }
        assert summary["backend"] == "collective"
        assert summary["dim"] == 12
        assert summary["steady_state_residual"] >= 0.0
        # embedded config reproduces the run exactly
        assert config_hash(config_from_dict(summary["config"])) == summary["config_hash"]
        entry = summary["observables"]["E_F(A,C)"]
        assert entry["final"] > 0.0
        assert 0.0 < entry["t_half"] < cfg.t_max

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
        assert lines[0] == "N_B,status,final_E_F(A,C),t_half_E_F(A,C)"
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

    def test_preset_family_rejected_as_base(self, tmp_path, capsys):
        rc = main(["sweep", "--config", "fig3a", "--param", "N_B", "--values", "1",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "single base config" in capsys.readouterr().err


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


class TestValidate:
    def test_quick_scale_passes(self, capsys):
        assert main(["validate", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        assert "all 4 checks passed" in out


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
