"""CLI behaviors: settings resolution, file outputs, determinism, error paths."""

import json
import subprocess
import sys

import pytest

from gravlab import __version__, cli
from gravlab.cli import main
from gravlab.ensemble_stats import SCHEMA_VERSION


def _summary(path):
    return json.loads(path.read_text())


class TestStatics:
    def test_uniform_sphere_emits_unit_frequency_row(self, tmp_path):
        rc = main(["statics", "--profile", "uniform", "--radius", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "statics.csv").read_text().splitlines()
        assert lines[0] == "quantity,argument,value"
        row = next(l for l in lines if l.startswith("omega_g,"))
        assert float(row.split(",")[2]) == pytest.approx(1.0, abs=1e-9)
        summary = _summary(tmp_path / "statics_summary.json")
        assert summary["metadata"]["version"] == __version__
        assert summary["metadata"]["units"] == "hbar = mass = omega_g = 1"
        assert summary["omega_g"] == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_profile_runs(self, tmp_path):
        rc = main(["statics", "--profile", "gaussian", "--radius", "0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = _summary(tmp_path / "statics_summary.json")
        assert summary["omega_g"] > 0
        assert summary["metadata"]["profile"] == "gaussian"


class TestErrorPaths:
    def test_unknown_subcommand_exits_2_with_stderr(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gravlab.cli", "bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gravlab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        rc = main(["statics", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 3\n")
        rc = main(["statics", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown setting" in capsys.readouterr().err

    def test_unparseable_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trajectories = many\n")
        rc = main(["statics", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["statics", "--config", str(tmp_path / "absent.cfg"),
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_solver_error_exits_1_with_stderr(self, tmp_path, capsys):
        # step large enough to trip the kinetic-phase guard on the default grid
        rc = main(["cat", "--study", "collapse", "--separation", "8",
                   "--trajectories", "2", "--dt", "0.00625",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "gravlab:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cat", "--study", "collapse", "--dt", "0"],
        ["cat", "--study", "coherence", "--dt", "0"],
        ["solitons", "--dt", "0"],
        ["solitons", "--dt=-1e-3"],
    ], ids=["collapse", "coherence", "solitons", "solitons-negative"])
    def test_step_size_must_divide_the_run(self, tmp_path, capsys, argv):
        rc = main([*argv, "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("gravlab: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["ke-rate", "diffusion"])
    def test_rate_presets_refuse_small_ensembles_before_stepping(
            self, tmp_path, capsys, monkeypatch, command):
        def stepped(*args, **kwargs):
            raise AssertionError("a too-small ensemble was stepped")

        monkeypatch.setattr(cli, "run_ensemble", stepped)
        rc = main([command, "--trajectories", "99", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("gravlab: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_verify_unknown_criterion_number(self, tmp_path, capsys):
        rc = main(["verify", "--criteria", "99", "--out-dir", str(tmp_path)])
        assert rc == 2


class TestConfigResolution:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# ensemble settings\n"
            "trajectories = 120\n"
            "t_final = 2.0  # short run\n"
            "seed = 5\n"
        )
        rc = main(["ke-rate", "--config", str(cfg), "--trajectories", "140",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        md = _summary(tmp_path / "ke_rate_summary.json")["metadata"]
        assert md["trajectories"] == 140  # flag wins
        assert md["seed"] == 5  # config wins over default
        assert md["t_final"] == 2.0


class TestEnsembleCommands:
    def test_diffusion_ssne_momentum_slope_exactly_zero(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_final = 2.0\n")
        rc = main(["diffusion", "--variant", "ssne", "--trajectories", "150",
                   "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = _summary(tmp_path / "diffusion_summary.json")
        estimates = summary["estimates"]
        assert estimates["var_pbar_rate"]["estimate"] == 0.0
        assert estimates["var_xbar_rate"]["estimate"] > 0
        assert "xp_cov_rate" in estimates
        assert summary["metadata"]["variant"] == "ssne"

    def test_ke_rate_reports_heating(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_final = 3.0\ntrajectories = 200\n")
        rc = main(["ke-rate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = _summary(tmp_path / "ke_rate_summary.json")
        est = summary["estimates"]["ke_rate"]
        assert 0.3 < est["estimate"] < 0.7
        assert (tmp_path / "ke_rate_records.csv").is_file()

    def test_outputs_byte_identical_for_identical_invocations(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trajectories = 120\nt_final = 2.0\n")
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc = main(["ke-rate", "--config", str(cfg), "--workers", "2",
                       "--out-dir", str(d)])
            assert rc == 0
        csv_a, csv_b = [(d / "ke_rate_records.csv").read_bytes() for d in dirs]
        assert csv_a == csv_b
        sums = [_summary(d / "ke_rate_summary.json") for d in dirs]
        for s in sums:
            s["metadata"].pop("timestamp")
        assert sums[0] == sums[1]

    @pytest.mark.parametrize("argv, settings, data", [
        (["ke-rate"], "trajectories = 120\nt_final = 2.0\n", "ke_rate_records.csv"),
        # three chunks at --workers 3, one at --workers 1
        (["cat", "--study", "collapse", "--separation", "16", "--dt", "1e-4"],
         "trajectories = 24\nt_final = 0.05\n", "cat_weights.csv"),
        (["cat", "--study", "coherence"], "trajectories = 100\nt_final = 0.01\n",
         "cat_coherence.csv"),
    ], ids=["ke-rate", "collapse", "coherence"])
    def test_data_independent_of_worker_count(self, tmp_path, argv, settings, data):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(settings)
        blobs = []
        for workers, name in ((1, "w1"), (3, "w3")):
            out = tmp_path / name
            rc = main([*argv, "--config", str(cfg), "--workers", str(workers),
                       "--out-dir", str(out)])
            assert rc == 0
            blobs.append((out / data).read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_changes_the_data(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trajectories = 120\nt_final = 2.0\n")
        blobs = []
        for seed in (0, 1):
            out = tmp_path / f"seed{seed}"
            rc = main(["ke-rate", "--config", str(cfg), "--seed", str(seed),
                       "--out-dir", str(out)])
            assert rc == 0
            blobs.append((out / "ke_rate_records.csv").read_bytes())
        assert blobs[0] != blobs[1]


class TestSolitons:
    def test_width_relaxation_and_fidelity(self, tmp_path):
        rc = main(["solitons", "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = _summary(tmp_path / "solitons_summary.json")
        finals = summary["final_width2"]
        assert finals["sne"] == pytest.approx(0.5, rel=1e-3)
        assert finals["gsse"] == pytest.approx(0.5, rel=1e-3)
        assert finals["ssne"] == pytest.approx(2.0**-0.5, rel=1e-3)
        assert summary["sne_grid_fidelity_t2"] >= 1.0 - 1e-6
        lines = (tmp_path / "solitons.csv").read_text().splitlines()
        assert lines[0] == "variant,time,width2"
        assert any(l.startswith("ssne,") for l in lines[1:])


class TestCat:
    def test_collapse_study_small(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_final = 0.3\n")
        rc = main(["cat", "--study", "collapse", "--separation", "8",
                   "--trajectories", "40", "--dt", "2e-4", "--seed", "3",
                   "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = _summary(tmp_path / "cat_summary.json")
        est = summary["estimates"]["collapse_time_median"]
        assert 0.0 < est["estimate"] < 0.3
        assert summary["metadata"]["threshold"] == 0.99
        # 8 / (80 / 1024) = 102.4 cells, rounded to the 102 the observer uses
        assert summary["metadata"]["separation_used"] == 102 * 80.0 / 1024
        lines = (tmp_path / "cat_weights.csv").read_text().splitlines()
        assert lines[0] == "trajectory,time,weight_left"
        seen = {int(l.split(",")[0]) for l in lines[1:]}
        assert seen == set(range(40))

    def test_coherence_study_small(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_final = 0.12\n")
        rc = main(["cat", "--study", "coherence", "--trajectories", "100",
                   "--seed", "1", "--config", str(cfg),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = _summary(tmp_path / "cat_summary.json")
        assert 1.4 < summary["decay_rate"] < 2.6
        assert summary["metadata"]["separation_used"] == 51 * 80.0 / 2048
        lines = (tmp_path / "cat_coherence.csv").read_text().splitlines()
        assert lines[0] == "time,coherence"
        assert len(lines) == 12
        # starts at 1 up to the same-branch displaced overlap, tiny here
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-2)


class TestAttract:
    def test_two_packet_run_matches_two_body_pull(self, tmp_path):
        rc = main(["attract", "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = _summary(tmp_path / "attract_summary.json")
        assert summary["relative_deviation"] < 0.05
        lines = (tmp_path / "attract_separation.csv").read_text().splitlines()
        first = float(lines[1].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert last < first


class TestVerify:
    def test_subset_passes_and_writes_report(self, tmp_path):
        rc = main(["verify", "--criteria", "1", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "verify_report.txt").read_text()
        assert "criterion 01 [PASS]" in report
        assert "criterion 02 [PASS]" in report
        assert "2/2 criteria passed" in report
        summary = _summary(tmp_path / "verify_summary.json")
        assert [c["number"] for c in summary["criteria"]] == [1, 2]
        assert all(c["passed"] for c in summary["criteria"])


class TestOutputEnvelope:
    @pytest.mark.parametrize("argv, settings", [
        (["statics"], ""),
        (["solitons", "--variant", "gsse"], "t_final = 0.1\n"),
        (["ke-rate"], "trajectories = 100\nt_final = 0.5\n"),
        (["diffusion"], "trajectories = 100\nt_final = 0.5\n"),
        (["cat", "--study", "collapse", "--separation", "16", "--dt", "1e-4"],
         "trajectories = 24\nt_final = 0.05\n"),
        (["cat", "--study", "coherence"], "trajectories = 100\nt_final = 0.01\n"),
        (["attract"], ""),
        (["verify", "--criteria", "1", "2"], ""),
    ], ids=["statics", "solitons", "ke-rate", "diffusion", "collapse", "coherence",
            "attract", "verify"])
    def test_every_preset_writes_one_summary_envelope(self, tmp_path, capsys,
                                                      argv, settings):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(settings)
        out = tmp_path / "out"
        rc = main([*argv, "--config", str(cfg), "--workers", "1", "--out-dir", str(out)])
        assert rc == 0
        written = sorted(str(p) for p in out.iterdir())
        stdout = capsys.readouterr().out.splitlines()
        assert sorted(l[len("wrote "):] for l in stdout if l.startswith("wrote ")) == written
        (summary_path,) = out.glob("*.json")
        summary = _summary(summary_path)
        assert summary["schema_version"] == SCHEMA_VERSION
        assert {"version", "units", "seed", "workers", "timestamp"} <= set(summary["metadata"])
