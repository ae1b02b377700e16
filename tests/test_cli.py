"""End-to-end command line tests: exit codes, run directory layout,
verify round trips, and bitwise reproducibility of stored runs."""

import json
import subprocess
import sys

import numpy as np
import pytest

from semiflux.cli import main, parse_monitor_list
from semiflux.model import ConfigurationError
from semiflux.monitors import ALL_MONITORS


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BUMP_CFG = """
# small smooth run used across the cli tests
scenario = gaussian-bump
n_cells = 200
t_end = 0.4
epsilon = 0.01
cadence = 2
monitors = positivity,mass,field,riemann,entropy
seed = 3
"""


class TestParseMonitorList:
    def test_all_and_none(self):
        assert parse_monitor_list("all") == ALL_MONITORS
        assert parse_monitor_list("") == ALL_MONITORS
        assert parse_monitor_list("none") == ()

    def test_subset_and_unknown(self):
        assert parse_monitor_list("mass, field") == ("mass", "field")
        with pytest.raises(ConfigurationError):
            parse_monitor_list("mass,warp")


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_malformed_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario gaussian-bump\n")
        assert main(["solve", "--config", cfg]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\nwarp = 9\n")
        assert main(["solve", "--config", cfg]) == 2

    def test_missing_scenario(self, tmp_path):
        cfg = write_cfg(tmp_path, "n_cells = 100\n")
        assert main(["solve", "--config", cfg]) == 2

    def test_unknown_scenario(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = warp-bubble\n")
        assert main(["solve", "--config", cfg]) == 2

    def test_bad_monitor_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\n")
        assert main(["solve", "--config", cfg, "--monitors", "warp"]) == 2

    def test_relax_requires_tau_list(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\n")
        assert main(["relax", "--config", cfg]) == 2

    def test_relax_rejects_crooked_ladder(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "scenario = gaussian-bump\ntau_list = 0.2 0.1 0.07\n")
        assert main(["relax", "--config", cfg,
                     "--out-dir", str(tmp_path / "r")]) == 2


class TestSolve:
    def test_quiescent_scenario_exits_clean(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "scenario = vacuum-rest\nn_cells = 100\n"
                        "t_end = 0.5\ncadence = 20\n")
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "0 violation(s)" in text
        for fname in ("report.json", "monitors.csv", "violations.json",
                      "profile.dat", "timing.json"):
            assert (out / fname).exists()
        assert list((out / "snapshots").glob("snap_*.dat"))
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["scenario"] == "vacuum-rest"
        assert payload["n_violations"] == 0
        assert json.loads((out / "violations.json").read_text()) == []

    def test_bump_run_with_entropy_checks(self, tmp_path):
        cfg = write_cfg(tmp_path, BUMP_CFG)
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        checks = payload["entropy_checks"]
        assert len(checks) == 3
        assert all(c["residual"] >= -c["tolerance"] for c in checks)

    def test_monitor_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, BUMP_CFG)
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out-dir", str(out),
                   "--monitors", "mass"])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["monitors"] == "mass"
        assert "entropy_checks" not in payload

    def test_profile_tables_reshape_device(self, tmp_path):
        table = tmp_path / "damping.dat"
        table.write_text("-5.0 2.0\n5.0 1.0\n")
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 64\nt_end = 0.1\n"
            f"a_table = {table}\nmonitors = positivity\n"))
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
        assert rc == 0
        prof = np.loadtxt(out / "profile.dat")
        a_vals = prof[:, 1]
        assert a_vals[0] > a_vals[-1]
        assert a_vals[0] == pytest.approx(2.0, abs=0.1)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BUMP_CFG)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["solve", "--config", cfg, "--out-dir", str(d)]) == 0
        names = ["report.json", "monitors.csv", "violations.json",
                 "profile.dat"]
        names += sorted(p.relative_to(dirs[0]).as_posix()
                        for p in (dirs[0] / "snapshots").iterdir())
        for name in names:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


class TestVerify:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        cfg = write_cfg(tmp_path, BUMP_CFG)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 0
        return out

    def test_round_trip_is_byte_identical(self, run_dir, capsys):
        rc = main(["verify", str(run_dir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.count("byte-identical under recomputation") == 2

    def test_tampered_monitors_detected(self, run_dir, capsys):
        p = run_dir / "monitors.csv"
        p.write_text(p.read_text() + "# trailing noise\n")
        rc = main(["verify", str(run_dir)])
        assert rc == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_short_time_cross_check(self, run_dir, capsys):
        rc = main(["verify", str(run_dir), "--picard", "--t1", "0.01"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "fixed-point cross-check" in text
        assert "agrees" in text

    def test_legacy_flux_scheme_echo_still_verifies(self, run_dir):
        # run directories written while the config echo carried a flux
        # scheme name must keep verifying
        p = run_dir / "report.json"
        payload = json.loads(p.read_text())
        payload["config"]["flux_scheme"] = "llf"
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert main(["verify", str(run_dir), "--picard", "--t1", "0.01"]) == 0

    def test_missing_run_dir(self, tmp_path):
        assert main(["verify", str(tmp_path / "ghost")]) == 2


class TestPicardCommand:
    def test_contraction_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 80\nepsilon = 0.01\n"
            "t1 = 0.01\nn_intervals = 4\nrefine = 2\n"))
        out = tmp_path / "pic"
        rc = main(["picard", "--config", cfg, "--out-dir", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "converged" in text
        csv = (out / "contraction.csv").read_text().splitlines()
        assert csv[0] == "iteration,distance,ratio"
        assert len(csv) >= 3
        payload = json.loads((out / "picard_report.json").read_text())
        assert payload["converged"] is True
        assert all(r < 1.0 for r in payload["ratios"])
        assert payload["endpoint_gap"] <= payload["endpoint_tolerance"]


class TestRelaxCommand:
    def test_coupled_sweep(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nx_min = -4\nx_max = 4\n"
            "n_cells = 150\ntau_list = 0.2 0.1 0.05\ndelta_coeff = 0.2\n"
            "horizon = 0.25\nwindow_lo = -2\nwindow_hi = 2\n"))
        out = tmp_path / "relax"
        rc = main(["relax", "--config", cfg, "--out-dir", str(out)])
        assert rc == 0
        assert "strictly decreasing: yes" in capsys.readouterr().out
        rows = (out / "relax_table.csv").read_text().splitlines()
        assert rows[0] == "tau,epsilon,delta,l1_error,dissipation"
        errs = [float(r.split(",")[3]) for r in rows[1:]]
        assert errs[0] > errs[1] > errs[2]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monotone"] is True

    def test_detuned_sweep_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nx_min = -4\nx_max = 4\n"
            "n_cells = 100\ntau_list = 0.2 0.1 0.05\ndelta_coeff = 0.2\n"
            "eps_fixed = 0.5\nhorizon = 0.25\n"
            "window_lo = -2\nwindow_hi = 2\n"))
        out = tmp_path / "relax"
        rc = main(["relax", "--config", cfg, "--out-dir", str(out)])
        assert rc == 1
        assert "strictly decreasing: NO" in capsys.readouterr().out


class TestModuleEntry:
    def test_python_dash_m_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "semiflux", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("solve", "verify", "picard", "relax"):
            assert sub in proc.stdout
