"""End-to-end command line tests: exit codes, run directory layout,
verify round trips, and bitwise reproducibility of stored runs."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semiflux
from semiflux.cli import main, parse_monitor_list
from semiflux.model import ConfigurationError
from semiflux.monitors import ALL_MONITORS
from semiflux.picard import picard_solve
from semiflux.relaxation import CouplingRule, relaxation_study


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def spelled_defaults(defaults: dict, keys: tuple) -> str:
    """Config lines setting `keys` to the library's own default values."""
    return "".join(f"{k} = {defaults[k]!r}\n" for k in keys)


def signature_defaults(func) -> dict:
    return {k: v.default for k, v in inspect.signature(func).parameters.items()}


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

    @pytest.mark.parametrize("command,own_keys", [
        ("picard", "t1 = 0.01\nn_intervals = 2"),
        ("relax", "tau_list = 0.2 0.1 0.05\nhorizon = 0.05"),
    ], ids=["picard", "relax"])
    def test_seed_is_unknown_outside_solve(self, tmp_path, command, own_keys):
        # picard and relax draw no random numbers, so a seed is a typo
        cfg = write_cfg(tmp_path, ("scenario = gaussian-bump\nn_cells = 40\n"
                                   f"{own_keys}\nseed = 3\n"))
        assert main([command, "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command,body", [
        ("relax", "tau_list = 0.2, abc, 0.05"),
        ("relax", "tau_list = 0.2 0.1 0.05\nn_s_records = 1"),
        ("relax", "tau_list = 0.2 0.1 0.05\nhorizon = -1"),
        ("relax", "tau_list = 0.2 0.1 0.05\nwindow_lo = 3\nwindow_hi = -3"),
        ("picard", "t1 = 0"),
        ("picard", "n_intervals = 0"),
    ], ids=["relax-tau-not-a-number", "relax-one-s-record",
            "relax-negative-horizon", "relax-empty-window", "picard-t1-zero",
            "picard-no-intervals"])
    def test_bad_study_settings_exit_2(self, tmp_path, capsys, command, body):
        # exit 1 is a verdict of the study; a setting it cannot run is usage
        cfg = write_cfg(tmp_path, ("scenario = gaussian-bump\nn_cells = 40\n"
                                   f"{body}\n"))
        assert main([command, "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_relax_rejects_crooked_ladder(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "scenario = gaussian-bump\ntau_list = 0.2 0.1 0.07\n")
        assert main(["relax", "--config", cfg,
                     "--out-dir", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("command,key", [
        ("solve", "boundary"), ("solve", "pressure_convention"),
        ("solve", "source_variant"), ("picard", "boundary"),
        ("picard", "pressure_convention"), ("relax", "boundary"),
        ("relax", "pressure_convention"),
    ])
    def test_bad_enum_value_exits_2(self, tmp_path, capsys, command, key):
        # a value outside its key's enum is malformed configuration
        own_keys = {"solve": "", "picard": "t1 = 0.01\n",
                    "relax": "tau_list = 0.2 0.1 0.05\n"}[command]
        cfg = write_cfg(tmp_path, ("scenario = gaussian-bump\nn_cells = 40\n"
                                   f"{own_keys}{key} = sideways\n"))
        assert main([command, "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    @pytest.mark.parametrize("command,own_keys", [
        ("solve", ""), ("picard", "t1 = 0.01\n"),
        ("relax", "tau_list = 0.2 0.1 0.05\n"),
    ], ids=["solve", "picard", "relax"])
    @pytest.mark.parametrize("bad,message", [
        ("damping = -1", "damping coefficient must be non-negative"),
        ("bump_amplitude = -0.5", "raw excess density must be non-negative"),
    ], ids=["negative-damping", "negative-bump"])
    def test_bad_scenario_value_exits_2(self, tmp_path, capsys, command,
                                        own_keys, bad, message):
        # values the profile or the initial data reject are malformed
        # configuration, not a failed check
        cfg = write_cfg(tmp_path, ("scenario = gaussian-bump\nn_cells = 40\n"
                                   f"{own_keys}{bad}\n"))
        assert main([command, "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_relax_failed_profile_check_exits_2(self, tmp_path, capsys):
        # zero damping fails gaussian-bump's declared profile check; relax
        # stops on it before any march, with solve's message
        base = "scenario = gaussian-bump\nn_cells = 100\ndamping = 0\n"
        errs = []
        for command, own_keys in (("solve", ""),
                                  ("relax", "tau_list = 0.2 0.1 0.05\n")):
            cfg = write_cfg(tmp_path, base + own_keys, name=f"{command}.cfg")
            assert main([command, "--config", cfg,
                         "--out-dir", str(tmp_path / command)]) == 2
            errs.append(capsys.readouterr().err)
        assert "expected uniform_ok=True" in errs[0]
        assert errs[1] == errs[0]


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

    def test_timing_splits_the_phases(self, tmp_path):
        cfg = write_cfg(tmp_path, BUMP_CFG)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 0
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing) == {"wall_seconds", "monitors_s", "entropy_s",
                               "write_s"}
        assert all(v >= 0.0 for v in timing.values())

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

    @pytest.mark.parametrize("swap", [
        None, ("scenario = gaussian-bump", "scenario = doping-ramp"),
        ("scenario = gaussian-bump", "scenario = isothermal-bump"),
        ("seed = 3", "seed = 3\nsource_variant = excess-density"),
    ], ids=["gaussian-bump", "doping-ramp", "isothermal-bump",
            "gaussian-bump-excess-density"])
    def test_round_trip_is_byte_identical(self, tmp_path, capsys, swap):
        # the field is derived from rho on both sides; doping-ramp has
        # b != 0 and e_minus = 1, so the datum and the doping enter it
        cfg = write_cfg(tmp_path, BUMP_CFG.replace(*swap) if swap else BUMP_CFG)
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(run_dir)]) \
            in (0, 1)
        capsys.readouterr()
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

    def test_mismatch_names_file_row_column_and_values(self, run_dir,
                                                       capsys):
        p = run_dir / "monitors.csv"
        lines = p.read_text().splitlines()
        col = lines[0].split(",").index("mass")
        cells = lines[3].split(",")
        stored = cells[col]
        cells[col] = "0.5"
        lines[3] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        rc = main(["verify", str(run_dir)])
        assert rc == 1
        out = capsys.readouterr().out
        assert ("monitors.csv: MISMATCH under recomputation, line 4 (row 3), "
                f"column mass: stored '0.5', recomputed '{stored}'") in out
        assert "violations.json: byte-identical" in out

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

    @pytest.mark.parametrize("key,value", [
        ("boundary", "sideways"), ("pressure_convention", "sideways"),
        ("source_variant", "sideways"), ("epsilon", "abc"),
        ("n_cells", "many"),
    ])
    def test_bad_config_echo_exits_2(self, run_dir, capsys, key, value):
        # an echo value its key cannot read is unreadable input
        p = run_dir / "report.json"
        payload = json.loads(p.read_text())
        payload["config"][key] = value
        p.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and value in err


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

    def test_iteration_times_stay_out_of_the_output_files(self, tmp_path,
                                                          capsys):
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 80\nepsilon = 0.01\n"
            "t1 = 0.01\nn_intervals = 4\n"))
        out = tmp_path / "pic"
        assert main(["picard", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("  iteration ")]
        payload = json.loads((out / "picard_report.json").read_text())
        n_iter = len(payload["distances"])
        assert n_iter >= 3
        assert [ln.split(":")[0] for ln in lines] == \
            [f"  iteration {i}" for i in range(n_iter)]
        assert all(ln.endswith(" ms") and ", ratio " in ln for ln in lines)
        csv = (out / "contraction.csv").read_text().splitlines()
        assert csv[0] == "iteration,distance,ratio"
        assert [row.count(",") for row in csv[1:]] == [2] * n_iter
        assert set(payload) == {
            "distances", "ratios", "converged", "diverged",
            "halve_suggestion", "fixed_point_residual", "band_violations",
            "endpoint_gap", "endpoint_tolerance", "t1", "n_intervals",
            "scenario"}

    def test_same_grid_check_on_a_fine_slab(self, tmp_path):
        # refine = 1 marches on the Picard grid itself: n = 300, eps = 0.01
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 300\nepsilon = 0.01\n"
            "t1 = 0.01\nn_intervals = 8\ntol = 1e-12\nrefine = 1\n"))
        out = tmp_path / "pic"
        assert main(["picard", "--config", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "picard_report.json").read_text())
        assert payload["converged"] is True
        assert payload["endpoint_gap"] <= payload["endpoint_tolerance"]

    def test_unset_study_keys_take_the_library_defaults(self, tmp_path):
        base = ("scenario = gaussian-bump\nn_cells = 40\nepsilon = 0.01\n"
                "t1 = 0.01\n")
        spelled = base + spelled_defaults(signature_defaults(picard_solve),
                                          ("n_intervals", "tol", "max_iters"))
        texts = []
        for i, body in enumerate((base, spelled)):
            cfg = write_cfg(tmp_path, body, name=f"picard{i}.cfg")
            out = tmp_path / f"pic{i}"
            assert main(["picard", "--config", cfg, "--out-dir", str(out)]) == 0
            texts.append([(out / f).read_bytes() for f in
                          ("picard_report.json", "contraction.csv")])
        assert texts[0] == texts[1]


class TestRelaxCommand:
    def test_unset_study_keys_take_the_library_defaults(self, tmp_path):
        base = ("scenario = gaussian-bump\nx_min = -4\nx_max = 4\n"
                "n_cells = 40\ntau_list = 0.2 0.1 0.05\n")
        coupling = {f.name: f.default for f in dataclasses.fields(CouplingRule)}
        spelled = (base
                   + spelled_defaults(coupling, ("eps_coeff", "eps_power",
                                                 "delta_coeff"))
                   + spelled_defaults(signature_defaults(relaxation_study),
                                      ("horizon", "n_s_records", "s0_frac")))
        results = []
        for i, body in enumerate((base, spelled)):
            cfg = write_cfg(tmp_path, body, name=f"relax{i}.cfg")
            out = tmp_path / f"relax{i}"
            rc = main(["relax", "--config", cfg, "--out-dir", str(out)])
            assert rc in (0, 1)
            results.append((rc, (out / "relax_table.csv").read_bytes(),
                            (out / "manifest.json").read_bytes()))
        assert results[0] == results[1]

    def test_coupled_sweep(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nx_min = -4\nx_max = 4\n"
            "n_cells = 150\ntau_list = 0.2 0.1 0.05\ndelta_coeff = 0.2\n"
            "horizon = 0.25\nwindow_lo = -2\nwindow_hi = 2\n"))
        out = tmp_path / "relax"
        rc = main(["relax", "--config", cfg, "--out-dir", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "strictly decreasing: yes" in stdout
        # 21 records over the horizon bound the reference's step at n = 150
        assert "drift-diffusion reference: 20 steps, 0 dt halvings" in stdout
        rows = (out / "relax_table.csv").read_text().splitlines()
        assert rows[0] == "tau,epsilon,delta,l1_error,dissipation,l1_net"
        errs = [float(r.split(",")[3]) for r in rows[1:]]
        assert errs[0] > errs[1] > errs[2]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monotone"] is True
        # the table is the one place the rows are written, and the
        # reference's step counts are diagnostics kept off the files
        assert "rows" not in manifest
        assert not {"n_steps", "halvings"} & set(manifest)

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

    def test_public_names_resolve(self):
        missing = [n for n in semiflux.__all__ if not hasattr(semiflux, n)]
        assert missing == []

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal costs about a second of import on every command
        src = str(Path(semiflux.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, semiflux.cli; print('scipy.signal' in sys.modules)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        # scipy.integrate drags in scipy.sparse, scipy.linalg and
        # scipy.optimize: about half a second of import on every command
        src = str(Path(semiflux.__file__).resolve().parents[1])
        heavy = ("scipy.integrate", "scipy.sparse", "scipy.optimize")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, semiflux.cli; "
             f"print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
