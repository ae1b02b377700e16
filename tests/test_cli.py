"""End-to-end command line tests: exit codes, run directory layout,
verify round trips, and bitwise reproducibility of stored runs."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semiflux
from semiflux.cli import main
from semiflux import config
from semiflux.config import RELAX_KEYS, SCENARIO_KEYS, TABLE_KEYS, coerce
from semiflux.model import ConfigurationError
from semiflux.monitors import (ALL_MONITORS, MIN_RECORDS, MONITOR_COLUMNS,
                               parse_monitor_list)
from semiflux.picard import picard_solve
from semiflux.relaxation import (CouplingRule, PositivityError,
                                 relaxation_study)
from semiflux.reporting import audited_texts
from semiflux.scenarios import make_setup
from semiflux.solver import IntegrationError, run


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_harness(monkeypatch):
    """perfbench/run.py as a module and its references.json; run.py imports
    only the standard library and loads without writing bytecode into the
    benchmark's tree."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness, json.loads((BENCH / "references.json").read_text())


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

    def test_bad_monitors_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\nmonitors = warp\n")
        assert main(["solve", "--config", cfg]) == 2

    def test_zero_cadence_names_the_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\ncadence = 0\n")
        assert main(["solve", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: cadence must be >= 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,body", [
        ("solve", "out_dir = elsewhere"),
        ("picard", "out_dir = elsewhere"),
        ("relax", "tau_list = 0.2 0.1 0.05\nout_dir = elsewhere"),
        ("picard", "cross_tol_factor = 5.0"),
    ], ids=["solve-out-dir", "picard-out-dir", "relax-out-dir",
            "picard-cross-tol-factor"])
    def test_removed_config_keys_exit_2(self, tmp_path, capsys, command,
                                        body):
        # the run directory is --out-dir alone; the cross-check factor is
        # the constant CROSS_TOL_FACTOR
        cfg = write_cfg(tmp_path, ("scenario = gaussian-bump\nn_cells = 40\n"
                                   f"{body}\n"))
        assert main([command, "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "unknown configuration key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--config", "run.cfg", "--monitors", "mass"],
        ["verify", "run", "--cross-tol-factor", "5.0"],
    ], ids=["solve-monitors", "verify-cross-tol-factor"])
    def test_removed_flags_exit_2(self, argv, capsys):
        # `monitors` is a config key only; the factor is a constant
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
        ("picard", "t1 = nan"),
        ("picard", "t1 = inf"),
        ("picard", "n_intervals = 0"),
        ("picard", "tol = 0"),
        ("picard", "tol = inf"),
        ("picard", "max_iters = 0"),
        ("picard", "refine = 0"),
    ], ids=["relax-tau-not-a-number", "relax-one-s-record",
            "relax-negative-horizon", "relax-empty-window", "picard-t1-zero",
            "picard-t1-nan", "picard-t1-inf", "picard-no-intervals",
            "picard-tol-zero", "picard-tol-inf", "picard-no-iterations",
            "picard-refine-zero"])
    def test_bad_study_settings_exit_2(self, tmp_path, capsys, command, body):
        # exit 1 is a verdict of the study; a setting it cannot run is usage
        cfg = write_cfg(tmp_path, ("scenario = gaussian-bump\nn_cells = 40\n"
                                   f"{body}\n"))
        assert main([command, "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if command == "picard":
            # each picard setting is named by its own message
            key = body.partition(" = ")[0]
            assert err.startswith(f"error: {key}: need ")

    def test_picard_rejects_refine_before_the_solve(self, tmp_path, capsys,
                                                    monkeypatch):
        # refine = 0 once solved the whole slab, then failed on a grid of 0
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a slab it cannot cross-check")

        monkeypatch.setattr("semiflux.cli.picard_solve", no_solve)
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\nrefine = 0\n")
        assert main(["picard", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "error: refine: need refine >= 1, got 0\n"

    @pytest.mark.parametrize("command,own_keys", [
        ("solve", "t_end = 0.1\n"),
        ("picard", ""),
        ("relax", "tau_list = 0.2, 0.1, 0.05\neps_fixed = 0.5\n"
                  "delta_coeff = 0.2\nhorizon = 0.25\n"),
    ], ids=["solve", "picard", "relax"])
    def test_periodic_net_charge_exits_2_before_a_march(
            self, tmp_path, capsys, monkeypatch, command, own_keys):
        # on a periodic grid the field needs int (rho0 - 2 delta) - int b
        # = 0; the bump carries about 0.71 of net charge, so each command
        # stops before it marches
        def no_march(*args, **kwargs):
            raise AssertionError("marched a rejected device")

        for target in ("semiflux.cli.run", "semiflux.cli.picard_solve",
                       "semiflux.solver.run",
                       "semiflux.relaxation.drift_diffusion_step"):
            monkeypatch.setattr(target, no_march)
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nboundary = periodic\nx_min = -4\n"
            f"x_max = 4\nn_cells = 200\n{own_keys}"))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a periodic device needs zero net charge")
        assert not out.exists()

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

    @pytest.mark.parametrize("table,replaced", [
        ("a_table", ("damping", "damping_slope_coeff")),
        ("b_table", ("doping_mass", "doping_center", "doping_width")),
    ])
    def test_table_beside_a_key_it_replaces_exits_2(self, tmp_path, capsys,
                                                     table, replaced):
        # an a table replaces the damping ramp, a b table the doping
        # formula: beside either, a key of theirs would change nothing
        path = tmp_path / "table.dat"
        path.write_text("-5.0 0.5\n5.0 0.5\n")
        for keys in [(k,) for k in replaced] + [replaced]:
            cfg = write_cfg(tmp_path, (
                f"scenario = gaussian-bump\nn_cells = 40\nt_end = 0.1\n"
                f"{table} = {path}\n" + "".join(f"{k} = 0.3\n" for k in keys)))
            out = tmp_path / "run"
            assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: {table} replaces {' and '.join(keys)}; "
                "set one or the other\n")
            assert not out.exists()

    def test_eps_fixed_is_refused_by_the_cast(self):
        # one rule for every key that replaces others, in config.coerce
        with pytest.raises(ConfigurationError, match=(
                "^eps_fixed replaces eps_coeff and eps_power; "
                "set one or the other$")):
            coerce({"eps_fixed": "0.5", "eps_power": "2",
                    "eps_coeff": "0.1"}, RELAX_KEYS)

    def test_scenario_defaults_are_not_given_keys(self, tmp_path):
        # doping-ramp's row sets doping_mass, which a b table replaces; the
        # row is the scenario's, not a key the caller gave
        path = tmp_path / "doping.dat"
        path.write_text("-5.0 0.0\n5.0 0.02\n")
        setup = make_setup("doping-ramp", {"n_cells": 40,
                                           "b_table": str(path)})
        assert setup.profile.b_vals[-1] == pytest.approx(0.02, rel=0.05)

    @pytest.mark.parametrize("table,key", [("b", "doping_mass"),
                                           ("a", "damping")])
    def test_library_table_beside_a_key_it_replaces_is_refused(
            self, tmp_path, table, key):
        # a table is an override like any other, cast by make_setup, so
        # the REPLACES rule holds for a library caller as for a config file
        path = tmp_path / "table.dat"
        path.write_text("-5.0 0.5\n5.0 0.5\n")
        with pytest.raises(ConfigurationError, match=(
                f"^{table}_table replaces {key}; set one or the other$")):
            make_setup("gaussian-bump", {"n_cells": 40, key: 3.0,
                                         f"{table}_table": str(path)})

    @pytest.mark.parametrize("key", ["smoothing_width", "bump_amplitude",
                                     "t_end", "damping"])
    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, capsys,
                                                     key):
        # nan once ran unsmoothed (smoothing_width), marched zero steps
        # (bump_amplitude) or failed later under another name (t_end in the
        # step's horizon, damping in the declared profile outcome)
        body = {"scenario": "gaussian-bump", "n_cells": "40", "t_end": "0.1",
                key: "nan"}
        cfg = write_cfg(tmp_path, "".join(f"{k} = {v}\n"
                                          for k, v in body.items()))
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {key}: need a finite number, got 'nan'\n"
        assert not out.exists()

    def test_profile_table_with_a_nan_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "doping.dat"
        path.write_text("-5.0 0.0\n0.0 nan\n5.0 0.0\n")
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 40\nt_end = 0.1\n"
            f"b_table = {path}\n"))
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: profile b must be finite, got nan\n"
        assert not out.exists()


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
        assert json.loads((out / "violations.json").read_text()) == []
        # values monitors.csv and violations.json already hold stay out
        assert "n_violations" not in payload
        assert not {"initial_mass", "initial_field_bound",
                    "initial_invariant_max"} & set(payload["summary"])

    @pytest.mark.parametrize("monitors,named", [
        ("all", "uniform, entropy"), ("positivity,entropy", "entropy"),
        ("positivity", None)])
    def test_short_run_names_the_monitors_it_did_not_judge(
            self, tmp_path, capsys, monitors, named):
        # 3 records are too few for the whole-run monitors: solve says so
        # on one line, and the run is judged on the rest alone
        cfg = write_cfg(tmp_path,
                        "scenario = gaussian-bump\nn_cells = 100\n"
                        f"t_end = 0.3\ncadence = 5\nmonitors = {monitors}\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "3 snapshots, 0 violation(s)" in lines[0]
        skipped = [ln for ln in lines if "not judged" in ln]
        assert skipped == ([] if named is None else [
            f"  not judged: {named} (need {MIN_RECORDS} records, got 3)"])
        payload = json.loads((out / "report.json").read_text())
        assert payload.get("entropy_checks", []) == []
        assert not any(k.startswith("plateau_") for k in payload["summary"])

    def test_unjudged_plateau_names_the_failing_hypothesis(self, tmp_path,
                                                           capsys):
        # 17 records, but the profile's total doping exceeds the field
        # datum: uniform does not judge the run, although its sup |u|
        # plateau reads false in report.json, and solve says why
        cfg = write_cfg(tmp_path,
                        "scenario = charge-neutral-rest\n"
                        "bump_amplitude = 0.8\nsmoothing_width = 0.1\n"
                        "t_end = 2.0\ncadence = 20\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "17 snapshots, 0 violation(s)" in lines[0]
        assert [ln for ln in lines if "not judged" in ln] == [
            "  not judged: uniform (total doping below field datum)"]
        payload = json.loads((out / "report.json").read_text())
        assert payload["summary"]["plateau_sup_abs_u_ok"] is False
        assert len(payload["entropy_checks"]) == 3
        assert json.loads((out / "violations.json").read_text()) == []

    def test_seed_flag_reaches_the_echo(self, tmp_path):
        cfg = write_cfg(tmp_path, "scenario = vacuum-rest\nn_cells = 40\n"
                                  "t_end = 0.1\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out),
                     "--seed", "11"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["seed"] == 11

    def test_seed_given_twice_exits_2(self, tmp_path, capsys):
        # neither spelling wins over the other
        cfg = write_cfg(tmp_path, "scenario = vacuum-rest\nn_cells = 40\n"
                                  "t_end = 0.1\nseed = 3\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out),
                     "--seed", "11"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the seed is given twice")
        assert "--seed 11" in err and "seed = 3" in err
        assert not out.exists()

    def test_kernel_wider_than_grid_runs(self, tmp_path):
        # a 49-point smoothing kernel on 20 cells used to break the first
        # step's broadcast (exit 1, as a failed check)
        cfg = write_cfg(tmp_path,
                        "scenario = gaussian-bump\nn_cells = 20\n"
                        "smoothing_width = 3.0\nt_end = 0.1\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["summary"]["completed"]

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
        march = timing.pop("march")
        assert set(timing) == {"wall_seconds", "audit_s", "write_s"}
        assert all(v >= 0.0 for v in timing.values())
        # the march's account: the limiter counts cover every step
        n_steps = json.loads(
            (out / "report.json").read_text())["summary"]["n_steps"]
        assert march["advection_limited"] + march["viscosity_limited"] \
            + march["clamped"] == n_steps
        assert march["clamped"] >= 1          # the last step lands on t_end
        assert 0.0 < march["dt_min"] <= march["dt_median"] <= march["dt_max"]

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
        assert text.count("byte-identical under recomputation") == 3
        assert "report.json: byte-identical under recomputation" in text

    def test_monitors_table_with_the_old_log_columns_mismatches(self,
                                                                run_dir,
                                                                capsys):
        # a monitors.csv that still carries sup_log_plus/sup_log_minus
        # (removed: at gamma = 1 they are w_max and z_max again) fails on
        # its header line
        p = run_dir / "monitors.csv"
        lines = p.read_text().splitlines()
        lines = [lines[0] + ",sup_log_plus,sup_log_minus"] + [
            ln + ",0,0" for ln in lines[1:]]
        p.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(run_dir)]) == 1
        assert "monitors.csv: MISMATCH under recomputation, line 1:" in \
            capsys.readouterr().out

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

    DROP = object()

    @pytest.mark.parametrize("path,value", [
        (("entropy_checks", 0, "residual"), -123.0),
        (("summary", "plateau_sup_rho_late"), 99.0),
        (("entropy_checks",), DROP),
        (("summary", "plateau_sup_rho_ok"), DROP),
        (("summary", "n_steps"), 99),
        (("summary", "min_rho_ever"), -5.0),
        (("summary", "completed"), False),
        (("snapshots", 1), "snapshots/renamed.dat"),
    ], ids=["entropy-residual", "plateau-late", "drop-entropy-checks",
            "drop-plateau-ok", "n-steps", "min-rho-ever", "completed",
            "renamed-snapshot"])
    def test_tampered_report_detected(self, tmp_path, capsys, path, value):
        # report.json is re-rendered whole from the stored records: an
        # edited or dropped value is a mismatch naming the line it is on
        cfg = write_cfg(tmp_path, BUMP_CFG.replace(
            "monitors = positivity,mass,field,riemann,entropy",
            "monitors = all"))
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(run_dir)]) \
            in (0, 1)
        p = run_dir / "report.json"
        original = p.read_text()
        payload = json.loads(original)
        *parents, last = path
        target = payload
        for k in parents:
            target = target[k]
        if value is self.DROP:
            del target[last]
        else:
            if parents == ["snapshots"]:   # the file moves with its entry
                (run_dir / target[last]).rename(run_dir / value)
            target[last] = value
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tampered = p.read_text()
        i, (old, new) = next((i, pair) for i, pair in enumerate(zip(
            tampered.splitlines(True), original.splitlines(True)))
            if pair[0] != pair[1])
        capsys.readouterr()
        assert main(["verify", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert (f"report.json: MISMATCH under recomputation, line {i + 1}: "
                f"stored {old!r}, recomputed {new!r}") in out
        if value is not self.DROP:
            assert json.dumps(value) in old
        assert out.count("MISMATCH") == 1
        assert out.count("byte-identical under recomputation") == 2

    @pytest.mark.parametrize("t1", ["0.01", "nan"])
    def test_t1_without_picard_exits_2(self, run_dir, capsys, t1):
        # --t1 is the cross-check's horizon: without --picard it would
        # change nothing, so it is refused before anything is re-audited
        capsys.readouterr()
        assert main(["verify", str(run_dir), "--t1", t1]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--t1 {float(t1)!r}" in err and "--picard" in err

    def test_short_time_cross_check(self, run_dir, capsys):
        rc = main(["verify", str(run_dir), "--picard", "--t1", "0.01"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "fixed-point cross-check" in text
        assert "agrees" in text

    def test_cross_check_that_disagrees_exits_1(self, tmp_path, capsys):
        # a slab as long as the whole run is far beyond the short time on
        # which the iteration contracts: the check fails and says so
        cfg = write_cfg(tmp_path,
                        "scenario = gaussian-bump\nn_cells = 100\nt_end = 2\n")
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["verify", str(run_dir), "--picard", "--t1", "2"]) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("fixed-point cross-check at t=2: gap=")
        assert last.endswith(" DISAGREES")

    @pytest.mark.parametrize("t1", ["nan", "0", "-1"])
    def test_cross_check_at_nan_t1_exits_2(self, run_dir, capsys, t1):
        # a bad --t1 is refused before the stored files are re-audited
        capsys.readouterr()
        assert main(["verify", str(run_dir), "--picard", "--t1", t1]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: --t1 {float(t1)!r}: need 0 < t1 < inf" in err

    @pytest.mark.parametrize("flag,name", [
        ([], "the run's stored t_end = 0.0 caps t1"),
        (["--t1", "0.01"], "the run's stored t_end = 0.0 caps t1"),
        (["--t1", "0"], "--t1 0.0")], ids=["default", "t1-above", "t1-0"])
    def test_t_end_that_caps_t1_is_named(self, tmp_path, capsys, flag,
                                         name):
        # the horizon is min(--t1, t_end): a t1 of 0 that the stored t_end
        # set names the t_end, not a flag the user may never have given
        cfg = write_cfg(tmp_path,
                        "scenario = gaussian-bump\nn_cells = 40\nt_end = 0\n")
        run_dir = tmp_path / "zrun"
        assert main(["solve", "--config", cfg, "--out-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["verify", str(run_dir), "--picard", *flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {name}: need 0 < t1 < inf, got t1 = 0.0\n"

    @pytest.mark.parametrize("monitors", ["all", "positivity,mass"])
    def test_stored_density_below_zero_is_reported(self, tmp_path, capsys,
                                                   monitors):
        # the entropy sweep reads a record's density through the floor the
        # monitor columns use, so a density below zero, which the pressure
        # rejects, is reported as a mismatch with or without it
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 100\nt_end = 0.5\n"
            f"cadence = 5\nmonitors = {monitors}\n"))
        run_dir = tmp_path / "run"
        main(["solve", "--config", cfg, "--out-dir", str(run_dir)])
        snaps = json.loads((run_dir / "report.json").read_text())["snapshots"]
        path = run_dir / snaps[2]
        lines = path.read_text().splitlines(True)
        # cell 50 of the third record, below its four header lines
        lines[54] = f"-0.5 {lines[54].split()[1]}\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("monitors.csv: MISMATCH under recomputation, "
                              "line 4 (row 3), column mass: ")

    @pytest.mark.parametrize("header", ["{}.5", "nan", "1e400", "1e19"],
                             ids=["fractional", "nan", "overflow",
                                  "beyond-int64"])
    def test_snapshot_step_that_is_no_step_count_exits_2(self, run_dir,
                                                         capsys, header):
        # a snapshot's step is a whole count: one with a fraction would
        # round to the stored count and verify byte-identical, and a nan or
        # an infinity would end in a traceback
        snap = json.loads((run_dir / "report.json").read_text())[
            "snapshots"][1]
        path = run_dir / snap
        lines = path.read_text().splitlines(True)
        step = int(lines[0].split("=")[1])
        bad = header.format(step)
        lines[0] = f"# step = {bad}\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(run_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}: need a whole step count, got "
                       f"step = {float(bad)!r}\n")

    def test_stored_profile_with_a_nan_exits_2(self, run_dir, capsys):
        # the stored device passes the gate every device profile passes
        path = run_dir / "profile.dat"
        lines = path.read_text().splitlines(True)
        x, a, _ = lines[10].split()
        lines[10] = f"{x} {a} nan\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(run_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: profile b must be finite, got nan\n"

    def test_outflow_data_at_the_edges_exit_2_before_the_audit(
            self, tmp_path, capsys, monkeypatch):
        # outflow charge-neutral-rest is a rest state of the march, but its
        # density stands 0.5 above the floor at the edges, beyond which the
        # Picard slab takes vacuum: verify --picard refuses it unaudited
        def no_audit(*args, **kwargs):
            raise AssertionError("audited a run it cannot cross-check")

        cfg = write_cfg(tmp_path, "scenario = charge-neutral-rest\n"
                                  "n_cells = 40\nt_end = 0.05\n")
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(run_dir)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("semiflux.cli.audited_texts", no_audit)
        assert main(["verify", str(run_dir), "--picard"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the Picard slab takes vacuum beyond ")
        assert err.endswith("; got 0.5 at an edge cell\n")

    def test_legacy_flux_scheme_echo_still_verifies(self, run_dir):
        # run directories written while the config echo carried a flux
        # scheme name must keep verifying
        p = run_dir / "report.json"
        payload = json.loads(p.read_text())
        payload["config"]["flux_scheme"] = "llf"
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert main(["verify", str(run_dir), "--picard", "--t1", "0.01"]) == 0

    @pytest.mark.parametrize("key", ["monitors", "seed"])
    def test_echo_without_audit_key_exits_2(self, run_dir, capsys, key):
        # the audit reads what to check from the stored echo alone: a run
        # whose echo lacks the monitors or the seed is unreadable input
        p = run_dir / "report.json"
        payload = json.loads(p.read_text())
        del payload["config"][key]
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        assert main(["verify", str(run_dir)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_missing_run_dir(self, tmp_path):
        assert main(["verify", str(tmp_path / "ghost")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("boundary", "sideways"), ("pressure_convention", "sideways"),
        ("source_variant", "sideways"), ("epsilon", "abc"),
        ("n_cells", "many"), ("seed", "abc"), ("seed", None),
        ("monitors", 7), ("monitors", None),
        ("seed", 3.9), ("seed", True), ("n_cells", 500.5),
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
        assert err.startswith("error: ") and repr(key) in err
        assert repr(value) in err


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
        assert "ratios" not in payload
        ratios = [float(row.split(",")[2]) for row in csv[2:]]
        assert ratios and all(r < 1.0 for r in ratios)
        assert payload["endpoint_gap"] <= payload["endpoint_tolerance"]
        assert "suggestion" not in text

    def test_diverged_slab_suggests_half_of_t1(self, tmp_path, capsys):
        # the suggestion is read off `diverged` and `t1`, and not stored
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 40\nepsilon = 0.01\n"
            "t1 = 8\nn_intervals = 6\nmax_iters = 12\nrefine = 1\n"))
        out = tmp_path / "pic"
        assert main(["picard", "--config", cfg, "--out-dir", str(out)]) == 1
        text = capsys.readouterr().out
        assert "  suggestion: retry with t1 = 4\n" in text
        # the verdict is printed, as verify --picard prints it
        verdict = text.splitlines()[-2]
        assert verdict.startswith("fixed-point cross-check at t=8: gap=")
        assert verdict.endswith(" DISAGREES")
        payload = json.loads((out / "picard_report.json").read_text())
        assert payload["diverged"] is True and payload["t1"] == 8.0

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
            "distances", "converged", "diverged", "band_violations",
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

    def test_outflow_data_at_the_edges_exit_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch):
        # outflow charge-neutral-rest is a rest state of the march, but its
        # density stands 0.5 above the floor at the edges, beyond which the
        # slab takes vacuum: the two would solve different problems
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a slab it cannot cross-check")

        monkeypatch.setattr("semiflux.cli.picard_solve", no_solve)
        cfg = write_cfg(tmp_path, "scenario = charge-neutral-rest\n")
        out = tmp_path / "pic"
        assert main(["picard", "--config", cfg, "--out-dir", str(out)]) == 2
        text, err = capsys.readouterr()
        assert text == ""
        assert err == (
            "error: the Picard slab takes vacuum beyond an outflow grid's "
            "edges, so its initial |rho0 - 2 delta| and |m0| must vanish "
            "there (at most 1e-12 of their sup 0.5); got 0.5 at an edge "
            "cell\n")
        assert not out.exists()

    def test_periodic_rest_state_agrees_exactly(self, tmp_path, capsys):
        # a periodic slab has no edges: the rest state is its fixed point
        cfg = write_cfg(tmp_path, "scenario = charge-neutral-rest\n"
                                  "n_cells = 40\nboundary = periodic\n")
        out = tmp_path / "pic"
        assert main(["picard", "--config", cfg, "--out-dir", str(out)]) == 0
        verdict = capsys.readouterr().out.splitlines()[-2]
        assert verdict.startswith(
            "fixed-point cross-check at t=0.01: gap=0.000e+00 tolerance=")
        assert verdict.endswith(" agrees")

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 60\nepsilon = 0.01\n"
            "t1 = 0.01\nn_intervals = 4\n"))
        texts = []
        for d in ("a", "b"):
            assert main(["picard", "--config", cfg,
                         "--out-dir", str(tmp_path / d)]) == 0
            texts.append([(tmp_path / d / f).read_bytes() for f in
                          ("contraction.csv", "picard_report.json")])
        assert texts[0] == texts[1]

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

    def test_manifest_echoes_scenario_grid_and_cfl(self, tmp_path):
        # the manifest names every setting its table depends on but the
        # per-rung ones, which relax_table.csv holds; a cfl the config
        # changes shows in it
        base = ("scenario = gaussian-bump\nx_min = -4\nx_max = 4\n"
                "n_cells = 40\ntau_list = 0.2 0.1 0.05\n")
        manifests = []
        for cfl in (0.45, 0.3):
            cfg = write_cfg(tmp_path, base + f"cfl = {cfl}\n",
                            name=f"relax-{cfl}.cfg")
            out = tmp_path / f"relax-{cfl}"
            assert main(["relax", "--config", cfg, "--out-dir", str(out)]) \
                in (0, 1)
            manifests.append(json.loads((out / "manifest.json").read_text()))
        for manifest, cfl in zip(manifests, (0.45, 0.3)):
            assert {k: manifest[k] for k in (
                "scenario", "x_min", "x_max", "n_cells", "boundary", "gamma",
                "pressure_convention", "cfl", "smoothing_width")} == {
                "scenario": "gaussian-bump", "x_min": -4.0, "x_max": 4.0,
                "n_cells": 40, "boundary": "outflow", "gamma": 2.0,
                "pressure_convention": "one-over-gamma", "cfl": cfl,
                "smoothing_width": 0.1}
            assert not {"delta", "epsilon", "tau", "t_end", "source_variant",
                        "grid"} & set(manifest)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nx_min = -4\nx_max = 4\n"
            "n_cells = 40\ntau_list = 0.2 0.1 0.05\nhorizon = 0.05\n"))
        results = []
        for d in ("a", "b"):
            rc = main(["relax", "--config", cfg, "--out-dir", str(tmp_path / d)])
            results.append((rc, [(tmp_path / d / f).read_bytes() for f in
                                 ("relax_table.csv", "manifest.json")]))
        assert results[0][0] in (0, 1)
        assert results[0] == results[1]

    def test_manifest_names_every_scenario_key(self, tmp_path):
        # two runs that differ only in damping write different tables, so
        # their manifests must differ too; every scenario key relax reads
        # is echoed with the value the study ran with
        base = ("scenario = gaussian-bump\nx_min = -4\nx_max = 4\n"
                "n_cells = 60\ntau_list = 0.2 0.1 0.05\nhorizon = 0.05\n")
        outs = []
        for damping in (1.0, 2.0):
            cfg = write_cfg(tmp_path, base + f"damping = {damping}\n",
                            name=f"relax-{damping}.cfg")
            out = tmp_path / f"relax-{damping}"
            assert main(["relax", "--config", cfg, "--out-dir", str(out)]) \
                in (0, 1)
            outs.append(out)
        tables = [(o / "relax_table.csv").read_bytes() for o in outs]
        manifests = [(o / "manifest.json").read_bytes() for o in outs]
        assert tables[0] != tables[1]
        assert manifests[0] != manifests[1]
        manifest = json.loads(manifests[1])
        assert {k for k in RELAX_KEYS if k in SCENARIO_KEYS} <= set(manifest)
        assert {k: manifest[k] for k in (
            "bump_amplitude", "bump_center", "bump_width", "bump_speed",
            "damping", "neutral_level", "e_minus")} == {
            "bump_amplitude": 0.8, "bump_center": 0.0, "bump_width": 0.5,
            "bump_speed": 0.0, "damping": 2.0, "neutral_level": 0.0,
            "e_minus": 0.0}

    def test_reference_that_cannot_march_exits_2(self, tmp_path, capsys):
        # doping-ramp's initial density sits on the floor in the far field,
        # where the field drains mass from empty cells for every step
        cfg = write_cfg(tmp_path, ("scenario = doping-ramp\nn_cells = 200\n"
                                   "tau_list = 0.2 0.1 0.05\n"))
        out = tmp_path / "relax"
        assert main(["relax", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "drift-diffusion reference" in err and "at s = 0.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", ["eps_coeff = 0.1", "eps_power = 2",
                                       "eps_coeff = 0.1\neps_power = 2"])
    def test_eps_fixed_with_the_coupling_keys_exits_2(self, tmp_path, capsys,
                                                      extra):
        # eps_fixed replaces the coupling's eps_coeff and eps_power: a
        # config setting both would silently run without the latter
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 100\n"
            "tau_list = 0.2 0.1 0.05\neps_fixed = 0.5\n" + extra + "\n"))
        out = tmp_path / "relax"
        assert main(["relax", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eps_fixed replaces ")
        for key in ("eps_coeff", "eps_power"):
            assert (key in err) == (key in extra)
        assert not out.exists()

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


class TestFailurePaths:
    """A failure is raised where it happens and becomes one `error:` line
    and an exit code in `cli.main` alone; injected, but for the one
    overflowing march, which stops on its step's own finiteness test with
    no numpy warning (the suite's RuntimeWarning filter would raise it)."""

    def test_overflowing_march_stops_without_warnings(self, tmp_path,
                                                      capsys):
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\nn_cells = 200\n"
                                  "t_end = 0.5\nbump_speed = 1e200\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert "  integration stopped early at t=0\n" in stdout
        assert err == ""

    def test_overflowing_picard_prints_only_its_error_line(self, tmp_path,
                                                           capsys):
        # the first sweep overflows and is listed inadmissible, with no
        # numpy warning; the cross-check march then stops at its first step
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\nn_cells = 200\n"
                                  "bump_speed = 1e200\n")
        out = tmp_path / "picard"
        assert main(["picard", "--config", cfg, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: the Picard cross-check march to t1 stopped "
                       "at t = 0.0, before 0.01\n")

    @pytest.fixture()
    def failing_step(self, monkeypatch):
        def fail(*args, **kwargs):
            raise IntegrationError("injected")

        return lambda: monkeypatch.setattr("semiflux.solver.step", fail)

    @pytest.mark.parametrize("command,body,march", [
        ("relax", "n_cells = 40\ntau_list = 0.2 0.1 0.05\nhorizon = 0.05\n",
         "the tau = 0.2 rung"),
        ("picard", "n_cells = 40\nepsilon = 0.01\nn_intervals = 4\n"
                   "refine = 1\n", "the Picard cross-check march to t1")],
        ids=["relax", "picard"])
    def test_march_that_stops_early_exits_1(self, tmp_path, capsys,
                                            failing_step, command, body,
                                            march):
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\n" + body)
        out = tmp_path / command
        failing_step()
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert err.startswith(f"error: {march} stopped at t = 0.0, before ")
        assert err.count("\n") == 1 and "Traceback" not in stdout + err
        assert not out.exists()

    def test_verify_picard_march_that_stops_early_exits_1(
            self, tmp_path, capsys, failing_step):
        cfg = write_cfg(tmp_path, BUMP_CFG)
        run_dir = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out-dir", str(run_dir)]) == 0
        capsys.readouterr()
        failing_step()
        assert main(["verify", str(run_dir), "--picard"]) == 1
        stdout, err = capsys.readouterr()
        # the audit has run and agreed; the cross-check's march stopped
        assert stdout.count("byte-identical under recomputation") == 3
        assert err == ("error: the Picard cross-check march to t1 stopped "
                       "at t = 0.0, before 0.01\n")

    def test_reference_positivity_failure_exits_2(self, tmp_path, capsys,
                                                  monkeypatch):
        def fail(*args, **kwargs):
            raise PositivityError(
                "drift-diffusion density stayed negative after 40 dt "
                "halvings")

        monkeypatch.setattr("semiflux.relaxation.drift_diffusion_step", fail)
        message = ("the drift-diffusion reference cannot march this device: "
                   "drift-diffusion density stayed negative after 40 dt "
                   "halvings at s = 0.0")
        # a library caller keeps the error's type: it is no usage error
        with pytest.raises(PositivityError) as info:
            relaxation_study(make_setup("gaussian-bump", {"n_cells": 40}),
                             [0.2, 0.1, 0.05])
        assert str(info.value) == message
        assert not isinstance(info.value, ConfigurationError)
        cfg = write_cfg(tmp_path, "scenario = gaussian-bump\nn_cells = 40\n"
                                  "tau_list = 0.2 0.1 0.05\n")
        out = tmp_path / "relax"
        assert main(["relax", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    def test_benchmark_trace_targets_resolve(self):
        # perfbench traces these functions by name and lists a missing one
        # as absent, leaving its span empty; read without importing
        # child.py, whose import starts its speed meter
        child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
        tree = ast.parse(child.read_text())
        targets = next(node.value for node in tree.body
                       if isinstance(node, ast.Assign)
                       and [ast.unparse(t) for t in node.targets]
                       == ["TARGETS"])
        pairs = [(e.elts[0].value, e.elts[1].value) for e in targets.elts]
        missing = {f"{m}.{f}" for m, f in pairs
                   if not callable(getattr(importlib.import_module(m), f,
                                           None))}
        assert len(pairs) > 10
        assert missing <= {"semiflux.scenarios.make_arrays",
                           "semiflux.solver.stable_dt",
                           "semiflux.relaxation.rescale"}

    def test_benchmark_references_hold(self, tmp_path, monkeypatch):
        # the benchmark gates every pass on perfbench/references.json: run
        # the march-sparse and picard-slab commands through main and gate
        # them with the benchmark's own reader and tolerance, so a change
        # that moves a gated value fails here first
        harness, refs = benchmark_harness(monkeypatch)
        for workload in ("march-sparse", "picard-slab"):
            cfg = str(BENCH / "workloads" / f"{workload}.cfg")
            argv = harness.WORKLOADS[workload](cfg, tmp_path / workload, 1)[0]
            code, values = main(argv), {}
            run_dir = Path(argv[argv.index("--out-dir") + 1])
            assert harness.read_verdicts(argv[0], run_dir, {"code": code},
                                         {}, values) == []
            assert code in (0, 1) and refs[workload]
            assert harness.reference_errors(workload, values, refs) == []

    # relax-ladder's (dissipation, l1_net) per tau, as relax_table.csv
    # stores them; references.json holds no relax-ladder values, so this
    # guard gates them with its tolerance
    RELAX_LADDER = {0.2: (0.070791000976598073, 0.016391227025005322),
                    0.1: (0.101452789135785, 0.0028161972645405898),
                    0.05: (0.098530276370248318, 0.0024795242498753408)}

    def test_relax_ladder_values_hold(self, tmp_path, monkeypatch):
        # each rung's tau, delta = tau and eps = 0.1 sqrt(P'(2 delta)) tau^2
        # (gamma = 2) exactly, the two measured columns within the
        # benchmark's tolerance, and the ladder monotone
        harness, refs = benchmark_harness(monkeypatch)
        cfg = str(BENCH / "workloads" / "relax-ladder.cfg")
        argv = harness.WORKLOADS["relax-ladder"](cfg, tmp_path, 1)[0]
        assert main(argv) == 0
        out = Path(argv[argv.index("--out-dir") + 1])
        lines = (out / "relax_table.csv").read_text().splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert [r[0] for r in rows] == list(self.RELAX_LADDER)
        for tau, eps, delta, _, dissipation, l1_net in rows:
            assert delta == tau
            assert eps == 0.1 * math.sqrt(2.0 * tau) * tau ** 2
            for got, want in zip((dissipation, l1_net),
                                 self.RELAX_LADDER[tau]):
                assert harness.close_enough(got, want, refs["tolerance"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monotone"] is True

    # the library calls each command's config keys feed, beyond the
    # scenario keys `make_setup` casts, and the keys a command reads itself
    FEEDS = {"SOLVE_KEYS": (run,), "PICARD_KEYS": (picard_solve,),
             "RELAX_KEYS": (relaxation_study, CouplingRule)}
    COMMAND_ONLY = {"scenario", "refine", "seed", "monitors"}

    def test_every_key_reaches_the_library_under_its_name(self):
        # each setting has one spelling: a key is a parameter of the call
        # it feeds, under its own name, a table key an override that
        # make_setup casts, or a key the command reads itself
        for table, calls in self.FEEDS.items():
            params = {name for call in calls
                      for name in inspect.signature(call).parameters}
            keys = set(getattr(config, table)) - set(SCENARIO_KEYS)
            assert keys - params - self.COMMAND_ONLY - set(TABLE_KEYS) \
                == set(), table
        assert list(inspect.signature(make_setup).parameters) == [
            "name", "overrides"]
        for key in TABLE_KEYS:
            with pytest.raises(ConfigurationError, match=(
                    f"^bad value for '{key}': 1.0 \\(not a string\\)$")):
                make_setup("gaussian-bump", {key: 1.0})

    def test_cli_reads_one_config_and_writes_no_file(self):
        # one preamble reads every command's config, and every file a
        # command writes goes through reporting.write_texts
        cli = Path(semiflux.__file__).resolve().parent / "cli.py"
        calls = [ast.unparse(node.func).split(".")[-1]
                 for node in ast.walk(ast.parse(cli.read_text()))
                 if isinstance(node, ast.Call)]
        assert calls.count("parse_key_value") == 1
        assert not {"write_text", "write_bytes", "mkdir", "open"} & set(calls)

    def test_one_audit_call_site(self):
        # solve and verify audit a run through reporting.audited_texts, the
        # only caller of the monitor entry points outside monitors.py
        src = Path(semiflux.__file__).resolve().parent
        entry = {"evaluate_trajectory", "entropy_spot_check"}
        callers = {(path.name, fn.name)
                   for path in sorted(src.glob("*.py"))
                   if path.name != "monitors.py"
                   for fn in ast.walk(ast.parse(path.read_text()))
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and ast.unparse(node.func).split(".")[-1] in entry}
        assert callers == {("reporting.py", "audited_texts")}

    def test_one_failure_path(self):
        # a march that stops early is caught only where it is recorded
        # (solver.run) and where it becomes an exit code (cli.main); the
        # reference's PositivityError is re-raised only by the reference's
        # run; no handler returns None for a failure; and no function of
        # cli.py but main maps an error, or a failed check, to an exit code
        src = Path(semiflux.__file__).resolve().parent
        handlers = [(path.name, fn.name, node)
                    for path in sorted(src.glob("*.py"))
                    for fn in ast.walk(ast.parse(path.read_text()))
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ExceptHandler)]

        def catching(name):  # a bare except catches every name
            return {(f, fn) for f, fn, node in handlers
                    if node.type is None
                    or name in {ast.unparse(t).split(".")[-1] for t in
                                getattr(node.type, "elts", [node.type])}}

        assert catching("IntegrationError") == {("solver.py", "run"),
                                                ("cli.py", "main")}
        assert catching("PositivityError") == {
            ("relaxation.py", "drift_diffusion_run"), ("cli.py", "main")}
        assert not [(f, fn) for f, fn, node in handlers
                    for ret in ast.walk(node)
                    if isinstance(ret, ast.Return)
                    and (ret.value is None
                         or ast.unparse(ret.value) == "None")]
        assert {(f, fn) for f, fn, _ in handlers if f == "cli.py"} == {
            ("cli.py", "main")}
        cli = ast.parse((src / "cli.py").read_text())
        assert {fn.name for fn in ast.walk(cli)
                if isinstance(fn, ast.FunctionDef)
                for ret in ast.walk(fn)
                if isinstance(ret, ast.Return) and ret.value is not None
                and "CHECK_FAILED" in ast.unparse(ret.value)} == {"main"}

    def test_tier1_leaves_no_benchmark_directory(self, pytestconfig):
        # the pytest-benchmark plugin, where installed, creates .benchmarks/
        # in the checkout on every run; no test uses its fixture
        assert pytestconfig.pluginmanager.is_blocked("benchmark")

    def test_one_violation_record(self):
        # every violations.json entry is built by monitors.Check.entry: no
        # other dict literal in the package has a "monitor" key
        src = Path(semiflux.__file__).resolve().parent
        builders = {(path.name, fn.name)
                    for path in sorted(src.glob("*.py"))
                    for fn in ast.walk(ast.parse(path.read_text()))
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Dict)
                    and any(isinstance(k, ast.Constant)
                            and k.value == "monitor" for k in node.keys)}
        assert builders == {("monitors.py", "entry")}

    def test_monitor_table_is_read_by_name(self, bump_traj):
        # the monitor table is one dict of named columns: no module looks a
        # name up in MONITOR_COLUMNS or indexes the columns by a number, and
        # the report's columns and the monitors.csv header are
        # MONITOR_COLUMNS in order
        src = Path(semiflux.__file__).resolve().parent
        table = {"MONITOR_COLUMNS", "columns", "col"}
        positional = [
            (path.name, ast.unparse(node))
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "index"
            and ast.unparse(node.func.value).split(".")[-1] in table
            or isinstance(node, ast.Subscript)
            and ast.unparse(node.value).split(".")[-1] in table
            and any(isinstance(c, ast.Constant) and type(c.value) is int
                    for c in ast.walk(node.slice))]
        assert positional == []
        report, texts = audited_texts(bump_traj, {"monitors": "all",
                                                  "seed": 0})
        assert list(report.columns) == list(MONITOR_COLUMNS)
        assert texts["monitors.csv"].splitlines()[0] \
            == ",".join(MONITOR_COLUMNS)

    def test_one_rung_loop_and_no_point_sampling(self):
        # marches are compared through solver.march_rungs, by exact cell
        # averages: solver.run is called by solve and the rung loop alone,
        # and np.interp reads only a profile table
        src = Path(semiflux.__file__).resolve().parent

        def callers(name):
            return {(path.name, fn.name)
                    for path in sorted(src.glob("*.py"))
                    for fn in ast.walk(ast.parse(path.read_text()))
                    if isinstance(fn, ast.FunctionDef)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == name}

        assert callers("run") == {("cli.py", "cmd_solve"),
                                  ("solver.py", "march_rungs")}
        assert callers("interp") == {("scenarios.py", "interp_profile")}

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
        # scipy.optimize: about half a second of import on every command;
        # scipy.fft alone costs about 0.3 s
        src = str(Path(semiflux.__file__).resolve().parents[1])
        heavy = ("scipy.integrate", "scipy.sparse", "scipy.optimize",
                 "scipy.linalg", "scipy.fft")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, semiflux.cli; "
             f"print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_picard_leaves_scipy_special_unloaded(self, tmp_path):
        # scipy.special costs about 0.25 s of import; the heat kernel's CDF
        # is math.erfc, so not even the command that evaluates it loads it
        src = str(Path(semiflux.__file__).resolve().parents[1])
        cfg = write_cfg(tmp_path, (
            "scenario = gaussian-bump\nn_cells = 40\nepsilon = 0.01\n"
            "t1 = 0.01\nn_intervals = 2\n"))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, semiflux.cli; "
             "loaded = 'scipy.special' in sys.modules; "
             "rc = semiflux.cli.main(['picard', '--config', sys.argv[1], "
             "'--out-dir', sys.argv[2]]); "
             "print(rc, loaded, 'scipy.special' in sys.modules)",
             cfg, str(tmp_path / "pic")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False False"
