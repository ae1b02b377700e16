"""The run store: stored tables read back bit-exactly, by column name, and
anything that does not describe the run's grid is rejected as unreadable."""

import json

import numpy as np
import pytest

from semiflux.cli import main
from semiflux.field import solve_field
from semiflux.monitors import MonitorSuite, evaluate_trajectory
from semiflux.reporting import _table_text, fmt, load_run_dir, write_run_dir
from semiflux.scenarios import make_setup
from semiflux.solver import run

from helpers import table_text_reference

SMALL_CFG = """
scenario = gaussian-bump
n_cells = 100
t_end = 0.3
cadence = 2
monitors = positivity,mass,field,riemann
"""


def read_rows(path):
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split() for ln in lines if not ln.startswith("#")]
    return head, rows


def write_rows(path, head, rows):
    path.write_text("\n".join(head + [" ".join(r) for r in rows]) + "\n")


@pytest.fixture()
def small_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return out


def later_snapshot(run_dir):
    return sorted((run_dir / "snapshots").iterdir())[1]


def test_round_trip_is_bit_exact(tmp_path):
    setup = make_setup("gaussian-bump", {
        "n_cells": 120, "t_end": 0.3, "boundary": "periodic",
        "source_variant": "excess-density"})
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, record_every=2)
    report = evaluate_trajectory(traj, setup.profile, MonitorSuite())
    grid, model = setup.grid, setup.model
    echo = {"x_min": grid.x_min, "x_max": grid.x_max,
            "n_cells": grid.n_cells, "boundary": grid.boundary.value,
            "gamma": model.gamma, "delta": model.delta,
            "pressure_convention": model.convention.value,
            "epsilon": setup.cfg.epsilon, "tau": setup.cfg.tau,
            "cfl": setup.cfg.cfl, "t_end": setup.cfg.t_end,
            "source_variant": setup.cfg.source_variant.value,
            "smoothing_width": setup.cfg.smoothing_width}
    write_run_dir(tmp_path, traj, setup.profile, report, echo)
    _, back, profile, cfg = load_run_dir(tmp_path)
    assert cfg == setup.cfg
    assert len(back.times) == len(traj.times) > 2
    for name in ("steps", "times", "rho", "mom"):
        assert np.array_equal(getattr(back, name), getattr(traj, name))
        assert getattr(back, name).dtype == getattr(traj, name).dtype
    assert (back.n_steps, back.min_rho_ever) == (traj.n_steps,
                                                 traj.min_rho_ever)
    assert profile.e_minus == setup.profile.e_minus
    for name in ("a_vals", "b_vals", "c_vals"):
        assert np.array_equal(getattr(profile, name),
                              getattr(setup.profile, name))
    assert profile.uniform_ok == setup.profile.uniform_ok


def test_snapshot_stores_no_derived_columns(small_run):
    # E is recomputed from rho on load, like u and the Riemann invariants;
    # x is the grid of report.json, stored once in profile.dat
    head, rows = read_rows(later_snapshot(small_run))
    assert head[-1] == "# columns: rho m"
    assert [ln.split(" = ")[0] for ln in head[:-1]] == ["# step", "# time"]
    assert {len(r) for r in rows} == {2}
    head, _ = read_rows(small_run / "profile.dat")
    assert head[-1] == "# columns: x a b"


def test_scaled_stored_density_detected(small_run, capsys):
    path = later_snapshot(small_run)
    head, rows = read_rows(path)
    rows[50][0] = fmt(float(rows[50][0]) * 1.01)
    write_rows(path, head, rows)
    assert main(["verify", str(small_run)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_legacy_layout_still_verifies(small_run):
    # run directories written with the derived columns u, z, w (snapshots)
    # and c (profile) must keep verifying
    _, traj, profile, _ = load_run_dir(small_run)
    model, x = traj.model, traj.grid.centers
    e_all = solve_field(traj.rho - model.rho_floor, profile, traj.grid)
    for step, t, rho, mom, e_vals in zip(traj.steps, traj.times, traj.rho,
                                         traj.mom, e_all):
        z, w = model.riemann_invariants(rho, mom)
        cols = [x, rho, mom / rho, mom, e_vals, z, w]
        head = [f"# step = {step}", f"# time = {fmt(t)}",
                f"# gamma = {fmt(model.gamma)}",
                f"# delta = {fmt(model.delta)}",
                f"# pressure_convention = {model.convention.value}",
                "# columns: x rho u m E z w"]
        write_rows(small_run / "snapshots" / f"snap_{step:08d}.dat",
                   head, [[fmt(v) for v in row] for row in zip(*cols)])
    cols = [x, profile.a_vals, profile.b_vals, profile.c_vals]
    write_rows(small_run / "profile.dat",
               [f"# e_minus = {fmt(profile.e_minus)}",
                f"# uniform_ok = {profile.uniform_ok}", "# columns: x a b c"],
               [[fmt(v) for v in row] for row in zip(*cols)])
    _, rows = read_rows(later_snapshot(small_run))
    assert len(rows[0]) == 7
    assert main(["verify", str(small_run), "--picard", "--t1", "0.01"]) == 0


def rejected(run_dir, path, capsys):
    assert main(["verify", str(run_dir)]) == 2
    return path.name in capsys.readouterr().err


def test_missing_column_rejected(small_run, capsys):
    path = later_snapshot(small_run)
    head, rows = read_rows(path)
    head[-1] = "# columns: rho"
    write_rows(path, head, [r[:1] for r in rows])
    assert rejected(small_run, path, capsys)


def test_truncated_snapshot_rejected(small_run, capsys):
    path = later_snapshot(small_run)
    head, rows = read_rows(path)
    write_rows(path, head, rows[:44])
    assert rejected(small_run, path, capsys)


def test_shifted_grid_rejected(small_run, capsys):
    path = small_run / "profile.dat"
    head, rows = read_rows(path)
    for r in rows:
        r[0] = fmt(float(r[0]) + 1e-3)
    write_rows(path, head, rows)
    assert rejected(small_run, path, capsys)


def test_shifted_x_in_an_older_snapshot_rejected(small_run, capsys):
    # snapshots no longer store x, but one that does is still checked
    path = later_snapshot(small_run)
    head, rows = read_rows(path)
    _, traj, _, _ = load_run_dir(small_run)
    head[-1] = "# columns: x rho m"
    x = traj.grid.centers + 1e-3
    write_rows(path, head, [[fmt(xi)] + r for xi, r in zip(x, rows)])
    assert rejected(small_run, path, capsys)


def test_garbled_number_rejected(small_run, capsys):
    path = later_snapshot(small_run)
    head, rows = read_rows(path)
    rows[10][1] = "abc"
    write_rows(path, head, rows)
    assert rejected(small_run, path, capsys)


def test_run_without_snapshots_rejected(small_run, capsys):
    path = small_run / "report.json"
    payload = json.loads(path.read_text())
    payload["snapshots"] = []
    path.write_text(json.dumps(payload))
    assert rejected(small_run, path, capsys)


class TestTableTextMatchesReference:
    """The one-pass table body is byte-identical to one `fmt` call per
    value (the writer kept in tests/helpers.py)."""

    def test_snapshot_and_profile(self, bump_setup, bump_traj):
        profile = bump_setup.profile
        tables = [({"step": bump_traj.steps[-1], "time": bump_traj.times[-1]},
                   {"rho": bump_traj.rho[-1], "m": bump_traj.mom[-1]}),
                  ({"e_minus": profile.e_minus},
                   {"x": bump_setup.grid.centers, "a": profile.a_vals,
                    "b": profile.b_vals})]
        for meta, cols in tables:
            assert _table_text(meta, cols) == table_text_reference(meta, cols)

    def test_edge_values(self):
        edge = np.array([-0.0, 0.0, 3.0, -12.0, 2.0 ** 60, 5e-324,
                         -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0,
                         2.0 / 3.0, np.nextafter(1.0, 2.0), np.pi * 1e-7,
                         float.fromhex("0x1.fffffffffffffp+1023")])
        cols = {"a": edge, "b": edge[::-1], "c": -edge}
        meta = {"step": 7, "time": -0.0}
        text = _table_text(meta, cols)
        assert text == table_text_reference(meta, cols)
        data = np.loadtxt(text.splitlines(), ndmin=2)
        for got, want in zip(data.T, cols.values()):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
