"""The run store: stored tables read back bit-exactly, and a table laid out
otherwise than the writer writes it, or that does not describe the run's
grid, is rejected as unreadable."""

import json

import numpy as np
import pytest

from semiflux import solver
from semiflux.cli import main
from semiflux.monitors import MONITOR_COLUMNS
from semiflux.reporting import (_table_text, audited_texts, csv_text,
                                load_run_dir, write_run_dir)
from semiflux.scenarios import make_setup
from semiflux.solver import run

from helpers import (NEUTRAL_PERIODIC, csv_text_reference, fmt,
                     table_text_reference)

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
    setup = make_setup("charge-neutral-rest", {
        **NEUTRAL_PERIODIC, "n_cells": 120, "t_end": 0.3,
        "source_variant": "excess-density"})
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, cadence=2)
    _, texts = audited_texts(traj, {"monitors": "all", "seed": 0})
    write_run_dir(tmp_path, traj, texts)
    payload, back = load_run_dir(tmp_path)
    profile, cfg = back.profile, back.cfg
    assert cfg == setup.cfg
    assert len(back.times) == len(traj.times) > 2
    for name in ("steps", "times", "rho", "mom", "min_rho"):
        assert np.array_equal(getattr(back, name), getattr(traj, name))
        assert getattr(back, name).dtype == getattr(traj, name).dtype
    assert (back.n_steps, back.completed) == (traj.n_steps, True)
    # every audited file re-renders from the records and echo read back
    assert audited_texts(back, payload["config"])[1] == texts
    assert profile.e_minus == setup.profile.e_minus
    for name in ("a_vals", "b_vals", "c_vals"):
        assert np.array_equal(getattr(profile, name),
                              getattr(setup.profile, name))
    assert profile.check == setup.profile.check


def test_snapshot_stores_no_derived_columns(small_run):
    # E is recomputed from rho on load, like u and the Riemann invariants;
    # x is the grid of report.json, stored once in profile.dat
    head, rows = read_rows(later_snapshot(small_run))
    assert head[-1] == "# columns: rho m"
    assert [ln.split(" = ")[0] for ln in head[:-1]] == [
        "# step", "# time", "# min_rho"]
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


def rejected(run_dir, path, capsys):
    assert main(["verify", str(run_dir)]) == 2
    return path.name in capsys.readouterr().err


def test_snapshot_without_min_rho_rejected(small_run, capsys):
    # run directories written before snapshots stored min_rho
    path = later_snapshot(small_run)
    head, rows = read_rows(path)
    write_rows(path, [h for h in head if not h.startswith("# min_rho")], rows)
    assert main(["verify", str(small_run)]) == 2
    err = capsys.readouterr().err
    assert path.name in err and "min_rho" in err


def test_edited_min_rho_header_detected(small_run, capsys):
    # the run's lowest density is stored per record; report.json's
    # min_rho_ever is re-derived from those headers
    path = later_snapshot(small_run)
    head, rows = read_rows(path)
    stored = json.loads((small_run / "report.json").read_text())[
        "summary"]["min_rho_ever"]
    head = [f"# min_rho = {fmt(stored / 2)}" if h.startswith("# min_rho")
            else h for h in head]
    write_rows(path, head, rows)
    assert main(["verify", str(small_run)]) == 1
    out = capsys.readouterr().out
    assert "report.json: MISMATCH under recomputation, line " in out
    old, new = (repr(f'    "min_rho_ever": {v!r},\n')
                for v in (stored, stored / 2))
    assert f"stored {old}, recomputed {new}" in out
    assert out.count("byte-identical under recomputation") == 2


def test_early_stop_round_trip(tmp_path, monkeypatch):
    # a march cut by MAX_STEPS records its last state; its report.json
    # re-renders byte for byte from the records read back
    setup = make_setup("gaussian-bump", {"n_cells": 100, "t_end": 0.3})
    monkeypatch.setattr(solver, "MAX_STEPS", 3)
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid)
    _, texts = audited_texts(traj, {"monitors": "all", "seed": 0})
    write_run_dir(tmp_path, traj, texts)
    stored = (tmp_path / "report.json").read_text()
    summary = json.loads(stored)["summary"]
    assert (summary["completed"], summary["n_steps"]) == (False, 3)
    payload, back = load_run_dir(tmp_path)
    assert back.steps.tolist() == [0, 3] and not back.completed
    assert audited_texts(back, payload["config"])[1]["report.json"] == stored


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


@pytest.mark.parametrize("table", ["snapshot", "profile"])
@pytest.mark.parametrize("extra", ["column", "header-key"])
def test_extra_column_or_header_key_rejected(small_run, capsys, table,
                                             extra):
    # the reader accepts only the layout the writer writes; an older
    # layout's derived column (x in a snapshot, c in the profile) or extra
    # header key is unreadable input, even where its values are right
    _, traj = load_run_dir(small_run)
    path, name, vals = (
        (later_snapshot(small_run), "x", traj.grid.centers)
        if table == "snapshot"
        else (small_run / "profile.dat", "c", traj.profile.c_vals))
    head, rows = read_rows(path)
    if extra == "column":
        head[-1] += f" {name}"
        rows = [r + [fmt(v)] for r, v in zip(rows, vals)]
    else:
        head.insert(-1, f"# gamma = {fmt(traj.model.gamma)}")
    write_rows(path, head, rows)
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


def test_csv_cells_are_str_for_ints_and_fmt_for_floats():
    # the layout of monitors.csv (int step), contraction.csv (int
    # iteration, nan ratio at iteration 0) and relax_table.csv (floats)
    rows = [(0, 0.1, float("nan")), (12, 2.0 ** 60, -0.0), (3, 5e-324, 1.0)]
    assert csv_text(("i", "x", "y"), rows) == (
        "i,x,y\n0,0.10000000000000001,nan\n12,1.152921504606847e+18,-0\n"
        "3,4.9406564584124654e-324,1\n")


class TestCsvTextMatchesReference:
    """The one-pass CSV body is byte-identical to one `fmt` call per value
    (the writer kept in tests/helpers.py)."""

    def test_monitor_rows(self, bump_report):
        rows = list(zip(*(bump_report.columns[name].tolist()
                          for name in MONITOR_COLUMNS)))
        assert len(rows) > 1
        assert csv_text(MONITOR_COLUMNS, rows) == \
            csv_text_reference(MONITOR_COLUMNS, rows)

    def test_edge_values(self):
        rows = [(0, float("nan"), -0.0), (7, float("inf"), -float("inf")),
                (np.int64(12), np.float64(0.1), 2 ** 53),
                (-3, 5e-324, np.nextafter(1.0, 2.0))]
        assert csv_text(("i", "d", "r"), rows) == \
            csv_text_reference(("i", "d", "r"), rows)

    def test_no_rows_is_the_header_alone(self):
        assert csv_text(("i", "d", "r"), []) == "i,d,r\n"
        assert csv_text(("i", "d", "r"), iter([])) == \
            csv_text_reference(("i", "d", "r"), [])
