"""Deterministic on-disk formats for runs.

Snapshots (rho m) and the profile (x a b) are '#'-headed text tables
holding only what verify reads back: the cell centres x follow from the grid
in report.json and are stored once, in the profile, where the reader checks
them; the field E is derived data, recomputed from rho on load.  Monitor
series go to CSV, violations to JSON.  Every float is rendered with 17
significant digits so repeated runs of the same build are byte-identical;
wall-clock timing lives in its own file.
"""

from __future__ import annotations

import json
from itertools import takewhile
from pathlib import Path

import numpy as np

from .field import solve_field
from .model import (Boundary, ConfigurationError, DeviceProfile, GasModel,
                    Grid1D, PressureConvention)
from .monitors import MonitorReport
from .solver import Snapshot, Trajectory


def fmt(x) -> str:
    return format(float(x), ".17g")


def _table_text(meta: dict, columns: dict) -> str:
    lines = [f"# {key} = {fmt(val)}" for key, val in meta.items()]
    lines.append("# columns: " + " ".join(columns))
    for row in zip(*(c.tolist() for c in columns.values())):
        lines.append(" ".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _read_table(path: Path, grid: Grid1D, keys: tuple, names: tuple):
    """Read a stored table as ({key: float}, {column: values}).  Columns are
    found by name, so older layouts with extra columns still load; a table
    that does not describe the run's grid, or whose x column (where it has
    one) is not the grid's centres, is rejected."""
    with open(path) as fh:
        head = [ln[1:].replace("columns:", "columns =").partition("=")
                for ln in takewhile(lambda ln: ln.startswith("#"), fh)]
    meta = {k.strip(): v.strip() for k, _, v in head}
    header = meta.get("columns", "").split()
    missing = [k for k in keys if k not in meta]
    missing += [n for n in names if n not in header]
    if missing:
        raise ConfigurationError(f"{path}: missing {missing}")
    try:
        values = {k: float(meta[k]) for k in keys}
        data = np.loadtxt(path, ndmin=2)
    except ValueError as err:
        raise ConfigurationError(f"{path}: unreadable table ({err})") from None
    if data.shape != (grid.n_cells, len(header)):
        raise ConfigurationError(
            f"{path}: {data.shape[0]} rows of {data.shape[1]} values, "
            f"expected {grid.n_cells} rows of {len(header)}")
    cols = dict(zip(header, data.T))
    if "x" in cols and not np.array_equal(cols["x"], grid.centers):
        raise ConfigurationError(f"{path}: x column is not the run's grid")
    return values, cols


def monitors_csv_text(report: MonitorReport) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        cells = [str(int(row[0]))] + [fmt(v) for v in row[1:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_run_dir(out_dir, traj: Trajectory, profile: DeviceProfile,
                  report: MonitorReport, config_echo: dict,
                  extra_report: dict | None = None) -> Path:
    """Lay out a run directory: report.json, monitors.csv, violations.json,
    profile.dat, snapshots/."""
    out = Path(out_dir)
    (out / "snapshots").mkdir(parents=True, exist_ok=True)
    paths = []
    for snap in traj.snapshots:
        p = out / "snapshots" / f"snap_{snap.step:08d}.dat"
        p.write_text(_table_text({"step": snap.step, "time": snap.time},
                                 {"rho": snap.rho, "m": snap.mom}))
        paths.append(str(p.relative_to(out)))
    (out / "monitors.csv").write_text(monitors_csv_text(report))
    (out / "violations.json").write_text(json_text(report.violations))
    (out / "profile.dat").write_text(_table_text(
        {"e_minus": profile.e_minus},
        {"x": traj.grid.centers, "a": profile.a_vals, "b": profile.b_vals}))
    payload = {
        "config": config_echo,
        "summary": report.summary,
        "snapshots": paths,
        "n_violations": len(report.violations),
    }
    if extra_report:
        payload.update(extra_report)
    (out / "report.json").write_text(json_text(payload))
    return out


def load_run_dir(run_dir):
    """Read back config echo, snapshots, and the profile of a finished run."""
    out = Path(run_dir)
    payload = json.loads((out / "report.json").read_text())
    cfg = payload["config"]
    grid = Grid1D(x_min=float(cfg["x_min"]), x_max=float(cfg["x_max"]),
                  n_cells=int(cfg["n_cells"]),
                  boundary=Boundary(cfg["boundary"]))
    model = GasModel(gamma=float(cfg["gamma"]), delta=float(cfg["delta"]),
                     convention=PressureConvention(cfg["pressure_convention"]))
    meta, cols = _read_table(out / "profile.dat", grid, ("e_minus",),
                             ("x", "a", "b"))
    profile = DeviceProfile.build(grid, cols["a"], cols["b"], meta["e_minus"])
    snaps = []
    for rel in payload["snapshots"]:
        meta, cols = _read_table(out / rel, grid, ("step", "time"),
                                 ("rho", "m"))
        e_vals = solve_field(cols["rho"] - model.rho_floor, profile, grid)
        snaps.append(Snapshot(step=int(meta["step"]), time=meta["time"],
                              rho=cols["rho"], mom=cols["m"], e_vals=e_vals))
    if not snaps:
        raise ConfigurationError(f"{out / 'report.json'}: lists no snapshots")
    traj = Trajectory(grid=grid, model=model, snapshots=snaps)
    traj.min_rho_ever = min(float(np.min(s.rho)) for s in snaps)
    traj.n_steps = snaps[-1].step
    return payload, traj, profile
