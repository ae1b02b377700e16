"""Deterministic on-disk formats for runs.

A run directory stores a Trajectory's rows: each record's (step, time,
rho, m) is one '#'-headed text snapshot, and the profile (x a b) another
table; they hold only what verify reads back.  The cell centres x follow
from the grid in report.json and are stored once, in the profile, where the
reader checks them; the field E is derived data, which the monitors solve
from rho and which is neither stored nor rebuilt on load.  Monitor
series go to CSV, violations to JSON.  Every float is rendered with 17
significant digits so repeated runs of the same build are byte-identical; a
table body is formatted by one '%' operation over all its values, which
gives the bytes of one `fmt` call per value.  Wall-clock timing lives in its
own file.
"""

from __future__ import annotations

import json
from itertools import takewhile
from pathlib import Path

import numpy as np

from .config import SCENARIO_KEYS, coerce
from .model import ConfigurationError, DeviceProfile, GasModel, Grid1D
from .monitors import MonitorReport
from .solver import SolverConfig, Trajectory

# the config echo keys a stored run is read back with: its grid and gas
# law, and the SolverConfig fields
_MODEL_KEYS = ("x_min", "x_max", "n_cells", "boundary", "gamma", "delta",
               "pressure_convention")
_SOLVER_KEYS = ("epsilon", "tau", "cfl", "t_end", "source_variant",
                "smoothing_width")


def fmt(x) -> str:
    return format(float(x), ".17g")


def _table_text(meta: dict, columns: dict) -> str:
    """'#' header lines, then the whole body rendered by one '%' operation;
    '%.17g' gives the same bytes as `fmt`."""
    lines = [f"# {key} = {fmt(val)}" for key, val in meta.items()]
    lines.append("# columns: " + " ".join(columns))
    table = np.column_stack(list(columns.values()))
    row = " ".join(["%.17g"] * table.shape[1])
    lines.append("\n".join([row] * table.shape[0])
                 % tuple(table.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _read_table(path: Path, grid: Grid1D, keys: tuple, names: tuple):
    """Read a stored table as ({key: float}, {column: values}).  Columns are
    found by name, so older layouts with extra columns still load; a table
    that does not describe the run's grid, or whose x column (where it has
    one) is not the grid's centres, is rejected."""
    lines = path.read_text().splitlines()
    head = [ln[1:].replace("columns:", "columns =").partition("=")
            for ln in takewhile(lambda ln: ln.startswith("#"), lines)]
    meta = {k.strip(): v.strip() for k, _, v in head}
    header = meta.get("columns", "").split()
    missing = [k for k in keys if k not in meta]
    missing += [n for n in names if n not in header]
    if missing:
        raise ConfigurationError(f"{path}: missing {missing}")
    try:
        values = {k: float(meta[k]) for k in keys}
        data = np.loadtxt(lines[len(head):], ndmin=2)
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
    for step, t, rho, mom in zip(traj.steps.tolist(), traj.times.tolist(),
                                 traj.rho, traj.mom):
        p = out / "snapshots" / f"snap_{step:08d}.dat"
        p.write_text(_table_text({"step": step, "time": t},
                                 {"rho": rho, "m": mom}))
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
    """Read back a finished run: (report.json payload, trajectory, profile,
    the SolverConfig of its config echo).  The echo is parsed here only,
    with the config files' key types, so a value its key cannot read is a
    ConfigurationError naming the key."""
    out = Path(run_dir)
    payload = json.loads((out / "report.json").read_text())
    echo = coerce({k: payload["config"][k] for k in _MODEL_KEYS + _SOLVER_KEYS},
                  SCENARIO_KEYS)
    grid = Grid1D(x_min=echo["x_min"], x_max=echo["x_max"],
                  n_cells=echo["n_cells"], boundary=echo["boundary"])
    model = GasModel(gamma=echo["gamma"], delta=echo["delta"],
                     convention=echo["pressure_convention"])
    cfg = SolverConfig(**{k: echo[k] for k in _SOLVER_KEYS})
    meta, cols = _read_table(out / "profile.dat", grid, ("e_minus",),
                             ("x", "a", "b"))
    profile = DeviceProfile.build(grid, cols["a"], cols["b"], meta["e_minus"])
    if not payload["snapshots"]:
        raise ConfigurationError(f"{out / 'report.json'}: lists no snapshots")
    shape = (len(payload["snapshots"]), grid.n_cells)
    traj = Trajectory(grid=grid, model=model, steps=np.empty(shape[0], int),
                      times=np.empty(shape[0]), rho=np.empty(shape),
                      mom=np.empty(shape))
    for i, rel in enumerate(payload["snapshots"]):
        meta, cols = _read_table(out / rel, grid, ("step", "time"),
                                 ("rho", "m"))
        traj.steps[i], traj.times[i] = int(meta["step"]), meta["time"]
        traj.rho[i], traj.mom[i] = cols["rho"], cols["m"]
    traj.n_steps, traj.min_rho_ever = int(traj.steps[-1]), float(np.min(traj.rho))
    return payload, traj, profile, cfg
