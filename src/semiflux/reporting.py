"""Deterministic on-disk formats for runs.

A run directory stores a whole Trajectory: each record's (step, time,
min_rho, rho, m) is one '#'-headed text snapshot, the profile (x a b)
another table, and its grid, gas law and SolverConfig the config echo,
written and read back through the one key table of `config`.  The reader
accepts only the layout the writer writes, header keys and columns alike.
The cell centres x are stored once, in the profile, where the reader
checks them against the grid; the field E is derived data.  `audited_texts`
is the one audit of a run, for `solve` and `verify` both: it reads the
monitors and the seed from the command echo, runs them, and renders what
they derive from the records: the monitor table to CSV, the failed
checks' entries to JSON, and report.json (config echo, audit summary,
snapshot list, entropy checks).  Every CSV a command writes goes through
`csv_text`, and every file through `write_texts`, a run directory's
snapshots one at a time.  Every number is rendered by '%.17g', 17
significant digits, so repeated runs of the same build are
byte-identical; a table or CSV body is formatted by one '%' operation
over all its values (`_lines`).
Wall-clock timing lives in its own file.
"""

from __future__ import annotations

import json
from itertools import takewhile
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import (ECHO_KEYS, SCENARIO_KEYS, SOLVE_KEYS, build_parts,
                     coerce, config_echo)
from .model import ConfigurationError, DeviceProfile, Grid1D
from .monitors import (MONITOR_COLUMNS, entropy_spot_check,
                       evaluate_trajectory, parse_monitor_list)
from .solver import Trajectory

_SNAPSHOT = "snapshots/snap_{:08d}.dat"   # the path of a record, by its step


def _lines(flat: list, width: int, sep: str) -> str:
    """The values of `flat`, `width` to a line with `sep` between them, each
    by '%.17g': one '%' operation renders them all.  No values, no lines."""
    line = sep.join(["%.17g"] * width) + "\n"
    return (line * (len(flat) // width)) % tuple(flat)


def _table_text(meta: dict, columns: dict) -> str:
    """'#' header lines, then the whole body in one `_lines` operation."""
    head = "".join("# %s = %.17g\n" % item for item in meta.items())
    table = np.column_stack(list(columns.values()))
    return (head + "# columns: " + " ".join(columns) + "\n"
            + _lines(table.ravel().tolist(), table.shape[1], " "))


def _read_table(path: Path, grid: Grid1D, keys: tuple, names: tuple):
    """Read a stored table as ({key: float}, {column: values}).  It must be
    laid out as `_table_text` writes it, with exactly the header keys
    `keys` and the columns `names`, and hold one row per cell of the run's
    grid; any other table is rejected."""
    lines = path.read_text().splitlines()
    head = [ln[1:].replace("columns:", "columns =").partition("=")
            for ln in takewhile(lambda ln: ln.startswith("#"), lines)]
    meta = {k.strip(): v.strip() for k, _, v in head}
    found = [k.strip() for k, _, _ in head]
    header = meta.get("columns", "").split()
    if found != [*keys, "columns"] or header != list(names):
        raise ConfigurationError(
            f"{path}: header {found} with columns {header}, expected "
            f"{[*keys, 'columns']} with {list(names)}")
    try:
        values = {k: float(meta[k]) for k in keys}
        data = np.loadtxt(lines[len(head):], ndmin=2)
    except ValueError as err:
        raise ConfigurationError(f"{path}: unreadable table ({err})") from None
    if data.shape != (grid.n_cells, len(names)):
        raise ConfigurationError(
            f"{path}: {data.shape[0]} rows of {data.shape[1]} values, "
            f"expected {grid.n_cells} rows of {len(names)}")
    return values, dict(zip(names, data.T))


def csv_text(columns, rows) -> str:
    """A header line of `columns`, then one line per row of numbers, the
    body in one `_lines` operation."""
    flat = [v for row in rows for v in row]
    return ",".join(columns) + "\n" + _lines(flat, len(columns), ",")


def json_text(payload) -> str:
    """Indented JSON with sorted keys; an enum by its value."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=attrgetter("value")) + "\n"


def audited_texts(traj: Trajectory, command_echo: dict):
    """The one audit of a run, for `solve` and `verify` alike: the monitors
    and the entropy seed are read from `command_echo` with `solve`'s key
    types, the enabled monitors run over `traj` and, with "entropy", the
    spot check.  Returns (MonitorReport, {file name: text}) of the files
    the audit derives: the monitor table, the violations, and report.json,
    which holds the config echo (`command_echo` with `traj`'s settings over
    it), the audit summary, the snapshot list and the entropy checks."""
    audit = coerce({k: command_echo[k] for k in ("monitors", "seed")},
                   SOLVE_KEYS)
    enabled = parse_monitor_list(audit["monitors"])
    report = evaluate_trajectory(traj, enabled)
    entropy = {}
    if "entropy" in enabled:
        entropy["entropy_checks"], checks = entropy_spot_check(
            traj, audit["seed"])
        report.checks.extend(checks)
    payload = {"config": {**command_echo, **config_echo(traj)},
               "summary": report.summary,
               "snapshots": [_SNAPSHOT.format(s) for s in traj.steps.tolist()],
               **entropy}
    table = zip(*(report.columns[name].tolist() for name in MONITOR_COLUMNS))
    return report, {"monitors.csv": csv_text(MONITOR_COLUMNS, table),
                    "violations.json": json_text(report.violations),
                    "report.json": json_text(payload)}


def write_run_dir(out_dir, traj: Trajectory, texts: dict) -> Path:
    """Lay out a run directory: snapshots/, profile.dat and `texts`, the
    audited files by name (`audited_texts`)."""
    for step, t, low, rho, mom in zip(traj.steps.tolist(), traj.times.tolist(),
                                      traj.min_rho.tolist(), traj.rho,
                                      traj.mom):
        write_texts(out_dir, {_SNAPSHOT.format(step): _table_text(
            {"step": step, "time": t, "min_rho": low}, {"rho": rho, "m": mom})})
    profile = traj.profile
    return write_texts(out_dir, {"profile.dat": _table_text(
        {"e_minus": profile.e_minus},
        {"x": traj.grid.centers, "a": profile.a_vals, "b": profile.b_vals}),
        **texts})


def write_texts(out_dir, texts: dict) -> Path:
    """Write each of `texts`, {path under `out_dir`: text}, making the
    directories it needs; returns `out_dir` as a Path.  Every file a
    command writes goes through here."""
    out = Path(out_dir)
    for name, text in texts.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    return out


def load_run_dir(run_dir):
    """Read back a finished run: (report.json payload, trajectory).  The
    echo is parsed here only, with the config files' key types, so a value
    its key cannot read is a ConfigurationError naming the key, as is a
    snapshot whose step is not a whole step count, naming the file."""
    out = Path(run_dir)
    payload = json.loads((out / "report.json").read_text())
    grid, model, cfg = build_parts(coerce(
        {k: payload["config"][k] for k in ECHO_KEYS}, SCENARIO_KEYS))
    meta, cols = _read_table(out / "profile.dat", grid, ("e_minus",),
                             ("x", "a", "b"))
    if not np.array_equal(cols["x"], grid.centers):
        raise ConfigurationError(
            f"{out / 'profile.dat'}: x column is not the run's grid")
    profile = DeviceProfile.build(grid, cols["a"], cols["b"], meta["e_minus"])
    if not payload["snapshots"]:
        raise ConfigurationError(f"{out / 'report.json'}: lists no snapshots")
    shape = (len(payload["snapshots"]), grid.n_cells)
    traj = Trajectory(grid=grid, model=model, profile=profile, cfg=cfg,
                      steps=np.empty(shape[0], int), times=np.empty(shape[0]),
                      rho=np.empty(shape), mom=np.empty(shape),
                      min_rho=np.empty(shape[0]))
    for i, rel in enumerate(payload["snapshots"]):
        meta, cols = _read_table(out / rel, grid, ("step", "time", "min_rho"),
                                 ("rho", "m"))
        step = meta["step"]
        if not (step.is_integer() and 0 <= step < 2.0 ** 63):
            raise ConfigurationError(
                f"{out / rel}: need a whole step count, got step = {step!r}")
        traj.steps[i], traj.times[i] = step, meta["time"]
        traj.min_rho[i] = meta["min_rho"]
        traj.rho[i], traj.mom[i] = cols["rho"], cols["m"]
    return payload, traj
