"""Command line front end.

Four subcommands:

* ``solve``   run one scenario, write snapshots + monitor outputs to a run dir
* ``verify``  re-render monitors.csv, violations.json and report.json
              from a stored run's records and demand identical bytes (an
              echo value no audit reads, like cfl, is taken as stored);
              optional fixed-point cross-check at a short time
* ``picard``  run the integral-equation iteration on a scenario and compare
              its endpoint with the finite-volume solver on a grid refined
              ``refine`` times (1: the same grid), averaged back onto the
              Picard grid cell by cell, within
              ``picard.CROSS_TOL_FACTOR * (dx + mean dt)``
* ``relax``   sweep a tau ladder and tabulate the scaled L1 gap against a
              drift-diffusion reference, with and without the vacuum offset

``solve`` and ``verify`` audit a run with the one call
``reporting.audited_texts(traj, echo)``: ``solve`` on the echo it builds,
``verify`` on the echo the run stored, so the monitors and the entropy
seed come from the echo alone and a stored echo without either exits 2.

Each setting has one spelling but the seed (``--seed`` or ``seed``, never
both): the output directory is ``--out-dir``, the monitors the ``monitors``
key.  ``solve``, ``picard`` and ``relax`` read their config by one call,
``_configured``, which builds the device by ``scenarios.make_setup``; every
other key reaches its library call under its own name (``_given``).
``verify`` audits a stored run, read through ``reporting.load_run_dir``,
under the profile and SolverConfig it holds; a stored table laid out
otherwise than ``solve`` writes it (a snapshot without the ``min_rho``
header, an extra column or header key) exits 2.  Every file a command
writes goes through ``reporting.write_texts``.

Each command returns the `monitors.Check` rows that decide its exit code
(``solve`` its monitors' and the march's completion, ``verify`` the count
of audited files that differ and the cross-check, ``picard`` the
cross-check, ``relax`` the ladder's monotonicity); ``verify --picard`` and
``picard`` print the cross-check by `_print_cross_check`.  Exit codes,
which `main` alone maps from those rows and from the error a command
raises where it happens: 0 every row passed; 1 a row failed, or a march
stopped early (``solve`` audits what it recorded; ``picard``,
``verify --picard`` and ``relax`` print one ``error:`` line naming the
rung and the time); 2 bad usage, unreadable input, or malformed
configuration: an unknown key, a value its key's type cannot read or a
non-finite float, in a config file or a stored run's config echo; a
non-finite profile a, b or e_minus; a setting that would change nothing,
``verify --t1`` without ``--picard`` or a key beside one that replaces it
(``config.REPLACES``); a scenario whose profile fails its declared check;
a periodic device with net charge; for ``picard`` and ``verify --picard``,
an outflow device whose initial data do not vanish at the edges
(``picard.check_edges``); or a relax device whose drift-diffusion
reference cannot keep its density non-negative.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from itertools import groupby, zip_longest
from pathlib import Path

import scipy  # noqa: F401  no submodule: perfbench/child.py reads its version

from .config import (PICARD_KEYS, RELAX_KEYS, SCENARIO_KEYS, SOLVE_KEYS,
                     TABLE_KEYS, coerce, parse_key_value)
from .model import ConfigurationError, HydroState
from .monitors import Check, parse_monitor_list
from .picard import (CROSS_CHECK_T1, check_edges, check_t1, cross_check,
                     picard_solve)
from .relaxation import (CouplingRule, PositivityError, StudyRow,
                         relaxation_study)
from .reporting import (audited_texts, csv_text, json_text, load_run_dir,
                        write_run_dir, write_texts)
from .scenarios import make_setup
from .solver import IntegrationError, run

CHECK_FAILED = 1
USAGE_ERROR = 2
# relax_table.csv's header and relax's printed table, one column per
# StudyRow field, printed (width, significant digits) as below or (12, 6)
RELAX_COLUMNS = tuple(f.name for f in fields(StudyRow))
_RELAX_FORMAT = {"tau": (10, 4), "epsilon": (12, 4), "delta": (10, 4)}


def _configured(args, keys: dict, default: str | None = None):
    """(vals, setup): the config file cast by `keys` less its scenario
    (`default` if unset, else required), and `make_setup` of that scenario
    with the file's scenario and table keys."""
    vals = coerce(parse_key_value(args.config), keys)
    name = vals.pop("scenario", default)
    if name is None:
        raise ConfigurationError(f"{args.command} config must set 'scenario'")
    return vals, make_setup(name, {k: v for k, v in vals.items()
                                   if k in SCENARIO_KEYS or k in TABLE_KEYS})


def _given(vals: dict, keys: tuple) -> dict:
    """The keys a config sets, so every unset one keeps its library default."""
    return {k: vals[k] for k in keys if k in vals}


def _print_violations(violations: list, limit: int = 10):
    for v in violations[:limit]:
        extra = f" series={v['series']}" if "series" in v else ""
        print(f"  {v['monitor']}: value={v['value']:.6g} "
              f"bound={v['bound']:.6g} t={v['time']:.6g}{extra}")
    if len(violations) > limit:
        print(f"  ... {len(violations) - limit} more")


def _march_summary(traj) -> dict:
    """What bounded the march's steps: the dt range and the step count per
    limiter; dt to four significant digits, null when no step was taken."""
    # sorted by hand: statistics.median imports decimal and np.median pages
    # in numpy's sort kernels, each about half a megabyte resident
    dts, k = sorted(traj.dts), len(traj.dts)
    span = ((dts[0], (dts[(k - 1) // 2] + dts[k // 2]) / 2, dts[-1]) if dts
            else (None, None, None))
    out = {key: None if dt is None else float(f"{dt:.4g}")
           for key, dt in zip(("dt_min", "dt_median", "dt_max"), span)}
    return {**out, "advection_limited": traj.limits["advection"],
            "viscosity_limited": traj.limits["viscosity"],
            "clamped": traj.limits["clamp"]}


def _print_cross_check(row: Check):
    print(f"fixed-point cross-check at t={row.time:g}: gap={row.value:.3e} "
          f"tolerance={row.bound:.3e} "
          f"{'agrees' if row.passed else 'DISAGREES'}")


def cmd_solve(args) -> list:
    vals, setup = _configured(args, {**SCENARIO_KEYS, **SOLVE_KEYS})
    name = setup.scenario.name
    enabled = parse_monitor_list(vals.get("monitors", "all"))
    cadence = vals.get("cadence", 50)
    if args.seed is not None and "seed" in vals:
        raise ConfigurationError(f"the seed is given twice, --seed {args.seed}"
                                 f" and seed = {vals['seed']}; set one")
    echo = {"scenario": name, "hypothesis_tag": setup.scenario.hypothesis_tag,
            "cadence": cadence,
            "monitors": ",".join(enabled) if enabled else "none",
            "seed": vals.get("seed", 0) if args.seed is None else args.seed}

    t0 = time.perf_counter()
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, cadence=cadence)
    t1 = time.perf_counter()
    report, texts = audited_texts(traj, echo)
    t2 = time.perf_counter()
    out = write_run_dir(args.out_dir or f"runs/{name}", traj, texts)
    # wall times and the march's account live outside report.json so stored
    # runs stay reproducible; wall_seconds is the march
    write_texts(out, {"timing.json": json_text({
        "wall_seconds": t1 - t0, "audit_s": t2 - t1,
        "write_s": time.perf_counter() - t2, "march": _march_summary(traj)})})

    print(f"run {name}: {traj.n_steps} steps to t={traj.times[-1]:.6g}, "
          f"{len(traj.times)} snapshots, "
          f"{len(report.violations)} violation(s)")
    _print_violations(report.violations)
    if report.unjudged:  # monitors that share a reason share an entry
        print("  not judged: " + "; ".join(
            f"{', '.join(names)} ({why})"
            for why, names in groupby(report.unjudged, report.unjudged.get)))
    if not traj.completed:
        print(f"  integration stopped early at t={traj.times[-1]:.6g}")
    print(f"wrote {out}")
    return [*report.checks, Check("completed", traj.times[-1],
                                  traj.cfg.t_end, traj.completed)]


def _first_difference(stored: str, fresh: str, csv: bool) -> str:
    """The first line where a stored text departs from its recomputation;
    for CSV also the row, the column named by the header, and both cells."""
    old, new = stored.splitlines(True), fresh.splitlines(True)
    pairs = enumerate(zip_longest(old, new, fillvalue="<end of file>"))
    i, (a, b) = next((i, p) for i, p in pairs if p[0] != p[1])
    where = f"line {i + 1}"
    cells = zip(new[0].strip().split(","), a.strip().split(","),
                b.strip().split(","))
    diff = [c for c in cells if c[1] != c[2]]
    if csv and 0 < i < min(len(old), len(new)) and diff:
        name, a, b = diff[0]
        where += f" (row {i}), column {name}"
    return f"{where}: stored {a!r}, recomputed {b!r}"


def cmd_verify(args) -> list:
    if args.t1 is not None and not args.picard:
        raise ConfigurationError(
            f"--t1 {args.t1!r} is read only with --picard; without it the "
            "flag would be ignored")
    payload, traj = load_run_dir(args.run_dir)
    # the cross-check runs on [0, min(--t1, t_end)]: a bad flag, or an
    # outflow device whose data reach its edges, is a usage error before
    # anything is audited or printed
    flag = CROSS_CHECK_T1 if args.t1 is None else args.t1
    t1 = min(flag, traj.cfg.t_end)
    initial = HydroState(rho=traj.rho[0], mom=traj.mom[0], time=0.0)
    if args.picard:
        check_t1(t1, f"the run's stored t_end = {t1!r} caps t1"
                 if t1 < flag else f"--t1 {flag!r}")
        check_edges(initial, traj.model, traj.grid)
    _, texts = audited_texts(traj, payload["config"])
    run_dir = Path(args.run_dir)
    differ = 0
    for fname, fresh in texts.items():
        stored = (run_dir / fname).read_text()
        if fresh == stored:
            print(f"{fname}: byte-identical under recomputation")
        else:
            where = _first_difference(stored, fresh, fname.endswith(".csv"))
            print(f"{fname}: MISMATCH under recomputation, {where}")
            differ += 1
    checks = [Check("verify", differ, 0, differ == 0)]

    if args.picard:
        result = picard_solve(initial, traj.profile, traj.model, traj.cfg,
                              traj.grid, t1)
        checks.append(cross_check(result, traj.grid, t1, traj, initial))
        _print_cross_check(checks[-1])
    return checks


def cmd_picard(args) -> list:
    vals, setup = _configured(args, PICARD_KEYS, "gaussian-bump")
    name = setup.scenario.name
    t1 = vals.get("t1", CROSS_CHECK_T1)
    refine = vals.get("refine", 2)
    if refine < 1:
        raise ConfigurationError(f"refine: need refine >= 1, got {refine}")
    check_edges(setup.initial, setup.model, setup.grid)
    result = picard_solve(setup.initial, setup.profile, setup.model,
                          setup.cfg, setup.grid, t1,
                          **_given(vals, ("n_intervals", "tol", "max_iters")))
    fine = make_setup(name, {**setup.scenario.params,
                             "n_cells": setup.grid.n_cells * refine})
    row = cross_check(result, setup.grid, t1, fine, fine.initial)

    rep = result.report
    # the first sweep has no predecessor, so no ratio
    ratios = [float("nan")] + [b / a for a, b in zip(rep.distances,
                                                     rep.distances[1:])]
    out_dir = write_texts(args.out_dir or f"runs/picard-{name}", {
        "contraction.csv": csv_text(
            ("iteration", "distance", "ratio"),
            zip(range(len(rep.distances)), rep.distances, ratios)),
        "picard_report.json": json_text({
            "distances": rep.distances, "converged": rep.converged,
            "diverged": rep.diverged, "band_violations": rep.band_violations,
            "endpoint_gap": row.value, "endpoint_tolerance": row.bound,
            "t1": t1, "n_intervals": len(result.iterate.times) - 1,
            "scenario": name})})

    worst = max(ratios[1:], default=float("nan"))
    print(f"picard {name}: {len(rep.distances)} iterations, "
          f"worst ratio {worst:.4f}, "
          f"{'converged' if rep.converged else 'not converged'}"
          f"{', diverged' if rep.diverged else ''}")
    for i, (d, r, secs) in enumerate(zip(rep.distances, ratios,
                                         rep.iteration_s)):
        print(f"  iteration {i}: distance {d:.3e}, ratio {r:.4f}, "
              f"{1e3 * secs:.1f} ms")
    if rep.diverged:
        print(f"  suggestion: retry with t1 = {0.5 * t1:g}")
    if rep.band_violations:
        print(f"  {len(rep.band_violations)} band violation(s)")
    _print_cross_check(row)
    print(f"wrote {out_dir}")
    return [row]


def cmd_relax(args) -> list:
    vals, setup = _configured(args, RELAX_KEYS, "gaussian-bump")
    name = setup.scenario.name
    if "tau_list" not in vals:
        raise ConfigurationError("relax config must set 'tau_list'")
    coupling = CouplingRule(**_given(
        vals, ("eps_coeff", "eps_power", "eps_fixed", "delta_coeff")))
    study = relaxation_study(
        setup, vals["tau_list"].replace(",", " ").split(), coupling,
        **_given(vals, ("horizon", "window_lo", "window_hi", "n_s_records",
                        "s0_frac")))

    out_dir = write_texts(args.out_dir or f"runs/relax-{name}", {
        "relax_table.csv": csv_text(
            RELAX_COLUMNS,
            [[getattr(r, c) for c in RELAX_COLUMNS] for r in study.rows]),
        "manifest.json": json_text({**study.manifest,
                                    "monotone": study.monotone.passed})})

    spec = [(c, *_RELAX_FORMAT.get(c, (12, 6))) for c in RELAX_COLUMNS]
    print(f"relaxation sweep on {name}:")
    print("  " + " ".join(f"{c:>{w}}" for c, w, _ in spec))
    for r in study.rows:
        print("  " + " ".join(f"{getattr(r, c):>{w}.{d}g}"
                              for c, w, d in spec))
    print(f"drift-diffusion reference: {study.reference.n_steps} steps, "
          f"{study.reference.halvings} dt halvings")
    print("l1 errors strictly decreasing: "
          f"{'yes' if study.monotone.passed else 'NO'}")
    print(f"wrote {out_dir}")
    return [study.monotone]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semiflux",
        description="viscous isentropic gas-charge dynamics with field "
                    "coupling: runs, audits, and limit studies")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run a scenario, write a run directory")
    s.add_argument("--config", required=True, help="key = value run file")
    s.add_argument("--out-dir", help="run directory (default runs/<scenario>)")
    s.add_argument("--seed", type=int, help="seed for randomized spot checks")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify",
                       help="recompute monitor outputs from a stored run")
    v.add_argument("run_dir", help="directory written by solve")
    v.add_argument("--picard", action="store_true",
                   help="also cross-check a short-time fixed-point solve")
    v.add_argument("--t1", type=float,
                   help="horizon for the fixed-point cross-check (with "
                        f"--picard; default {CROSS_CHECK_T1:g})")
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("picard",
                       help="integral-equation iteration + solver cross-check")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_picard)

    r = sub.add_parser("relax", help="tau-ladder limit study")
    r.add_argument("--config", required=True)
    r.add_argument("--out-dir")
    r.set_defaults(func=cmd_relax)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        checks = args.func(args)
    except IntegrationError as err:
        print(f"error: {err}", file=sys.stderr)
        return CHECK_FAILED
    except (ConfigurationError, PositivityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err!r}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if all(c.passed for c in checks) else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
