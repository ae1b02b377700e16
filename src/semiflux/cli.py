"""Command line front end.

Four subcommands:

* ``solve``   run one scenario, write snapshots + monitor outputs to a run dir
* ``verify``  recompute monitors.csv / violations.json from a stored run and
              demand byte-identical output; optional short-time fixed-point
              cross-check against the integral-equation iteration
* ``picard``  run the integral-equation iteration on a scenario and compare
              its endpoint with the finite-volume solver on a grid refined
              ``refine`` times (1: the same grid)
* ``relax``   sweep a tau ladder and tabulate the scaled L1 gap against a
              drift-diffusion reference, with and without the vacuum offset

``solve``, ``picard`` and ``relax`` build their device through
``scenarios.make_setup``; ``verify`` reads a stored run, with the solver
settings of its config echo, through ``reporting.load_run_dir``.

Exit codes: 0 all checks passed, 1 a check or monitor failed, 2 bad usage,
unreadable input, or malformed configuration (an unknown key, a value its
key's type cannot read, or a scenario whose profile fails its declared
check).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .config import (PICARD_KEYS, RELAX_KEYS, SCENARIO_KEYS, SOLVE_KEYS,
                     coerce, parse_key_value)
from .model import ConfigurationError, Grid1D, HydroState
from .monitors import (ALL_MONITORS, MonitorSuite, entropy_spot_check,
                       evaluate_trajectory)
from .picard import HeatKernel, picard_solve
from .relaxation import CouplingRule, relaxation_study
from .reporting import (fmt, json_text, load_run_dir, monitors_csv_text,
                        write_run_dir)
from .scenarios import make_setup
from .solver import SolverConfig, run

CHECK_FAILED = 1
USAGE_ERROR = 2

# short-time cross-check defaults shared by `verify --picard` and `picard`
CROSS_CHECK_T1 = 0.01
CROSS_TOL_FACTOR = 5.0


def parse_monitor_list(spec: str) -> tuple:
    body = spec.strip().lower()
    if body in ("all", ""):
        return ALL_MONITORS
    if body == "none":
        return ()
    names = tuple(s.strip() for s in body.split(",") if s.strip())
    unknown = set(names) - set(ALL_MONITORS)
    if unknown:
        raise ConfigurationError(
            f"unknown monitors {sorted(unknown)}; choose from {list(ALL_MONITORS)}")
    return names


def _overrides(vals: dict) -> dict:
    return {k: v for k, v in vals.items() if k in SCENARIO_KEYS}


def _given(vals: dict, keys: tuple) -> dict:
    """The keys a config sets, so every unset one keeps its library default."""
    return {k: vals[k] for k in keys if k in vals}


def _config_echo(name: str, setup, cadence: int, enabled: tuple,
                 seed: int) -> dict:
    cfg, model, grid = setup.cfg, setup.model, setup.grid
    return {
        "scenario": name,
        "hypothesis_tag": setup.scenario.hypothesis_tag,
        "x_min": grid.x_min, "x_max": grid.x_max, "n_cells": grid.n_cells,
        "boundary": grid.boundary.value,
        "gamma": model.gamma, "delta": model.delta,
        "pressure_convention": model.convention.value,
        "epsilon": cfg.epsilon, "tau": cfg.tau, "cfl": cfg.cfl,
        "t_end": cfg.t_end,
        "source_variant": cfg.source_variant.value,
        "smoothing_width": cfg.smoothing_width,
        "cadence": cadence,
        "monitors": ",".join(enabled) if enabled else "none",
        "seed": seed,
    }


def _print_violations(violations: list, limit: int = 10):
    for v in violations[:limit]:
        extra = f" series={v['series']}" if "series" in v else ""
        print(f"  {v['monitor']}: value={v['value']:.6g} "
              f"bound={v['bound']:.6g} t={v['time']:.6g}{extra}")
    if len(violations) > limit:
        print(f"  ... {len(violations) - limit} more")


def cmd_solve(args) -> int:
    vals = coerce(parse_key_value(args.config), {**SCENARIO_KEYS, **SOLVE_KEYS})
    name = vals.pop("scenario", None)
    if name is None:
        raise ConfigurationError("solve config must set 'scenario'")
    overrides = _overrides(vals)
    out_dir = args.out_dir or vals.get("out_dir") or f"runs/{name}"
    seed = args.seed if args.seed is not None else vals.get("seed", 0)
    enabled = parse_monitor_list(args.monitors or vals.get("monitors", "all"))
    cadence = vals.get("cadence", 50)

    tables = {k: vals[f"{k}_table"] for k in "ab" if f"{k}_table" in vals}
    setup = make_setup(name, overrides, profile_tables=tables)

    t0 = time.perf_counter()
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, record_every=cadence)

    t1 = time.perf_counter()
    suite = MonitorSuite(enabled=enabled)
    report = evaluate_trajectory(traj, setup.profile, suite)
    t2 = time.perf_counter()
    extra = {}
    if "entropy" in enabled:
        ent, ent_viols = entropy_spot_check(
            traj, setup.profile, tau=setup.cfg.tau,
            epsilon=setup.cfg.epsilon, seed=seed,
            source_variant=setup.cfg.source_variant)
        report.violations.extend(ent_viols)
        extra["entropy_checks"] = ent
    t3 = time.perf_counter()

    echo = _config_echo(name, setup, cadence, enabled, seed)
    out = write_run_dir(out_dir, traj, setup.profile, report, echo,
                        extra or None)
    # wall times live outside report.json so stored runs stay reproducible;
    # wall_seconds is the march
    (out / "timing.json").write_text(json_text({
        "wall_seconds": t1 - t0, "monitors_s": t2 - t1, "entropy_s": t3 - t2,
        "write_s": time.perf_counter() - t3}))

    print(f"run {name}: {traj.n_steps} steps to t={traj.times[-1]:.6g}, "
          f"{len(traj.times)} snapshots, "
          f"{len(report.violations)} violation(s)")
    _print_violations(report.violations)
    if not traj.completed:
        print(f"  integration stopped early at t={traj.failure_time:.6g}")
    print(f"wrote {out}")
    return CHECK_FAILED if (report.violations or not traj.completed) else 0


def _cross_check(result, picard_grid: Grid1D, cfg: SolverConfig, t1: float,
                 factor: float, initial: HydroState, profile, model,
                 grid: Grid1D):
    """March `initial` to t1 with `cfg`'s coefficients on `grid`, sample the
    march onto the Picard grid, and judge the Picard result against it.

    Returns (gap, tolerance, verdict): the gap is the sup distance in rho plus
    the one in m, the tolerance factor * (dx + mean dt), and the verdict also
    asks for a converged, admissible iteration whose fixed-point residual is
    within ten times the tolerance the solve was given.  Returns None when
    the march failed.
    """
    traj = run(initial, profile, model, replace(cfg, t_end=t1), grid,
               record_times=[t1])
    if not traj.completed:
        return None
    x, end = picard_grid.centers, result.endpoint
    gap = float(sum(np.max(np.abs(got - np.interp(x, grid.centers, rec[-1])))
                    for got, rec in ((end.rho, traj.rho), (end.mom, traj.mom))))
    dt_mean = float(np.mean(traj.dts)) if traj.dts else 0.0
    tol_cross = factor * (picard_grid.dx + dt_mean)
    rep = result.report
    ok = rep.converged and not rep.diverged and not rep.band_violations
    if rep.fixed_point_residual is not None:
        ok = ok and rep.fixed_point_residual <= 10.0 * rep.tol
    return gap, tol_cross, ok and gap <= tol_cross


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


def cmd_verify(args) -> int:
    payload, traj, profile, cfg = load_run_dir(args.run_dir)
    echo = payload["config"]
    enabled = parse_monitor_list(echo.get("monitors", "all"))
    suite = MonitorSuite(enabled=enabled)
    report = evaluate_trajectory(traj, profile, suite)
    if "entropy" in enabled:
        _, ent_viols = entropy_spot_check(
            traj, profile, tau=cfg.tau, epsilon=cfg.epsilon,
            seed=int(echo["seed"]), source_variant=cfg.source_variant)
        report.violations.extend(ent_viols)

    run_dir = Path(args.run_dir)
    ok = True
    for fname, fresh in (("monitors.csv", monitors_csv_text(report)),
                         ("violations.json", json_text(report.violations))):
        stored = (run_dir / fname).read_text()
        if fresh == stored:
            print(f"{fname}: byte-identical under recomputation")
        else:
            where = _first_difference(stored, fresh, fname.endswith(".csv"))
            print(f"{fname}: MISMATCH under recomputation, {where}")
            ok = False

    if args.picard:
        t1 = min(args.t1, cfg.t_end)
        initial = HydroState(rho=traj.rho[0], mom=traj.mom[0], time=0.0)
        result = picard_solve(initial, profile, traj.model,
                              HeatKernel(cfg.epsilon), traj.grid, cfg.tau, t1,
                              source_variant=cfg.source_variant)
        check = _cross_check(result, traj.grid, cfg, t1, args.cross_tol_factor,
                             initial, profile, traj.model, traj.grid)
        if check is None:
            print("short-time cross-check: finite-volume rerun failed")
            ok = False
        else:
            gap, tol_cross, agree = check
            print(f"fixed-point cross-check at t={t1:g}: gap={gap:.3e} "
                  f"tolerance={tol_cross:.3e} "
                  f"{'agrees' if agree else 'DISAGREES'}")
            ok = ok and agree

    return 0 if ok else CHECK_FAILED


def cmd_picard(args) -> int:
    vals = coerce(parse_key_value(args.config), PICARD_KEYS)
    name = vals.pop("scenario", "gaussian-bump")
    overrides = _overrides(vals)
    out_dir = Path(args.out_dir or vals.get("out_dir") or f"runs/picard-{name}")
    t1 = vals.get("t1", CROSS_CHECK_T1)

    setup = make_setup(name, overrides)
    result = picard_solve(setup.initial, setup.profile, setup.model,
                          HeatKernel(setup.cfg.epsilon), setup.grid,
                          setup.cfg.tau, t1,
                          source_variant=setup.cfg.source_variant,
                          **_given(vals, ("n_intervals", "tol", "max_iters")))
    n_fine = setup.grid.n_cells * vals.get("refine", 2)
    fine = make_setup(name, {**overrides, "n_cells": n_fine})
    check = _cross_check(result, setup.grid, fine.cfg, t1,
                         vals.get("cross_tol_factor", CROSS_TOL_FACTOR),
                         fine.initial, fine.profile, fine.model, fine.grid)
    if check is None:
        print("refined finite-volume run failed; cannot cross-check")
        return CHECK_FAILED
    gap, tol_cross, agree = check

    rep = result.report
    ratios = [rep.ratios[i - 1] if 1 <= i <= len(rep.ratios) else float("nan")
              for i in range(len(rep.distances))]
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["iteration,distance,ratio"]
    lines += [f"{i},{fmt(d)},{fmt(r)}"
              for i, (d, r) in enumerate(zip(rep.distances, ratios))]
    (out_dir / "contraction.csv").write_text("\n".join(lines) + "\n")
    summary = {
        "distances": rep.distances, "ratios": rep.ratios,
        "converged": rep.converged, "diverged": rep.diverged,
        "halve_suggestion": rep.halve_suggestion,
        "fixed_point_residual": rep.fixed_point_residual,
        "band_violations": rep.band_violations,
        "endpoint_gap": gap, "endpoint_tolerance": tol_cross,
        "t1": t1, "n_intervals": len(result.iterate.times) - 1,
        "scenario": name,
    }
    (out_dir / "picard_report.json").write_text(json_text(summary))

    worst = max(rep.ratios) if rep.ratios else float("nan")
    print(f"picard {name}: {len(rep.distances)} iterations, "
          f"worst ratio {worst:.4f}, "
          f"{'converged' if rep.converged else 'not converged'}"
          f"{', diverged' if rep.diverged else ''}")
    for i, (d, r, secs) in enumerate(zip(rep.distances, ratios,
                                         rep.iteration_s)):
        print(f"  iteration {i}: distance {d:.3e}, ratio {r:.4f}, "
              f"{1e3 * secs:.1f} ms")
    if rep.halve_suggestion is not None:
        print(f"  suggestion: retry with t1 = {rep.halve_suggestion:g}")
    if rep.band_violations:
        print(f"  {len(rep.band_violations)} band violation(s)")
    print(f"endpoint gap vs refined run: {gap:.3e} "
          f"(tolerance {tol_cross:.3e})")
    print(f"wrote {out_dir}")
    return 0 if agree else CHECK_FAILED


def cmd_relax(args) -> int:
    vals = coerce(parse_key_value(args.config), RELAX_KEYS)
    name = vals.pop("scenario", "gaussian-bump")
    overrides = _overrides(vals)
    out_dir = Path(args.out_dir or vals.get("out_dir") or f"runs/relax-{name}")
    if "tau_list" not in vals:
        raise ConfigurationError("relax config must set 'tau_list'")
    tau_list = vals["tau_list"].replace(",", " ").split()
    coupling = CouplingRule(**_given(
        vals, ("eps_coeff", "eps_power", "eps_fixed", "delta_coeff")))
    window = None
    if "window_lo" in vals or "window_hi" in vals:
        if "window_lo" not in vals or "window_hi" not in vals:
            raise ConfigurationError(
                "window_lo and window_hi must be given together")
        window = (vals["window_lo"], vals["window_hi"])

    study = relaxation_study(
        make_setup(name, overrides), tau_list, coupling, window=window,
        **_given(vals, ("horizon", "n_s_records", "s0_frac")))

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["tau,epsilon,delta,l1_error,dissipation,l1_net"]
    for r in study.rows:
        lines.append(",".join(fmt(v) for v in
                              (r.tau, r.epsilon, r.delta, r.l1_error,
                               r.dissipation, r.l1_net)))
    (out_dir / "relax_table.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "manifest.json").write_text(
        json_text({**study.manifest, "monotone": study.monotone}))

    print(f"relaxation sweep on {name}:")
    print(f"  {'tau':>10} {'epsilon':>12} {'delta':>10} "
          f"{'l1_error':>12} {'dissipation':>12} {'l1_net':>12}")
    for r in study.rows:
        print(f"  {r.tau:>10.4g} {r.epsilon:>12.4g} {r.delta:>10.4g} "
              f"{r.l1_error:>12.6g} {r.dissipation:>12.6g} "
              f"{r.l1_net:>12.6g}")
    print(f"drift-diffusion reference: {study.reference.n_steps} steps, "
          f"{study.reference.halvings} dt halvings")
    print(f"l1 errors strictly decreasing: {'yes' if study.monotone else 'NO'}")
    print(f"wrote {out_dir}")
    return 0 if study.monotone else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semiflux",
        description="viscous isentropic gas-charge dynamics with field "
                    "coupling: runs, audits, and limit studies")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run a scenario, write a run directory")
    s.add_argument("--config", required=True, help="key = value run file")
    s.add_argument("--out-dir", help="run directory (default runs/<scenario>)")
    s.add_argument("--monitors",
                   help="comma list, 'all', or 'none' (overrides the config)")
    s.add_argument("--seed", type=int, help="seed for randomized spot checks")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify",
                       help="recompute monitor outputs from a stored run")
    v.add_argument("run_dir", help="directory written by solve")
    v.add_argument("--picard", action="store_true",
                   help="also cross-check a short-time fixed-point solve")
    v.add_argument("--t1", type=float, default=CROSS_CHECK_T1,
                   help="horizon for the fixed-point cross-check")
    v.add_argument("--cross-tol-factor", type=float,
                   default=CROSS_TOL_FACTOR, dest="cross_tol_factor",
                   help="endpoint tolerance = factor * (dx + mean dt)")
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
        return args.func(args)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err!r}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
