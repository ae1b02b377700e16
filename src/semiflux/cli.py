"""Command line front end.

Four subcommands:

* ``solve``   run one scenario, write snapshots + monitor outputs to a run dir
* ``verify``  recompute monitors.csv / violations.json from a stored run and
              demand byte-identical output; optional short-time fixed-point
              cross-check against the integral-equation iteration
* ``picard``  run the integral-equation iteration on a scenario and compare
              its endpoint with the finite-volume solver on a refined grid
* ``relax``   sweep a tau ladder and tabulate the scaled L1 gap against a
              drift-diffusion reference

Exit codes: 0 all checks passed, 1 a check or monitor failed, 2 bad usage,
unreadable input, or malformed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import (PICARD_KEYS, RELAX_KEYS, SCENARIO_KEYS, SOLVE_KEYS,
                     coerce, interp_profile, parse_key_value)
from .model import ConfigurationError, HydroState
from .monitors import (ALL_MONITORS, MonitorSuite, entropy_spot_check,
                       evaluate_trajectory)
from .picard import HeatKernel, picard_solve
from .relaxation import CouplingRule, relaxation_study
from .reporting import (fmt, json_text, load_run_dir, monitors_csv_text,
                        write_run_dir)
from .scenarios import make_arrays, make_setup
from .solver import SolverConfig, SourceVariant, run

CHECK_FAILED = 1
USAGE_ERROR = 2


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
    seed = args.seed if args.seed is not None else int(vals.get("seed", 0))
    enabled = parse_monitor_list(args.monitors or vals.get("monitors", "all"))
    cadence = int(vals.get("cadence", 50))

    tables = {}
    if "a_table" in vals or "b_table" in vals:
        _, grid, *_ = make_arrays(name, overrides)
        if "a_table" in vals:
            tables["a"] = interp_profile(vals["a_table"], grid.centers)
        if "b_table" in vals:
            tables["b"] = interp_profile(vals["b_table"], grid.centers)
    setup = make_setup(name, overrides, profile_tables=tables or None)

    t0 = time.perf_counter()
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, record_every=cadence)
    wall = time.perf_counter() - t0

    suite = MonitorSuite(enabled=enabled)
    report = evaluate_trajectory(traj, setup.profile, suite)
    extra = {}
    if "entropy" in enabled:
        ent, ent_viols = entropy_spot_check(
            traj, setup.profile, tau=setup.cfg.tau,
            epsilon=setup.cfg.epsilon, seed=seed,
            source_variant=setup.cfg.source_variant)
        report.violations.extend(ent_viols)
        extra["entropy_checks"] = ent

    echo = _config_echo(name, setup, cadence, enabled, seed)
    out = write_run_dir(out_dir, traj, setup.profile, report, echo,
                        extra or None)
    # wall time lives outside report.json so stored runs stay reproducible
    (out / "timing.json").write_text(json_text({"wall_seconds": wall}))

    t_last = traj.times[-1] if traj.snapshots else 0.0
    print(f"run {name}: {traj.n_steps} steps to t={t_last:.6g}, "
          f"{len(traj.snapshots)} snapshots, "
          f"{len(report.violations)} violation(s)")
    _print_violations(report.violations)
    if not traj.completed:
        print(f"  integration stopped early at t={traj.failure_time:.6g}")
    print(f"wrote {out}")
    return CHECK_FAILED if (report.violations or not traj.completed) else 0


def _endpoint_gap(endpoint: HydroState, snap) -> float:
    return float(np.max(np.abs(endpoint.rho - snap.rho))
                 + np.max(np.abs(endpoint.mom - snap.mom)))


def _picard_summary(result, gap: float | None, tol_cross: float | None) -> dict:
    rep = result.report
    out = {
        "distances": list(rep.distances),
        "ratios": list(rep.ratios),
        "converged": rep.converged,
        "diverged": rep.diverged,
        "halve_suggestion": rep.halve_suggestion,
        "fixed_point_residual": rep.fixed_point_residual,
        "band_violations": rep.band_violations,
    }
    if gap is not None:
        out["endpoint_gap"] = gap
        out["endpoint_tolerance"] = tol_cross
    return out


def _picard_verdict(result, gap: float | None, tol_cross: float | None,
                    tol: float = 1e-10) -> bool:
    rep = result.report
    ok = rep.converged and not rep.diverged and not rep.band_violations
    if rep.fixed_point_residual is not None:
        ok = ok and rep.fixed_point_residual <= 10.0 * tol
    if gap is not None:
        ok = ok and gap <= tol_cross
    return ok


def cmd_verify(args) -> int:
    payload, traj, profile = load_run_dir(args.run_dir)
    echo = payload["config"]
    enabled = parse_monitor_list(echo.get("monitors", "all"))
    suite = MonitorSuite(enabled=enabled)
    report = evaluate_trajectory(traj, profile, suite)
    if "entropy" in enabled:
        _, ent_viols = entropy_spot_check(
            traj, profile, tau=float(echo["tau"]),
            epsilon=float(echo["epsilon"]), seed=int(echo["seed"]),
            source_variant=SourceVariant(echo["source_variant"]))
        report.violations.extend(ent_viols)

    run_dir = Path(args.run_dir)
    ok = True
    for fname, fresh in (("monitors.csv", monitors_csv_text(report)),
                         ("violations.json", json_text(report.violations))):
        stored = (run_dir / fname).read_text()
        if fresh == stored:
            print(f"{fname}: byte-identical under recomputation")
        else:
            print(f"{fname}: MISMATCH under recomputation")
            ok = False

    if args.picard:
        t1 = min(args.t1, float(echo["t_end"]))
        cfg = SolverConfig(
            epsilon=float(echo["epsilon"]), tau=float(echo["tau"]),
            cfl=float(echo["cfl"]), t_end=t1,
            source_variant=SourceVariant(echo["source_variant"]),
            smoothing_width=0.0)
        snap0 = traj.snapshots[0]
        initial = HydroState(rho=snap0.rho.copy(), mom=snap0.mom.copy(),
                             time=0.0)
        kernel = HeatKernel(cfg.epsilon)
        result = picard_solve(initial, profile, traj.model, kernel, traj.grid,
                              cfg.tau, t1,
                              source_variant=cfg.source_variant)
        short = run(initial, profile, traj.model, cfg, traj.grid,
                    record_times=[t1])
        if not short.completed:
            print("short-time cross-check: finite-volume rerun failed")
            ok = False
        else:
            gap = _endpoint_gap(result.endpoint, short.snapshots[-1])
            dt_mean = float(np.mean(short.dts)) if short.dts else 0.0
            tol_cross = args.cross_tol_factor * (traj.grid.dx + dt_mean)
            agree = _picard_verdict(result, gap, tol_cross)
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
    t1 = float(vals.get("t1", 0.01))
    n_intervals = int(vals.get("n_intervals", 8))
    tol = float(vals.get("tol", 1e-10))
    max_iters = int(vals.get("max_iters", 30))
    refine = int(vals.get("refine", 2))
    factor = float(vals.get("cross_tol_factor", 5.0))

    setup = make_setup(name, overrides)
    kernel = HeatKernel(setup.cfg.epsilon)
    result = picard_solve(setup.initial, setup.profile, setup.model, kernel,
                          setup.grid, setup.cfg.tau, t1,
                          n_intervals=n_intervals, tol=tol,
                          max_iters=max_iters,
                          source_variant=setup.cfg.source_variant)

    fine_over = dict(overrides)
    fine_over["n_cells"] = setup.grid.n_cells * refine
    fine = make_setup(name, fine_over)
    fine_cfg = SolverConfig(
        epsilon=fine.cfg.epsilon, tau=fine.cfg.tau, cfl=fine.cfg.cfl,
        t_end=t1, source_variant=fine.cfg.source_variant,
        smoothing_width=fine.cfg.smoothing_width)
    traj = run(fine.initial, fine.profile, fine.model, fine_cfg, fine.grid,
               record_times=[t1])
    if not traj.completed:
        print("refined finite-volume run failed; cannot cross-check")
        return CHECK_FAILED
    last = traj.snapshots[-1]
    on_coarse = HydroState(
        rho=np.interp(setup.grid.centers, fine.grid.centers, last.rho),
        mom=np.interp(setup.grid.centers, fine.grid.centers, last.mom),
        time=t1)
    gap = _endpoint_gap(result.endpoint, on_coarse)
    dt_mean = float(np.mean(traj.dts)) if traj.dts else 0.0
    tol_cross = factor * (setup.grid.dx + dt_mean)

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["iteration,distance,ratio"]
    for i, d in enumerate(result.report.distances):
        r = result.report.ratios[i - 1] if 1 <= i <= len(result.report.ratios) \
            else float("nan")
        lines.append(f"{i},{fmt(d)},{fmt(r)}")
    (out_dir / "contraction.csv").write_text("\n".join(lines) + "\n")
    summary = _picard_summary(result, gap, tol_cross)
    summary["t1"] = t1
    summary["n_intervals"] = n_intervals
    summary["scenario"] = name
    (out_dir / "picard_report.json").write_text(json_text(summary))

    rep = result.report
    worst = max(rep.ratios) if rep.ratios else float("nan")
    print(f"picard {name}: {len(rep.distances)} iterations, "
          f"worst ratio {worst:.4f}, "
          f"{'converged' if rep.converged else 'not converged'}"
          f"{', diverged' if rep.diverged else ''}")
    if rep.halve_suggestion is not None:
        print(f"  suggestion: retry with t1 = {rep.halve_suggestion:g}")
    if rep.band_violations:
        print(f"  {len(rep.band_violations)} band violation(s)")
    print(f"endpoint gap vs refined run: {gap:.3e} "
          f"(tolerance {tol_cross:.3e})")
    print(f"wrote {out_dir}")
    return 0 if _picard_verdict(result, gap, tol_cross, tol) else CHECK_FAILED


def cmd_relax(args) -> int:
    vals = coerce(parse_key_value(args.config), RELAX_KEYS)
    name = vals.pop("scenario", "gaussian-bump")
    overrides = _overrides(vals)
    out_dir = Path(args.out_dir or vals.get("out_dir") or f"runs/relax-{name}")
    if "tau_list" not in vals:
        raise ConfigurationError("relax config must set 'tau_list'")
    taus = [float(s) for s in vals["tau_list"].replace(",", " ").split()]
    coupling = CouplingRule(
        eps_coeff=float(vals.get("eps_coeff", 0.1)),
        eps_power=float(vals.get("eps_power", 2.0)),
        eps_fixed=float(vals["eps_fixed"]) if "eps_fixed" in vals else None,
        delta_coeff=float(vals.get("delta_coeff", 1.0)))
    window = None
    if "window_lo" in vals or "window_hi" in vals:
        if "window_lo" not in vals or "window_hi" not in vals:
            raise ConfigurationError(
                "window_lo and window_hi must be given together")
        window = (float(vals["window_lo"]), float(vals["window_hi"]))

    scenario, grid, raw_rho, raw_u, a_vals, b_vals, e_minus = \
        make_arrays(name, overrides)
    p = scenario.params
    study = relaxation_study(
        raw_rho, raw_u, a_vals, b_vals, e_minus, grid,
        scenario.gamma, scenario.convention, taus, coupling,
        horizon=float(vals.get("horizon", 0.25)), window=window,
        n_s_records=int(vals.get("n_s_records", 21)),
        s0_frac=float(vals.get("s0_frac", 0.05)),
        cfl=float(p["cfl"]), smoothing_width=float(p["smoothing_width"]))

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["tau,epsilon,delta,l1_error,dissipation"]
    for r in study.rows:
        lines.append(",".join(fmt(v) for v in
                              (r.tau, r.epsilon, r.delta, r.l1_error,
                               r.dissipation)))
    (out_dir / "relax_table.csv").write_text("\n".join(lines) + "\n")
    manifest = dict(study.manifest)
    manifest["monotone"] = study.monotone
    manifest["rows"] = [{"tau": r.tau, "epsilon": r.epsilon, "delta": r.delta,
                         "l1_error": r.l1_error, "dissipation": r.dissipation}
                        for r in study.rows]
    (out_dir / "manifest.json").write_text(json_text(manifest))

    print(f"relaxation sweep on {name}:")
    print(f"  {'tau':>10} {'epsilon':>12} {'delta':>10} "
          f"{'l1_error':>12} {'dissipation':>12}")
    for r in study.rows:
        print(f"  {r.tau:>10.4g} {r.epsilon:>12.4g} {r.delta:>10.4g} "
              f"{r.l1_error:>12.6g} {r.dissipation:>12.6g}")
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
    v.add_argument("--t1", type=float, default=0.01,
                   help="horizon for the fixed-point cross-check")
    v.add_argument("--cross-tol-factor", type=float, default=5.0,
                   dest="cross_tol_factor",
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
