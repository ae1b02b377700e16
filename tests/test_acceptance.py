"""Acceptance suite: the eleven headline guarantees of the package.

One test per guarantee, so the verbose test listing doubles as a pass/fail
ledger.  Calibrated constants (the entropy constant, the dissipation bound)
were measured once on the pinned fixtures and are frozen here; loosening
them to make a failing run pass defeats the point of the suite.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (NEUTRAL_PERIODIC, cell_flux, p1_quadrature,
                     uniform_profile)

from semiflux import (
    CouplingRule,
    GasModel,
    Grid1D,
    PressureConvention,
    SCENARIOS,
    drift_diffusion_run,
    evaluate_trajectory,
    picard_solve,
    relaxation_study,
    run,
)
from semiflux.cli import main
from semiflux.model import RHO_FLOOR_SLACK
from semiflux.monitors import (
    FIELD_TOL,
    MASS_TOL,
    PLATEAU_TOL,
    RIEMANN_TOL,
    entropy_sweep,
    plateau_check,
    plateau_halves,
    random_test_function,
)
from semiflux.picard import CROSS_TOL_FACTOR, cross_check
from semiflux.scenarios import make_setup
from semiflux.solver import cell_averages, march_rungs

SEED = 20260814
ENTROPY_C = 0.25               # frozen: worst measured need was ~0.03
DISSIPATION_BOUND = 0.5        # frozen: worst measured value was ~0.11


def passline(num, label, detail):
    print(f"criterion {num:02d} {label}: PASS ({detail})")


@pytest.fixture(scope="module")
def library_runs():
    """Every scenario at both working resolutions, monitored in full."""
    out = {}
    for name in SCENARIOS:
        for n_cells in (500, 1000):
            setup = make_setup(name, {"n_cells": n_cells})
            t0 = time.perf_counter()
            traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
                       setup.grid, cadence=25)
            wall = time.perf_counter() - t0
            report = evaluate_trajectory(traj)
            out[(name, n_cells)] = SimpleNamespace(
                setup=setup, traj=traj, report=report, wall=wall)
    return out


@pytest.fixture(scope="module")
def periodic_run():
    setup = make_setup("charge-neutral-rest",
                       {**NEUTRAL_PERIODIC, "n_cells": 500})
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, cadence=25)
    report = evaluate_trajectory(traj)
    return SimpleNamespace(setup=setup, traj=traj, report=report)


def test_criterion_01_density_floor_across_library(library_runs):
    worst = math.inf
    for (name, n_cells), item in library_runs.items():
        assert item.traj.completed, f"{name}@{n_cells} stopped early"
        floor = item.setup.model.rho_floor \
            - RHO_FLOOR_SLACK * item.setup.model.delta
        # each record's lowest density spans every step since the record
        # before it, so their minimum is the run's lowest over all steps
        low = item.traj.min_rho
        assert np.all(low <= item.traj.rho.min(axis=1)), f"{name}@{n_cells}"
        assert float(np.min(low)) >= floor, \
            f"{name}@{n_cells}: min rho {float(np.min(low))!r}"
        assert item.wall <= 120.0, f"{name}@{n_cells} took {item.wall:.1f}s"
        worst = min(worst, float(np.min(low)) - item.setup.model.rho_floor)
    passline(1, "density floor", f"worst excess over 2*delta {worst:.3e}")


def test_criterion_02_mass_bound(library_runs, periodic_run):
    # outflow: the excess mass may only leave the domain
    for (name, n_cells), item in library_runs.items():
        masses = item.report.columns["mass"]
        allowance = MASS_TOL * max(1.0, abs(masses[0]))
        assert np.all(np.diff(masses) <= allowance), f"{name}@{n_cells}"
        assert not any(v["monitor"] == "mass"
                       for v in item.report.violations), f"{name}@{n_cells}"
    # periodic: constant to MASS_TOL relative per 1000 steps
    masses = periodic_run.report.columns["mass"]
    drift = float(np.max(np.abs(masses - masses[0])))
    budget = MASS_TOL * max(1.0, abs(masses[0])) \
        * max(1.0, periodic_run.traj.n_steps / 1000.0)
    assert drift <= budget
    assert not any(v["monitor"] == "mass"
                   for v in periodic_run.report.violations)
    passline(2, "mass bound",
             f"periodic drift {drift:.3e} within {budget:.3e}")


def test_criterion_03_field_bound(library_runs):
    # scenarios whose charge has one sign attain the bound exactly (sup E
    # equals the running integral of the whole excess), so strictness is
    # enforced up to the documented rounding allowance of the monitor
    min_margin = math.inf
    for (name, n_cells), item in library_runs.items():
        col = item.report.columns
        margin = col["field_bound"] - col["sup_abs_field"]
        allowance = FIELD_TOL * (1.0 + np.abs(col["field_bound"]))
        held = margin >= -allowance
        assert held.all(), f"{name}@{n_cells} at t={col['time'][~held]}"
        min_margin = min(min_margin, float(np.min(margin)))
        assert not any(v["monitor"] == "field"
                       for v in item.report.violations)
    passline(3, "field bound", f"smallest margin {min_margin:.3e}")


def test_criterion_04_perturbed_pressure_quadrature():
    # P1 as the march reads it: the momentum flux at rest
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for gamma in (1.0, 1.4, 2.0, 3.0):
        for _ in range(250):
            delta = rng.uniform(0.01, 0.2)
            rho = rng.uniform(2.0 * delta + 0.05, 5.0)
            convention = (PressureConvention.PLAIN if rng.integers(2)
                          else PressureConvention.ONE_OVER_GAMMA)
            model = GasModel(gamma=gamma, delta=delta,
                             pressure_convention=convention)
            closed = cell_flux(model, rho, 0.0)[1]
            ref = p1_quadrature(gamma, delta, rho, convention)
            rel = abs(closed - ref) / abs(ref)
            assert rel <= 1e-9, (gamma, delta, rho, convention, rel)
            worst = max(worst, rel)
    # gamma = 1: the closed form IS the antiderivative difference, in the
    # one formula of every gamma, (P(rho) - P(2d)) - 2d (log rho - log 2d)
    # with numpy's log, and within two ulps of the textbook
    # (rho - 2d ln rho) - (2d - 2d ln 2d)
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        delta = rng.uniform(0.01, 0.2)
        rho = rng.uniform(2.0 * delta + 0.01, 5.0)
        model = GasModel(gamma=1.0, delta=delta)
        d2 = 2.0 * delta
        got = cell_flux(model, rho, 0.0)[1]
        assert got == (rho - d2) - d2 * (np.log(rho) - np.log(d2))
        textbook = (rho - d2 * math.log(rho)) - (d2 - d2 * math.log(d2))
        assert abs(got - textbook) <= 2.0 * math.ulp(max(rho, 1.0))
    passline(4, "pressure integral vs quadrature",
             f"worst relative error {worst:.3e} over 1000 samples")


# the rows whose excess density starts away from the doping, no
# stationary or relaxation fixture among them
GROWTH_ROWS = ("vacuum-rest", "gaussian-bump", "isothermal-bump")


def test_criterion_05_invariant_growth_bound(library_runs):
    checked = 0
    worst = math.inf
    for (name, n_cells), item in library_runs.items():
        if name not in GROWTH_ROWS:
            continue
        checked += 1
        col = item.report.columns
        slack = float(np.min(col["riemann_bound"]
                             - np.maximum(col["z_max"], col["w_max"])))
        assert slack >= -RIEMANN_TOL, f"{name}@{n_cells}: slack {slack!r}"
        assert col["time"][-1] >= 5.0 - 1e-9
        worst = min(worst, slack)
    assert checked >= 6  # three scenarios at two resolutions
    passline(5, "invariant growth bound", f"smallest slack {worst:.3e}")


def test_criterion_06_time_uniform_plateaus():
    t0 = time.perf_counter()
    setup = make_setup("doping-ramp", {"t_end": 50.0})
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, cadence=50)
    report = evaluate_trajectory(traj)
    assert setup.model.gamma == 2.0
    assert "uniform" not in report.unjudged
    growths = []
    uniform = {c.series: c.passed for c in report.checks
               if c.check == "uniform"}
    for series in ("sup_rho", "sup_abs_u"):
        early = report.summary[f"plateau_{series}_early"]
        late = report.summary[f"plateau_{series}_late"]
        assert uniform[series]
        assert late <= early * (1.0 + PLATEAU_TOL) + 1e-30
        growths.append(late / early - 1.0)

    iso = make_setup("isothermal-bump", {"t_end": 50.0})
    iso_traj = run(iso.initial, iso.profile, iso.model, iso.cfg, iso.grid,
                   cadence=50)
    iso_report = evaluate_trajectory(iso_traj)
    assert iso.model.gamma == 1.0
    # the summary judges sup rho and sup |u| at gamma = 1 too; the log
    # invariants w, z = ln rho +- u of monitors.csv must plateau as well
    iso_uniform = {c.series: c.passed for c in iso_report.checks
                   if c.check == "uniform"}
    for series in ("sup_rho", "sup_abs_u"):
        assert iso_uniform[series]
        early = iso_report.summary[f"plateau_{series}_early"]
        late = iso_report.summary[f"plateau_{series}_late"]
        assert late <= early * (1.0 + PLATEAU_TOL) + 1e-30
        growths.append(late / early - 1.0)
    for series in ("w_max", "z_max"):
        early, late = plateau_halves(iso_traj.times,
                                     iso_report.columns[series])
        row = plateau_check(early, late, iso_traj.times[-1], series)
        assert row.passed and row.value == late
        assert late <= early + PLATEAU_TOL * abs(early) + 1e-30
        growths.append((late - early) / max(abs(early), 1e-30))
    wall = time.perf_counter() - t0
    assert wall <= 600.0
    passline(6, "time-uniform plateaus",
             f"largest late-half growth {max(growths):+.2e}, {wall:.0f}s")


def test_criterion_07_entropy_inequality_on_shock_run():
    setup = make_setup("gaussian-bump", {
        "bump_amplitude": 1.5, "bump_speed": 1.2, "bump_width": 0.3,
        "epsilon": 2e-4, "t_end": 1.5, "n_cells": 500})
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, cadence=2)
    assert traj.completed
    rng = np.random.default_rng(SEED)
    times = traj.times
    span = times[-1] - times[0]
    phis = [random_test_function(rng, setup.grid.x_min, setup.grid.x_max,
                                 times[0] + 0.05 * span,
                                 times[-1] - 0.05 * span)
            for _ in range(20)]
    residuals, scale = entropy_sweep(traj, phis)
    tol = ENTROPY_C * (setup.grid.dx + setup.cfg.epsilon) * scale
    for res in residuals:
        assert res >= -tol, f"residual {res!r} below -{tol!r}"
    worst = min(residuals)
    passline(7, "entropy inequality",
             f"smallest residual {worst:.3e} vs floor {-tol:.3e}")


def test_criterion_08_picard_cross_validation():
    setup = make_setup("gaussian-bump", {"epsilon": 0.01})
    t1 = 0.01
    result = picard_solve(setup.initial, setup.profile, setup.model,
                          setup.cfg, setup.grid, t1, n_intervals=8,
                          tol=1e-14)
    rep = result.report
    assert rep.converged and not rep.diverged
    assert not rep.band_violations
    ratios = rep.ratios[1:]
    assert len(ratios) >= 5
    assert all(r < 1.0 for r in ratios)

    # the march to t1 on the Picard grid, judged by the one cross-check
    row = cross_check(result, setup.grid, t1, setup, setup.initial)
    assert (row.check, row.time) == ("picard", t1)
    assert row.value <= row.bound
    # the tolerance is CROSS_TOL_FACTOR * (dx + mean dt), dt > 0
    assert row.bound > CROSS_TOL_FACTOR * setup.grid.dx
    assert row.passed
    passline(8, "fixed-point cross-validation",
             f"{len(ratios)} ratios max {max(ratios):.3f}, "
             f"endpoint gap {row.value:.3e} <= {row.bound:.3e}")


def test_criterion_09_relaxation_limit():
    t0 = time.perf_counter()
    setup = make_setup("gaussian-bump",
                       {"x_min": -4.0, "x_max": 4.0, "n_cells": 800})
    study = relaxation_study(setup, [0.2, 0.1, 0.05], CouplingRule(),
                             horizon=0.25)
    wall = time.perf_counter() - t0
    errs = [r.l1_error for r in study.rows]
    assert study.monotone.passed
    assert study.monotone.value == max(errs[1] - errs[0], errs[2] - errs[1])
    assert errs[0] > errs[1] > errs[2]
    diss = [r.dissipation for r in study.rows]
    assert max(diss) <= DISSIPATION_BOUND
    assert wall <= 900.0
    passline(9, "relaxation limit",
             f"l1 ladder {errs[0]:.3f} > {errs[1]:.3f} > {errs[2]:.3f}, "
             f"max dissipation {max(diss):.3f}, {wall:.0f}s")


def test_criterion_10_self_convergence():
    # L1 self-differences under dx halving, each run restricted onto the
    # coarsest grid by exact cell averages; on one grid dx cancels
    def l1(a, b):
        return float(np.sum(np.abs(a - b)))

    # hydro
    rungs = [make_setup("gaussian-bump", {"n_cells": n_cells, "t_end": 0.3})
             for n_cells in (250, 500, 1000)]
    rho = [traj.rho[-1] for traj in march_rungs(
        [(setup, setup.initial, [0.3]) for setup in rungs], rungs[0].grid)]
    factor = l1(rho[0], rho[1]) / l1(rho[1], rho[2])
    assert factor >= 1.8

    # drift-diffusion: measured order
    dd_grids = [Grid1D(-4.0, 4.0, n_cells) for n_cells in (200, 400, 800)]
    model = GasModel(gamma=1.4, delta=0.05)
    n_end = []
    for dd_grid in dd_grids:
        n0 = 0.5 + 0.8 * np.exp(-dd_grid.centers ** 2)
        out = drift_diffusion_run(n0, uniform_profile(dd_grid), model,
                                  dd_grid, s_end=0.1)
        n_end.append(cell_averages(out.n_vals[-1], dd_grid, dd_grids[0]))

    order = math.log2(l1(n_end[0], n_end[1]) / l1(n_end[1], n_end[2]))
    assert order >= 1.0
    passline(10, "self-convergence",
             f"hydro factor {factor:.3f}, diffusion order {order:.3f}")


def test_criterion_11_deterministic_reports(tmp_path):
    cfg = tmp_path / "run.cfg"
    # scoped monitor list: a 0.5s run legitimately trips the long-time
    # plateau monitor, and the point here is byte identity, not verdicts
    cfg.write_text(
        "scenario = gaussian-bump\nn_cells = 200\nt_end = 0.5\n"
        "epsilon = 0.01\ncadence = 5\nseed = 11\n"
        "monitors = positivity,mass,field,riemann,entropy\n")
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc = main(["solve", "--config", str(cfg), "--out-dir", str(d)])
        assert rc == 0
    names = ["report.json", "monitors.csv", "violations.json", "profile.dat"]
    names += sorted(p.relative_to(dirs[0]).as_posix()
                    for p in (dirs[0] / "snapshots").iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), \
            f"{name} differs between identical invocations"
    payload = json.loads((dirs[0] / "report.json").read_text())
    assert payload["config"]["seed"] == 11
    passline(11, "deterministic reports",
             f"{len(names)} files byte-identical across repeat runs")
