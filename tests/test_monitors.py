"""Monitor and entropy machinery tests.

Synthetic trajectories are assembled by hand so each monitor can be driven
into its firing condition deliberately; the entropy residual is checked on
states where the weak form collapses to something computable.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflux import (
    ALL_MONITORS,
    Boundary,
    DeviceProfile,
    GasModel,
    Grid1D,
    SolverConfig,
    SourceVariant,
    Trajectory,
    dissipation_integral,
    entropy_spot_check,
    entropy_sweep,
    evaluate_trajectory,
    plateau_check,
)
from semiflux import monitors
from semiflux.monitors import (MONITOR_COLUMNS, PLATEAU_TOL, Check,
                               _mechanical_energy, plateau_halves,
                               random_test_function)
from semiflux.monitors import TestFunction as SpaceTimeBump
from semiflux.reporting import audited_texts
from semiflux.scenarios import make_setup
from semiflux.solver import run

from helpers import (NEUTRAL_PERIODIC, convexity_check,
                     entropy_residual_reference,
                     entropy_scale_reference,
                     entropy_spot_check_pairs_reference,
                     monitor_table_reference, phi_reference,
                     uniform_profile)


def make_traj(grid, model, frames, profile, cfg=SolverConfig()):
    """frames: list of (time, rho, mom) tuples, stacked into a trajectory
    of `profile` and `cfg` whose record k is step k, so each record's
    lowest density is its own row's; its field is derived from rho."""
    times, rho, mom = zip(*frames)
    rho = np.array(rho, dtype=float)
    return Trajectory(grid=grid, model=model, profile=profile, cfg=cfg,
                      steps=np.arange(len(frames)),
                      times=np.array(times, dtype=float), rho=rho,
                      mom=np.array(mom, dtype=float), min_rho=rho.min(axis=1))


def bump_values(phi, x, t):
    """(phi, phi_x, phi_t) of a bump, combined as the entropy sweep does."""
    return phi.combine(phi.space_factors(x), phi.time_factors(t))


def rest_frames(grid, rho0=1.0, times=(0.0, 1.0, 2.0, 3.0)):
    n = grid.n_cells
    return [(t, np.full(n, rho0), np.zeros(n)) for t in times]


def plateau_row(times, series):
    """(early, late, the `uniform` row) of a series over `times`."""
    early, late = plateau_halves(times, series)
    return early, late, plateau_check(early, late, times[-1])


class TestPlateauCheck:
    def test_flat_series_passes(self):
        t = np.linspace(0.0, 4.0, 9)
        early, late, row = plateau_row(t, np.ones(9))
        assert row.passed and early == 1.0 and late == 1.0
        assert row == Check("uniform", 1.0, 1.01, True, 4.0)

    def test_decay_passes(self):
        t = np.linspace(0.0, 4.0, 9)
        assert plateau_row(t, np.exp(-t))[2].passed

    def test_late_growth_fails(self):
        t = np.linspace(0.0, 4.0, 9)
        series = np.where(t > 2.0, 1.2, 1.0)
        early, late, row = plateau_row(t, series)
        assert not row.passed
        assert early == 1.0
        assert late == 1.2

    def test_growth_within_tolerance_passes(self):
        t = np.linspace(0.0, 4.0, 9)
        series = np.where(t > 2.0, 1.005, 1.0)
        assert plateau_row(t, series)[2].passed

    def test_bound_is_the_pass_rule(self):
        # the row passes exactly up to the bound it reports, early * 1.01
        t = np.linspace(0.0, 4.0, 9)
        bound = 0.7 * (1.0 + PLATEAU_TOL)
        for late, passed in ((bound, True), (np.nextafter(bound, 1.0), False)):
            series = np.where(t > 2.0, late, 0.7)
            row = plateau_row(t, series)[2]
            assert (row.value, row.bound, row.passed) == (late, bound, passed)

    def test_negative_early_allows_the_same_rise(self):
        # early = -0.1: the bound is -0.099, a rise of 1 % of |early|, not
        # -0.101, which would demand a fall of 1 %
        bound = -0.1 * (1.0 - PLATEAU_TOL)
        for late, passed in ((-0.0995, True), (bound, True),
                             (np.nextafter(bound, 1.0), False),
                             (-0.098, False)):
            row = plateau_check(-0.1, late, 4.0, "w_max")
            assert (row.bound, row.passed) == (bound, passed)

    def test_degenerate_split_fails(self):
        # a nan half fails the row; `evaluate_trajectory` never emits one,
        # since uniform declines a run without a time span
        early, late, row = plateau_row(np.array([0.0]), np.array([5.0]))
        assert not row.passed
        assert np.isnan(early) and np.isnan(late)


class TestEvaluateTrajectory:
    def setup_method(self):
        self.grid = Grid1D(-5.0, 5.0, 64, boundary=Boundary.OUTFLOW)
        self.model = GasModel(gamma=2.0, delta=0.05)
        self.profile = uniform_profile(self.grid)

    def test_rest_state_is_clean(self):
        traj = make_traj(self.grid, self.model, rest_frames(self.grid),
                         self.profile)
        report = evaluate_trajectory(traj)
        assert report.violations == []
        assert list(report.columns) == list(MONITOR_COLUMNS)
        assert {len(c) for c in report.columns.values()} == {4}
        assert report.summary["completed"]

    def test_positivity_fires_below_slackened_floor(self):
        frames = rest_frames(self.grid)
        bad = frames[2][1].copy()
        bad[5] = self.model.rho_floor - 1e-6
        frames[2] = (frames[2][0], bad, frames[2][2])
        traj = make_traj(self.grid, self.model, frames, self.profile)
        report = evaluate_trajectory(traj)
        kinds = [v["monitor"] for v in report.violations]
        assert "positivity" in kinds

    def test_tiny_undershoot_is_tolerated(self):
        frames = rest_frames(self.grid)
        bad = frames[2][1].copy()
        bad[5] = self.model.rho_floor - 1e-14 * self.model.delta
        frames[2] = (frames[2][0], bad, frames[2][2])
        traj = make_traj(self.grid, self.model, frames, self.profile)
        report = evaluate_trajectory(traj)
        assert all(v["monitor"] != "positivity" for v in report.violations)

    def test_outflow_mass_gain_fires(self):
        frames = rest_frames(self.grid)
        frames[3] = (frames[3][0], frames[3][1] + 0.01, frames[3][2])
        traj = make_traj(self.grid, self.model, frames, self.profile)
        report = evaluate_trajectory(traj)
        assert any(v["monitor"] == "mass" for v in report.violations)

    def test_periodic_mass_allowance_scales_with_steps(self):
        grid = Grid1D(-5.0, 5.0, 64, boundary=Boundary.PERIODIC)
        profile = uniform_profile(grid)
        n = grid.n_cells
        mass_scale = (1.0 - self.model.rho_floor) * 10.0  # initial excess mass
        drift = 2e-12 * mass_scale / (grid.x_max - grid.x_min)
        frames = [(0.0, np.full(n, 1.0), np.zeros(n)),
                  (1.0, np.full(n, 1.0 + drift), np.zeros(n))]
        traj = make_traj(grid, self.model, frames, profile)
        traj.steps[1] = 5000  # allowance grows to 5e-12 * scale
        report = evaluate_trajectory(traj)
        assert all(v["monitor"] != "mass" for v in report.violations)
        traj.steps[1] = 500  # back to the per-1000-step budget
        report = evaluate_trajectory(traj)
        assert any(v["monitor"] == "mass" for v in report.violations)

    def test_field_monitor_fires_on_inflated_field(self):
        # the sup bound assumes a non-negative excess: a charge dipole keeps
        # the excess mass but drives the field derived from rho past it
        frames = rest_frames(self.grid)
        n = self.grid.n_cells
        dipole = np.where(np.arange(n) < n // 2, -5.0, 5.0)
        frames[2] = (frames[2][0], frames[2][1] + dipole, frames[2][2])
        traj = make_traj(self.grid, self.model, frames, self.profile)
        report = evaluate_trajectory(traj)
        fired = [v for v in report.violations if v["monitor"] == "field"]
        assert [v["time"] for v in fired] == [2.0]
        assert fired[0]["value"] > 2.0 * fired[0]["bound"]

    def test_riemann_monitor_fires_on_invariant_blowup(self):
        frames = rest_frames(self.grid, times=(0.0, 1e-6))
        n = self.grid.n_cells
        frames[1] = (frames[1][0], frames[1][1], np.full(n, 5.0))
        traj = make_traj(self.grid, self.model, frames, self.profile)
        report = evaluate_trajectory(traj)
        assert any(v["monitor"] == "riemann" for v in report.violations)

    def test_plateau_gated_on_profile_hypotheses(self):
        n = self.grid.n_cells
        frames = []
        for k, t in enumerate((0.0, 1.0, 2.0, 3.0)):
            rho = np.full(n, 1.0 + (0.2 if t > 1.5 else 0.0))
            frames.append((t, rho, np.zeros(n)))
        traj = make_traj(self.grid, self.model, frames, self.profile)

        report = evaluate_trajectory(traj)
        assert any(v["monitor"] == "uniform" for v in report.violations)
        assert report.summary["plateau_sup_rho_ok"] is False
        assert report.unjudged == {}

        rising_a = np.linspace(1.0, 2.0, n)
        loose = DeviceProfile.build(self.grid, rising_a, np.zeros(n), 0.0)
        assert not loose.check.ok
        report = evaluate_trajectory(replace(traj, profile=loose))
        assert all(v["monitor"] != "uniform" for v in report.violations)
        assert report.summary["plateau_sup_rho_ok"] is False
        # the report names the skipped monitor and the first failing
        # hypothesis, the reason solve prints
        assert report.unjudged == {"uniform": "damping non-increasing"}
        assert loose.check.first_failure == "damping non-increasing"

    @pytest.mark.parametrize("enabled", [("uniform", "entropy"), ("entropy",),
                                         ("positivity",)])
    def test_short_run_names_the_whole_run_monitors_it_skips(self, enabled):
        traj = make_traj(self.grid, self.model,
                         rest_frames(self.grid, times=(0.0, 1.0, 2.0)),
                         self.profile)
        report = evaluate_trajectory(traj, enabled)
        assert report.unjudged == {m: "need 4 records, got 3"
                                   for m in enabled if m != "positivity"}
        assert entropy_spot_check(traj, seed=0) == ([], [])

    def test_entropy_without_a_time_span_is_not_judged(self):
        # four records at one instant: neither whole-run monitor has a time
        # span to judge over (uniform's halves would be empty)
        traj = make_traj(self.grid, self.model,
                         rest_frames(self.grid, times=(1.0,) * 4),
                         self.profile)
        report = evaluate_trajectory(traj)
        assert report.unjudged == {"uniform": "no recorded time span",
                                   "entropy": "no recorded time span"}
        assert "uniform" not in {c.check for c in report.checks}
        assert not any(k.startswith("plateau_") for k in report.summary)
        assert entropy_spot_check(traj, seed=0) == ([], [])

    def test_isothermal_plateau_tracks_sup_rho_and_sup_u(self):
        model = GasModel(gamma=1.0, delta=0.05)
        n = self.grid.n_cells
        frames = []
        for t in (0.0, 1.0, 2.0, 3.0):
            u = 0.5 if t > 1.5 else 0.0
            rho = np.full(n, 1.0)
            frames.append((t, rho, rho * u))
        traj = make_traj(self.grid, model, frames, self.profile)
        report = evaluate_trajectory(traj)
        fired = [v for v in report.violations if v["monitor"] == "uniform"]
        # at gamma = 1 too the plateaus are those of sup rho and sup |u|
        assert [v["series"] for v in fired] == ["sup_abs_u"]
        assert report.summary["plateau_sup_rho_ok"] is True
        assert not any(k.startswith(("plateau_w_max", "plateau_z_max"))
                       for k in report.summary)

    def test_violations_file_holds_exactly_the_failed_rows(self):
        # density jumps up in the late half: the mass rows of the last two
        # records and the sup_rho plateau row fail; every other row passes
        # and stays out of violations.json
        n = self.grid.n_cells
        frames = [(t, np.full(n, 1.2 if t > 1.5 else 1.0), np.zeros(n))
                  for t in (0.0, 1.0, 2.0, 3.0)]
        traj = make_traj(self.grid, self.model, frames, self.profile)
        report, texts = audited_texts(traj, {"monitors": "all", "seed": 0})
        failed = [c for c in report.checks if not c.passed]
        stored = json.loads(texts["violations.json"])
        assert stored == [c.entry() for c in failed] == report.violations
        assert [(c.check, c.time, c.series) for c in failed] == [
            ("mass", 2.0, None), ("mass", 3.0, None),
            ("uniform", 3.0, "sup_rho")]
        assert stored[-1]["series"] == "sup_rho"
        passing = [c.entry() for c in report.checks if c.passed]
        # 4 rows per record, the sup_abs_u plateau, 3 entropy rows
        assert len(passing) == 4 * 4 - 2 + 1 + 3
        assert not [e for e in passing if e in stored]

    def test_disabled_monitors_stay_silent(self):
        frames = rest_frames(self.grid)
        bad = frames[2][1].copy()
        bad[5] = self.model.rho_floor - 1e-2
        frames[2] = (frames[2][0], bad, frames[2][2])
        traj = make_traj(self.grid, self.model, frames, self.profile)
        report = evaluate_trajectory(traj, ("mass",))
        assert all(v["monitor"] != "positivity" for v in report.violations)

    def test_excess_mass_of_rest_state(self):
        traj = make_traj(self.grid, self.model, rest_frames(self.grid),
                         self.profile)
        report = evaluate_trajectory(traj)
        expected = (1.0 - self.model.rho_floor) * 10.0
        mass = report.columns["mass"].tolist()
        assert mass == pytest.approx([expected] * len(mass), rel=1e-12)


class TestMonitorTable:
    """The monitor table, one array per column, and the per-record rows,
    one array rule per monitor, are the per-record loop's bit for bit
    (`monitor_table_reference`), NaN cells included."""

    PER_RECORD = ("positivity", "mass", "field", "riemann")

    @staticmethod
    def assert_matches(traj, enabled=ALL_MONITORS):
        report = evaluate_trajectory(traj, enabled)
        columns, checks = monitor_table_reference(traj, enabled)
        assert list(report.columns) == list(columns) == list(MONITOR_COLUMNS)
        for name, column in columns.items():
            assert np.array_equal(report.columns[name], column,
                                  equal_nan=True), name
        rows = [c for c in report.checks
                if c.check in TestMonitorTable.PER_RECORD]
        # == on every row without a nan value (a nan equals no nan), and
        # repr on all: each value's exact float and its Python type, as
        # violations.json renders it
        assert [c for c in rows if not np.isnan(c.value)] \
            == [c for c in checks if not np.isnan(c.value)]
        assert [repr(c) for c in rows] == [repr(c) for c in checks]
        return report

    def test_gaussian_bump_run(self, bump_traj):
        self.assert_matches(bump_traj)

    def test_periodic_run(self):
        setup = make_setup("charge-neutral-rest",
                           {**NEUTRAL_PERIODIC, "n_cells": 200,
                            "t_end": 1.0})
        traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
                   setup.grid, cadence=20)
        assert traj.grid.boundary is Boundary.PERIODIC
        self.assert_matches(traj)

    @pytest.mark.parametrize("enabled", [("mass", "riemann"), ("field",),
                                         ("uniform", "entropy")])
    def test_subset_of_monitors(self, bump_traj, enabled):
        report = self.assert_matches(bump_traj, enabled)
        assert {c.check for c in report.checks} <= set(enabled)

    def test_nan_momentum_and_density_below_floor(self):
        grid = Grid1D(-5.0, 5.0, 64, boundary=Boundary.OUTFLOW)
        model = GasModel(gamma=2.0, delta=0.05)
        frames = rest_frames(grid, times=(0.0, 1.0, 2.0, 3.0, 4.0))
        frames[1][1][5] = model.rho_floor - 1e-3
        frames[2][2][9] = np.nan
        frames[3][1][:] += 0.01   # mass gained past record 0's
        traj = make_traj(grid, model, frames, uniform_profile(grid))
        report = self.assert_matches(traj)
        col = report.columns
        assert np.isnan(col["sup_abs_u"][2]) and np.isnan(col["z_max"][2])
        # the nan momentum fails riemann at its record and uniform's
        # sup |u| series, whose early half it falls in
        assert [(c.check, c.time, c.series) for c in report.checks
                if not c.passed] == [
            ("positivity", 1.0, None), ("mass", 2.0, None),
            ("riemann", 2.0, None), ("mass", 3.0, None),
            ("uniform", 4.0, "sup_abs_u")]


class TestNanRecord:
    """A nan in one cell of one record fails every row that reads it: each
    pass rule is `value <op> bound`, which a nan fails."""

    # failed rows by (check, record index, series); the last record is the
    # time uniform's rows carry
    FAILED = {
        "rho": {("positivity", 3, None), ("mass", 3, None),
                ("field", 3, None), ("riemann", 3, None), ("mass", 4, None),
                ("uniform", 6, "sup_rho"), ("uniform", 6, "sup_abs_u")},
        "mom": {("riemann", 3, None), ("uniform", 6, "sup_abs_u")},
    }

    @pytest.mark.parametrize("field", ["rho", "mom"])
    def test_nan_cell_fails_the_rows_that_read_it(self, field):
        setup = make_setup("gaussian-bump", {"n_cells": 100, "t_end": 0.5})
        traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
                   setup.grid, cadence=2)
        assert len(traj.times) == 7
        getattr(traj, field)[3, 50] = np.nan
        report = evaluate_trajectory(traj)
        index = {t: i for i, t in enumerate(traj.times.tolist())}
        assert {(c.check, index[c.time], c.series) for c in report.checks
                if not c.passed} == self.FAILED[field]
        assert report.summary["plateau_sup_abs_u_ok"] is False
        assert report.summary["plateau_sup_rho_ok"] is (field == "mom")
        # every test function's weak form sums the whole record
        results, checks = entropy_spot_check(traj, seed=0)
        assert len(checks) == 3 and not any(c.passed for c in checks)
        assert all(np.isnan(r["residual"]) for r in results)

class TestEntropyPair:
    def test_floor_state_has_zero_entropy(self):
        for gamma in (1.0, 1.4, 2.0):
            model = GasModel(gamma=gamma, delta=0.05)
            eta, q, _ = _mechanical_energy(model, model.rho_floor, 0.0)
            assert eta == 0.0
            assert q == 0.0

    def test_isothermal_internal_energy_is_logarithmic(self):
        model = GasModel(gamma=1.0, delta=0.05)
        rho = 1.7
        assert _mechanical_energy(model, rho, 0.0)[0] == pytest.approx(
            rho * np.log(rho / 0.1), rel=1e-13)

    def test_velocity_multiplier(self):
        model = GasModel(gamma=1.4, delta=0.05)
        assert _mechanical_energy(model, 2.0, 1.0)[2] == pytest.approx(0.5)

    @given(rho=st.floats(0.100001, 4.0), u=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_entropy_nonnegative_above_floor(self, rho, u):
        model = GasModel(gamma=1.4, delta=0.05)
        assert _mechanical_energy(model, rho, rho * u)[0] >= -1e-12

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
    def test_hessian_positive_semidefinite(self, gamma):
        model = GasModel(gamma=gamma, delta=0.05)
        rng = np.random.default_rng(11)
        rho = rng.uniform(0.15, 3.0, size=40)
        mom = rng.uniform(-2.0, 2.0, size=40)
        assert convexity_check(
            lambda r, m: _mechanical_energy(model, r, m)[0], rho, mom) >= -1e-6


class TestBumpFunction:
    def test_compact_support(self):
        phi = SpaceTimeBump(x_center=0.0, x_width=1.0,
                           t_center=0.5, t_width=0.25)
        assert bump_values(phi, 1.0, 0.5)[0] == 0.0
        assert bump_values(phi, -1.5, 0.5)[0] == 0.0
        assert bump_values(phi, 0.0, 0.76)[0] == 0.0
        assert bump_values(phi, 0.0, 0.5)[0] > 0.0

    def test_peak_at_center(self):
        phi = SpaceTimeBump(0.0, 1.0, 0.5, 0.25)
        assert bump_values(phi, 0.0, 0.5)[0] == pytest.approx(np.exp(-2.0),
                                                             rel=1e-12)

    def test_space_derivative_matches_finite_difference(self):
        phi = SpaceTimeBump(0.3, 0.8, 0.5, 0.25)
        x = np.linspace(-0.3, 0.9, 17)
        h = 1e-6
        fd = (bump_values(phi, x + h, 0.5)[0]
              - bump_values(phi, x - h, 0.5)[0]) / (2 * h)
        assert np.allclose(bump_values(phi, x, 0.5)[1], fd, rtol=1e-5,
                           atol=1e-8)

    def test_time_derivative_matches_finite_difference(self):
        phi = SpaceTimeBump(0.0, 1.0, 0.5, 0.3)
        t = np.linspace(0.3, 0.7, 9)
        h = 1e-7
        fd = (bump_values(phi, 0.1, t + h)[0]
              - bump_values(phi, 0.1, t - h)[0]) / (2 * h)
        assert np.allclose(bump_values(phi, 0.1, t)[2], fd, rtol=1e-4,
                           atol=1e-8)

    def test_derivative_is_odd_about_center(self):
        phi = SpaceTimeBump(0.0, 1.0, 0.5, 0.25)
        assert bump_values(phi, 0.4, 0.5)[1] == pytest.approx(
            -bump_values(phi, -0.4, 0.5)[1])

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_random_bump_support_inside_box(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_test_function(rng, -5.0, 5.0, 0.0, 2.0)
        assert phi.x_center - phi.x_width >= -5.0
        assert phi.x_center + phi.x_width <= 5.0
        assert phi.t_center - phi.t_width >= 0.0
        assert phi.t_center + phi.t_width <= 2.0


class TestEntropyResidual:
    def test_floor_state_residual_is_exactly_zero(self):
        grid = Grid1D(-5.0, 5.0, 100)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        n = grid.n_cells
        frames = [(t, np.full(n, model.rho_floor), np.zeros(n))
                  for t in np.linspace(0.0, 1.0, 11)]
        traj = make_traj(grid, model, frames, profile)
        phi = SpaceTimeBump(0.0, 2.0, 0.5, 0.3)
        assert entropy_sweep(traj, [phi])[0] == [0.0]

    def test_constant_state_residual_is_quadrature_small(self):
        # eta and q are constants, so the weak form reduces to integrals of
        # exact derivatives of a compactly supported bump: zero up to
        # midpoint/trapezoid quadrature error.
        grid = Grid1D(-5.0, 5.0, 400)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        n = grid.n_cells
        times = np.linspace(0.0, 1.0, 81)
        frames = [(t, np.full(n, 1.0), np.zeros(n))
                  for t in times]
        traj = make_traj(grid, model, frames, profile)
        phi = SpaceTimeBump(0.0, 2.0, 0.5, 0.3)
        (res,), _ = entropy_sweep(traj, [phi])
        scale = float(_mechanical_energy(model, 1.0, 0.0)[0]) * 2.0 * 2.0
        assert abs(res) < 1e-3 * scale

    def test_spot_check_deterministic_in_seed(self, bump_traj, bump_setup):
        r1, c1 = entropy_spot_check(bump_traj, seed=42)
        r2, c2 = entropy_spot_check(bump_traj, seed=42)
        assert r1 == r2 and c1 == c2
        r3, _ = entropy_spot_check(bump_traj, seed=43)
        assert [d["x_center"] for d in r3] != [d["x_center"] for d in r1]

    def test_spot_check_clean_on_smooth_run(self, monkeypatch, bump_traj,
                                            bump_setup):
        monkeypatch.setattr(monitors, "N_PHI", 5)
        results, checks = entropy_spot_check(bump_traj, seed=7)
        assert len(results) == 5
        assert [(c.check, c.value, c.bound, c.time) for c in checks] == [
            ("entropy", r["residual"], -r["tolerance"], r["t_center"])
            for r in results]
        assert all(c.passed for c in checks)

    def test_short_trajectory_is_skipped(self):
        grid = Grid1D(-5.0, 5.0, 64)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        traj = make_traj(grid, model, rest_frames(grid, times=(0.0, 1.0)),
                         profile, SolverConfig(tau=1.0, epsilon=1e-3))
        results, checks = entropy_spot_check(traj, seed=0)
        assert results == [] and checks == []

    def test_tolerance_scale_follows_source_variant(self):
        # on the vacuum floor the excess-density source vanishes, while the
        # full-density damping a*m/tau would dominate the tolerance scale
        grid = Grid1D(-5.0, 5.0, 64)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        n = grid.n_cells
        rho, mom = np.full(n, model.rho_floor), np.full(n, 0.05)
        traj = make_traj(grid, model, [(t, rho, mom)
                                       for t in (0.0, 1.0, 2.0, 3.0)],
                         profile, SolverConfig(
                             tau=0.01, epsilon=1e-3,
                             source_variant=SourceVariant.EXCESS_DENSITY))
        eta, q, _ = _mechanical_energy(model, rho, mom)
        scale = max(float(np.max(np.abs(eta))),
                    float(np.max(np.abs(q))))
        results, _ = entropy_spot_check(traj, seed=0)
        expected = (grid.dx + 1e-3 + 1.0) * scale
        assert results[0]["tolerance"] == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def periodic_excess():
    setup = make_setup("charge-neutral-rest", {
        **NEUTRAL_PERIODIC, "n_cells": 120, "t_end": 0.6,
        "source_variant": "excess-density"})
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, cadence=5)
    return setup, traj


class TestEntropySweep:
    """The one-pass entropy audit reproduces the per-test-function walks
    kept in tests/helpers.py to the last bit."""

    def test_bump_factors_match_reference(self):
        phi = SpaceTimeBump(0.3, 0.8, 0.5, 0.3)
        x = np.linspace(-1.0, 1.5, 41)
        for t in (0.1, 0.21, 0.37, 0.5, 0.66, 0.79, 0.9):
            want = phi_reference(phi, x, t)
            got = bump_values(phi, x, t)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("case", ["outflow-full", "periodic-excess"])
    def test_spot_check_equals_reference(self, case, bump_setup, bump_traj,
                                         periodic_excess):
        setup, traj = ((bump_setup, bump_traj) if case == "outflow-full"
                       else periodic_excess)
        variant = setup.cfg.source_variant
        for seed in (0, 7):
            results, _ = entropy_spot_check(traj, seed)
            want = entropy_spot_check_pairs_reference(
                traj, setup.profile, setup.cfg.tau, setup.cfg.epsilon, seed,
                source_variant=variant)
            assert [(r["residual"], r["tolerance"]) for r in results] == want

    @pytest.mark.parametrize("variant", list(SourceVariant))
    def test_sweep_equals_reference(self, variant, periodic_excess):
        # a stiff tau lets the source term set the scale, so each variant
        # gives its own
        setup, traj = periodic_excess
        tau = 1e-3
        phis = [SpaceTimeBump(-0.5, 2.0, 0.3, 0.2),
                SpaceTimeBump(1.0, 1.5, 0.35, 0.15)]
        stiff = replace(traj, cfg=replace(traj.cfg, tau=tau,
                                          source_variant=variant))
        residuals, scale = entropy_sweep(stiff, phis)
        assert residuals == [entropy_residual_reference(
            traj, setup.profile, phi, tau, variant) for phi in phis]
        assert scale == entropy_scale_reference(traj, setup.profile,
                                                tau, variant)

    def test_densities_evaluated_once_per_snapshot(self, monkeypatch,
                                                   bump_setup, bump_traj):
        # the energy is evaluated once per block of records: the rows it
        # sees are the (floored) records, each once and in order, wherever
        # the block boundaries fall
        real_energy = monitors._mechanical_energy
        floored = np.maximum(bump_traj.rho, bump_traj.model.rho_floor)
        n = bump_traj.grid.n_cells
        for block_cells in (monitors.BLOCK_CELLS, 3 * n, n):
            seen = []

            def recording_energy(model, rho, mom):
                seen.append(rho)
                return real_energy(model, rho, mom)

            monkeypatch.setattr(monitors, "BLOCK_CELLS", block_cells)
            monkeypatch.setattr(monitors, "_mechanical_energy",
                                recording_energy)
            results, _ = entropy_spot_check(bump_traj, seed=3)
            assert len(results) == 3
            assert sum(len(rho) for rho in seen) == len(bump_traj.times)
            assert np.array_equal(np.concatenate(seen), floored)


@pytest.fixture(scope="module")
def eight_records(bump_setup):
    """bump_setup's run recorded at eight instants, records 3 and 6 given
    extra mass, so that the mass monitor fires at both: each the first
    record of a block when blocks hold three."""
    s = bump_setup
    traj = run(s.initial, s.profile, s.model, s.cfg, s.grid,
               record_times=np.linspace(0.0, s.cfg.t_end, 8)[1:])
    rho = traj.rho.copy()
    rho[3] += 0.02
    rho[6] += 0.01
    return replace(traj, rho=rho)


class TestRecordBlocks:
    """The audit runs over blocks of records, each quantity evaluated once
    per block; its bits are the per-record audit's wherever the block
    boundaries fall, and its workspace is a block's whatever the record
    count."""

    PHIS = (SpaceTimeBump(-0.5, 2.0, 0.5, 0.3),
            SpaceTimeBump(1.0, 1.5, 0.4, 0.2))

    @pytest.mark.parametrize("per_block,sizes", [(3, [3, 3, 2]),
                                                 (1, [1] * 8)],
                             ids=["3-3-2", "one-record"])
    def test_audit_is_independent_of_block_boundaries(
            self, monkeypatch, bump_setup, eight_records, per_block, sizes):
        traj, phis = eight_records, list(self.PHIS)
        report, sweep = evaluate_trajectory(traj), entropy_sweep(traj, phis)
        assert [(v["monitor"], v["time"]) for v in report.violations[:2]] \
            == [("mass", t) for t in traj.times[[3, 6]].tolist()]
        cfg = traj.cfg
        assert sweep == (
            [entropy_residual_reference(traj, bump_setup.profile, phi,
                                        cfg.tau, cfg.source_variant)
             for phi in phis],
            entropy_scale_reference(traj, bump_setup.profile, cfg.tau,
                                    cfg.source_variant))
        monkeypatch.setattr(monitors, "BLOCK_CELLS",
                            per_block * traj.grid.n_cells)
        assert [len(rho) for _, rho, _, _ in monitors._blocks(traj)] == sizes
        blocked = evaluate_trajectory(traj)
        assert list(blocked.columns) == list(report.columns)
        for name, column in report.columns.items():
            assert np.array_equal(blocked.columns[name], column), name
        assert blocked.violations == report.violations
        assert entropy_sweep(traj, phis) == sweep

    def test_audit_peak_does_not_grow_with_records(self):
        # 8 records of 512 cells fill one block; the same records four
        # times over are four blocks, whose workspace is reused
        s = make_setup("gaussian-bump", {"n_cells": 512, "t_end": 0.05})
        traj = run(s.initial, s.profile, s.model, s.cfg, s.grid,
                   record_times=np.linspace(0.0, 0.05, 8)[1:])
        k = len(traj.times)
        assert k * s.grid.n_cells <= monitors.BLOCK_CELLS
        repeated = replace(
            traj, steps=np.arange(4 * k),
            times=np.linspace(traj.times[0], traj.times[-1], 4 * k),
            rho=np.tile(traj.rho, (4, 1)), mom=np.tile(traj.mom, (4, 1)),
            min_rho=np.tile(traj.min_rho, 4))
        echo = {"monitors": "all", "seed": 0}
        audited_texts(traj, echo)   # the gas law's cached constants
        peaks = []
        tracemalloc.start()
        try:
            for t in (traj, repeated):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                audited_texts(t, echo)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        # the 24 added records add their rows and texts, under 2 KB each,
        # and no array the size of the 8 records'
        assert peaks[1] - peaks[0] < 2 * 8 * k * s.grid.n_cells


class TestTrapezoidRule:
    """numpy's trapezoid rule gives the same bits as scipy.integrate's."""

    def test_time_integrals_match_scipy(self, monkeypatch, bump_traj,
                                        bump_setup):
        from scipy.integrate import trapezoid
        rng = np.random.default_rng(11)
        s = np.sort(rng.uniform(0.0, 2.0, 17))
        n_vals = rng.uniform(0.2, 2.0, (17, 40))
        j_vals = rng.normal(size=(17, 40))
        phi = random_test_function(rng, -3.0, 3.0, 0.0, 1.0)

        def integrals():
            return (dissipation_integral(s, n_vals, j_vals, 0.1, 0.05),
                    entropy_sweep(bump_traj, [phi])[0])

        got = integrals()
        assert got[0] == trapezoid(
            0.05 * np.sum((n_vals - 0.1) * (j_vals / n_vals) ** 2, axis=1), s)
        calls = []

        def scipy_rule(y, x):
            calls.append(len(y))
            return trapezoid(y, x)

        monkeypatch.setattr(np, "trapezoid", scipy_rule)
        assert integrals() == got
        assert calls == [len(s), len(bump_traj.times)]


class TestDissipationIntegral:
    def test_constant_drift_value(self):
        s = np.linspace(0.0, 2.0, 21)
        n_vals = np.ones((21, 50))
        j_vals = 0.3 * np.ones((21, 50))
        dx = 0.1
        got = dissipation_integral(s, n_vals, j_vals, rho_floor=0.1, dx=dx)
        expected = (1.0 - 0.1) * 0.09 * (50 * dx) * 2.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_current_gives_zero(self):
        s = np.linspace(0.0, 1.0, 5)
        n_vals = np.ones((5, 20))
        j_vals = np.zeros((5, 20))
        assert dissipation_integral(s, n_vals, j_vals, 0.1, 0.05) == 0.0
