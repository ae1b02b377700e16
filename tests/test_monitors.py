"""Monitor and entropy machinery tests.

Synthetic trajectories are assembled by hand so each monitor can be driven
into its firing condition deliberately; the entropy residual is checked on
states where the weak form collapses to something computable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflux import (
    Boundary,
    DeviceProfile,
    GasModel,
    Grid1D,
    HydroState,
    MonitorSuite,
    SourceVariant,
    Trajectory,
    convexity_check,
    dissipation_integral,
    entropy_residual,
    entropy_spot_check,
    evaluate_trajectory,
    mechanical_energy_pair,
    plateau_check,
)
from semiflux import monitors
from semiflux.monitors import (MONITOR_COLUMNS, EntropyPair, excess_mass,
                               random_test_function, trajectory_entropy_scale)
from semiflux.monitors import TestFunction as SpaceTimeBump
from semiflux.scenarios import make_setup
from semiflux.solver import run

from helpers import (entropy_residual_reference, entropy_scale_reference,
                     entropy_spot_check_pairs_reference, phi_reference)


def make_traj(grid, model, frames):
    """frames: list of (time, rho, mom) tuples, stacked into a trajectory
    whose record k is step k; its field is derived from rho."""
    times, rho, mom = zip(*frames)
    rho = np.array(rho, dtype=float)
    return Trajectory(grid=grid, model=model, steps=np.arange(len(frames)),
                      times=np.array(times, dtype=float), rho=rho,
                      mom=np.array(mom, dtype=float),
                      n_steps=len(frames) - 1,
                      min_rho_ever=float(np.min(rho)))


def rest_frames(grid, rho0=1.0, times=(0.0, 1.0, 2.0, 3.0)):
    n = grid.n_cells
    return [(t, np.full(n, rho0), np.zeros(n)) for t in times]


class TestPlateauCheck:
    def test_flat_series_passes(self):
        t = np.linspace(0.0, 4.0, 9)
        ok, early, late = plateau_check(t, np.ones(9), 0.01)
        assert ok and early == 1.0 and late == 1.0

    def test_decay_passes(self):
        t = np.linspace(0.0, 4.0, 9)
        ok, _, _ = plateau_check(t, np.exp(-t), 0.01)
        assert ok

    def test_late_growth_fails(self):
        t = np.linspace(0.0, 4.0, 9)
        series = np.where(t > 2.0, 1.2, 1.0)
        ok, early, late = plateau_check(t, series, 0.01)
        assert not ok
        assert early == 1.0
        assert late == 1.2

    def test_growth_within_tolerance_passes(self):
        t = np.linspace(0.0, 4.0, 9)
        series = np.where(t > 2.0, 1.005, 1.0)
        ok, _, _ = plateau_check(t, series, 0.01)
        assert ok

    def test_degenerate_split_is_waived(self):
        ok, early, late = plateau_check(np.array([0.0]), np.array([5.0]), 0.01)
        assert ok
        assert np.isnan(early) and np.isnan(late)


class TestSuiteValidation:
    def test_unknown_monitor_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            MonitorSuite(enabled=("positivity", "bogus"))


class TestEvaluateTrajectory:
    def setup_method(self):
        self.grid = Grid1D(-5.0, 5.0, 64, boundary=Boundary.OUTFLOW)
        self.model = GasModel(gamma=2.0, delta=0.05)
        self.profile = DeviceProfile.uniform(self.grid)

    def test_rest_state_is_clean(self):
        traj = make_traj(self.grid, self.model, rest_frames(self.grid))
        report = evaluate_trajectory(traj, self.profile)
        assert report.violations == []
        assert report.columns == MONITOR_COLUMNS
        assert all(len(r) == len(MONITOR_COLUMNS) for r in report.rows)
        assert report.summary["completed"]

    def test_positivity_fires_below_slackened_floor(self):
        frames = rest_frames(self.grid)
        bad = frames[2][1].copy()
        bad[5] = self.model.rho_floor - 1e-6
        frames[2] = (frames[2][0], bad, frames[2][2])
        traj = make_traj(self.grid, self.model, frames)
        report = evaluate_trajectory(traj, self.profile)
        kinds = [v["monitor"] for v in report.violations]
        assert "positivity" in kinds

    def test_tiny_undershoot_is_tolerated(self):
        frames = rest_frames(self.grid)
        bad = frames[2][1].copy()
        bad[5] = self.model.rho_floor - 1e-14 * self.model.delta
        frames[2] = (frames[2][0], bad, frames[2][2])
        traj = make_traj(self.grid, self.model, frames)
        report = evaluate_trajectory(traj, self.profile)
        assert all(v["monitor"] != "positivity" for v in report.violations)

    def test_outflow_mass_gain_fires(self):
        frames = rest_frames(self.grid)
        frames[3] = (frames[3][0], frames[3][1] + 0.01, frames[3][2])
        traj = make_traj(self.grid, self.model, frames)
        report = evaluate_trajectory(traj, self.profile)
        assert any(v["monitor"] == "mass" for v in report.violations)

    def test_periodic_mass_allowance_scales_with_steps(self):
        grid = Grid1D(-5.0, 5.0, 64, boundary=Boundary.PERIODIC)
        profile = DeviceProfile.uniform(grid)
        n = grid.n_cells
        mass_scale = (1.0 - self.model.rho_floor) * 10.0  # initial excess mass
        drift = 2e-12 * mass_scale / (grid.x_max - grid.x_min)
        frames = [(0.0, np.full(n, 1.0), np.zeros(n)),
                  (1.0, np.full(n, 1.0 + drift), np.zeros(n))]
        traj = make_traj(grid, self.model, frames)
        traj.steps[1] = 5000  # allowance grows to 5e-12 * scale
        report = evaluate_trajectory(traj, profile)
        assert all(v["monitor"] != "mass" for v in report.violations)
        traj.steps[1] = 500  # back to the per-1000-step budget
        report = evaluate_trajectory(traj, profile)
        assert any(v["monitor"] == "mass" for v in report.violations)

    def test_field_monitor_fires_on_inflated_field(self):
        # the sup bound assumes a non-negative excess: a charge dipole keeps
        # the excess mass but drives the field derived from rho past it
        frames = rest_frames(self.grid)
        n = self.grid.n_cells
        dipole = np.where(np.arange(n) < n // 2, -5.0, 5.0)
        frames[2] = (frames[2][0], frames[2][1] + dipole, frames[2][2])
        traj = make_traj(self.grid, self.model, frames)
        report = evaluate_trajectory(traj, self.profile)
        fired = [v for v in report.violations if v["monitor"] == "field"]
        assert [v["time"] for v in fired] == [2.0]
        assert fired[0]["value"] > 2.0 * fired[0]["bound"]

    def test_riemann_monitor_fires_on_invariant_blowup(self):
        frames = rest_frames(self.grid, times=(0.0, 1e-6))
        n = self.grid.n_cells
        frames[1] = (frames[1][0], frames[1][1], np.full(n, 5.0))
        traj = make_traj(self.grid, self.model, frames)
        report = evaluate_trajectory(traj, self.profile)
        assert any(v["monitor"] == "riemann" for v in report.violations)

    def test_plateau_gated_on_profile_hypotheses(self):
        n = self.grid.n_cells
        frames = []
        for k, t in enumerate((0.0, 1.0, 2.0, 3.0)):
            rho = np.full(n, 1.0 + (0.2 if t > 1.5 else 0.0))
            frames.append((t, rho, np.zeros(n)))
        traj = make_traj(self.grid, self.model, frames)

        report = evaluate_trajectory(traj, self.profile)
        assert any(v["monitor"] == "uniform" for v in report.violations)
        assert report.summary["plateau_sup_rho_ok"] is False

        rising_a = np.linspace(1.0, 2.0, n)
        loose = DeviceProfile.build(self.grid, rising_a, np.zeros(n), 0.0)
        assert not loose.uniform_ok
        report = evaluate_trajectory(traj, loose)
        assert all(v["monitor"] != "uniform" for v in report.violations)
        assert report.summary["plateau_sup_rho_ok"] is False

    def test_isothermal_plateau_tracks_log_invariants(self):
        model = GasModel(gamma=1.0, delta=0.05)
        n = self.grid.n_cells
        frames = []
        for t in (0.0, 1.0, 2.0, 3.0):
            u = 0.5 if t > 1.5 else 0.0
            rho = np.full(n, 1.0)
            frames.append((t, rho, rho * u))
        traj = make_traj(self.grid, model, frames)
        report = evaluate_trajectory(traj, self.profile)
        fired = [v for v in report.violations if v["monitor"] == "uniform"]
        assert fired and fired[0]["series"] in ("sup_log_plus",
                                                "sup_log_minus")

    def test_disabled_monitors_stay_silent(self):
        frames = rest_frames(self.grid)
        bad = frames[2][1].copy()
        bad[5] = self.model.rho_floor - 1e-2
        frames[2] = (frames[2][0], bad, frames[2][2])
        traj = make_traj(self.grid, self.model, frames)
        suite = MonitorSuite(enabled=("mass",))
        report = evaluate_trajectory(traj, self.profile, suite)
        assert all(v["monitor"] != "positivity" for v in report.violations)

    def test_excess_mass_of_rest_state(self):
        traj = make_traj(self.grid, self.model, rest_frames(self.grid))
        state = HydroState(rho=traj.rho[0], mom=traj.mom[0])
        expected = (1.0 - self.model.rho_floor) * 10.0
        assert excess_mass(state, self.model, self.grid) == pytest.approx(
            expected, rel=1e-12)


class TestEntropyPair:
    def test_floor_state_has_zero_entropy(self):
        for gamma in (1.0, 1.4, 2.0):
            model = GasModel(gamma=gamma, delta=0.05)
            pair = mechanical_energy_pair(model)
            assert pair.eta(model.rho_floor, 0.0) == 0.0
            assert pair.q(model.rho_floor, 0.0) == 0.0

    def test_isothermal_internal_energy_is_logarithmic(self):
        model = GasModel(gamma=1.0, delta=0.05)
        pair = mechanical_energy_pair(model)
        rho = 1.7
        assert pair.eta(rho, 0.0) == pytest.approx(rho * np.log(rho / 0.1),
                                                   rel=1e-13)

    def test_velocity_multiplier(self):
        model = GasModel(gamma=1.4, delta=0.05)
        pair = mechanical_energy_pair(model)
        assert pair.eta_m(2.0, 1.0) == pytest.approx(0.5)

    @given(rho=st.floats(0.100001, 4.0), u=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_entropy_nonnegative_above_floor(self, rho, u):
        model = GasModel(gamma=1.4, delta=0.05)
        pair = mechanical_energy_pair(model)
        assert pair.eta(rho, rho * u) >= -1e-12

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
    def test_hessian_positive_semidefinite(self, gamma):
        model = GasModel(gamma=gamma, delta=0.05)
        pair = mechanical_energy_pair(model)
        rng = np.random.default_rng(11)
        rho = rng.uniform(0.15, 3.0, size=40)
        mom = rng.uniform(-2.0, 2.0, size=40)
        assert convexity_check(pair, rho, mom) >= -1e-6


class TestBumpFunction:
    def test_compact_support(self):
        phi = SpaceTimeBump(x_center=0.0, x_width=1.0,
                           t_center=0.5, t_width=0.25)
        assert phi.phi(1.0, 0.5) == 0.0
        assert phi.phi(-1.5, 0.5) == 0.0
        assert phi.phi(0.0, 0.76) == 0.0
        assert phi.phi(0.0, 0.5) > 0.0

    def test_peak_at_center(self):
        phi = SpaceTimeBump(0.0, 1.0, 0.5, 0.25)
        assert phi.phi(0.0, 0.5) == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_space_derivative_matches_finite_difference(self):
        phi = SpaceTimeBump(0.3, 0.8, 0.5, 0.25)
        x = np.linspace(-0.3, 0.9, 17)
        h = 1e-6
        fd = (phi.phi(x + h, 0.5) - phi.phi(x - h, 0.5)) / (2 * h)
        assert np.allclose(phi.phi_x(x, 0.5), fd, rtol=1e-5, atol=1e-8)

    def test_time_derivative_matches_finite_difference(self):
        phi = SpaceTimeBump(0.0, 1.0, 0.5, 0.3)
        t = np.linspace(0.3, 0.7, 9)
        h = 1e-7
        fd = (phi.phi(0.1, t + h) - phi.phi(0.1, t - h)) / (2 * h)
        assert np.allclose(phi.phi_t(0.1, t), fd, rtol=1e-4, atol=1e-8)

    def test_derivative_is_odd_about_center(self):
        phi = SpaceTimeBump(0.0, 1.0, 0.5, 0.25)
        assert phi.phi_x(0.4, 0.5) == pytest.approx(-phi.phi_x(-0.4, 0.5))

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
        profile = DeviceProfile.uniform(grid)
        n = grid.n_cells
        frames = [(t, np.full(n, model.rho_floor), np.zeros(n))
                  for t in np.linspace(0.0, 1.0, 11)]
        traj = make_traj(grid, model, frames)
        pair = mechanical_energy_pair(model)
        phi = SpaceTimeBump(0.0, 2.0, 0.5, 0.3)
        assert entropy_residual(traj, profile, pair, phi, tau=1.0) == 0.0

    def test_constant_state_residual_is_quadrature_small(self):
        # eta and q are constants, so the weak form reduces to integrals of
        # exact derivatives of a compactly supported bump: zero up to
        # midpoint/trapezoid quadrature error.
        grid = Grid1D(-5.0, 5.0, 400)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = DeviceProfile.uniform(grid)
        n = grid.n_cells
        times = np.linspace(0.0, 1.0, 81)
        frames = [(t, np.full(n, 1.0), np.zeros(n))
                  for t in times]
        traj = make_traj(grid, model, frames)
        pair = mechanical_energy_pair(model)
        phi = SpaceTimeBump(0.0, 2.0, 0.5, 0.3)
        res = entropy_residual(traj, profile, pair, phi, tau=1.0)
        scale = float(pair.eta(1.0, 0.0)) * 2.0 * 2.0
        assert abs(res) < 1e-3 * scale

    def test_spot_check_deterministic_in_seed(self, bump_traj, bump_setup):
        r1, v1 = entropy_spot_check(bump_traj, bump_setup.profile,
                                    tau=bump_setup.cfg.tau,
                                    epsilon=bump_setup.cfg.epsilon, seed=42)
        r2, v2 = entropy_spot_check(bump_traj, bump_setup.profile,
                                    tau=bump_setup.cfg.tau,
                                    epsilon=bump_setup.cfg.epsilon, seed=42)
        assert r1 == r2 and v1 == v2
        r3, _ = entropy_spot_check(bump_traj, bump_setup.profile,
                                   tau=bump_setup.cfg.tau,
                                   epsilon=bump_setup.cfg.epsilon, seed=43)
        assert [d["x_center"] for d in r3] != [d["x_center"] for d in r1]

    def test_spot_check_clean_on_smooth_run(self, bump_traj, bump_setup):
        results, violations = entropy_spot_check(
            bump_traj, bump_setup.profile, tau=bump_setup.cfg.tau,
            epsilon=bump_setup.cfg.epsilon, seed=7, n_phi=5)
        assert len(results) == 5
        assert violations == []

    def test_short_trajectory_is_skipped(self):
        grid = Grid1D(-5.0, 5.0, 64)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = DeviceProfile.uniform(grid)
        traj = make_traj(grid, model, rest_frames(grid, times=(0.0, 1.0)))
        results, violations = entropy_spot_check(traj, profile, tau=1.0,
                                                 epsilon=1e-3, seed=0)
        assert results == [] and violations == []

    def test_tolerance_scale_follows_source_variant(self):
        # on the vacuum floor the excess-density source vanishes, while the
        # full-density damping a*m/tau would dominate the tolerance scale
        grid = Grid1D(-5.0, 5.0, 64)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = DeviceProfile.uniform(grid)
        n = grid.n_cells
        rho, mom = np.full(n, model.rho_floor), np.full(n, 0.05)
        traj = make_traj(grid, model, [(t, rho, mom)
                                       for t in (0.0, 1.0, 2.0, 3.0)])
        pair = mechanical_energy_pair(model)
        scale = max(float(np.max(np.abs(pair.eta(rho, mom)))),
                    float(np.max(np.abs(pair.q(rho, mom)))))
        results, _ = entropy_spot_check(
            traj, profile, tau=0.01, epsilon=1e-3, seed=0,
            source_variant=SourceVariant.EXCESS_DENSITY)
        expected = (grid.dx + 1e-3 + 1.0) * scale
        assert results[0]["tolerance"] == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def periodic_excess():
    setup = make_setup("gaussian-bump", {
        "n_cells": 120, "t_end": 0.6, "boundary": "periodic",
        "source_variant": "excess-density"})
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, record_every=5)
    return setup, traj


class TestEntropySweep:
    """The one-pass entropy audit reproduces the per-test-function walks
    kept in tests/helpers.py to the last bit."""

    def test_bump_factors_match_reference(self):
        phi = SpaceTimeBump(0.3, 0.8, 0.5, 0.3)
        x = np.linspace(-1.0, 1.5, 41)
        for t in (0.1, 0.21, 0.37, 0.5, 0.66, 0.79, 0.9):
            want = phi_reference(phi, x, t)
            got = (phi.phi(x, t), phi.phi_x(x, t), phi.phi_t(x, t))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("case", ["outflow-full", "periodic-excess"])
    def test_spot_check_equals_reference(self, case, bump_setup, bump_traj,
                                         periodic_excess):
        setup, traj = ((bump_setup, bump_traj) if case == "outflow-full"
                       else periodic_excess)
        variant = setup.cfg.source_variant
        for seed in (0, 7):
            results, _ = entropy_spot_check(
                traj, setup.profile, tau=setup.cfg.tau,
                epsilon=setup.cfg.epsilon, seed=seed, source_variant=variant)
            want = entropy_spot_check_pairs_reference(
                traj, setup.profile, setup.cfg.tau, setup.cfg.epsilon, seed,
                source_variant=variant)
            assert [(r["residual"], r["tolerance"]) for r in results] == want

    @pytest.mark.parametrize("variant", list(SourceVariant))
    def test_public_callers_equal_reference(self, variant, periodic_excess):
        # a stiff tau lets the source term set the scale, so each variant
        # gives its own
        setup, traj = periodic_excess
        tau = 1e-3
        pair = mechanical_energy_pair(setup.model)
        phi = SpaceTimeBump(-0.5, 2.0, 0.3, 0.2)
        assert entropy_residual(traj, setup.profile, pair, phi, tau,
                                variant) == entropy_residual_reference(
            traj, setup.profile, pair, phi, tau, variant)
        assert trajectory_entropy_scale(traj, setup.profile, pair, tau,
                                        variant) == entropy_scale_reference(
            traj, setup.profile, pair, tau, variant)

    def test_densities_evaluated_once_per_snapshot(self, monkeypatch,
                                                   bump_setup, bump_traj):
        calls = []
        real_pair = monitors.mechanical_energy_pair

        def counting_pair(model):
            pair = real_pair(model)

            def q(rho, mom):
                calls.append(1)
                return pair.q(rho, mom)
            return EntropyPair(eta=pair.eta, q=q, eta_m=pair.eta_m)

        monkeypatch.setattr(monitors, "mechanical_energy_pair", counting_pair)
        results, _ = entropy_spot_check(
            bump_traj, bump_setup.profile, tau=bump_setup.cfg.tau,
            epsilon=bump_setup.cfg.epsilon, seed=3)
        assert len(results) == 3
        assert len(calls) == len(bump_traj.times)


class TestTrapezoidRule:
    """numpy's trapezoid rule gives the same bits as scipy.integrate's."""

    def test_time_integrals_match_scipy(self, monkeypatch, bump_traj,
                                        bump_setup):
        from scipy.integrate import trapezoid
        rng = np.random.default_rng(11)
        s = np.sort(rng.uniform(0.0, 2.0, 17))
        n_vals = rng.uniform(0.2, 2.0, (17, 40))
        j_vals = rng.normal(size=(17, 40))
        pair = mechanical_energy_pair(bump_setup.model)
        phi = random_test_function(rng, -3.0, 3.0, 0.0, 1.0)

        def integrals():
            return (dissipation_integral(s, n_vals, j_vals, 0.1, 0.05),
                    entropy_residual(bump_traj, bump_setup.profile, pair,
                                     phi, tau=bump_setup.cfg.tau))

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
