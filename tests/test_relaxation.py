"""Slow-time rescaling, the drift-diffusion reference solver, and the
tau-ladder comparison study."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semiflux import (
    Boundary,
    ConfigurationError,
    CouplingRule,
    DeviceProfile,
    GasModel,
    Grid1D,
    PressureConvention,
    Trajectory,
    drift_diffusion_run,
    relaxation_study,
    rescale,
    solve_field,
    total_integral,
)
from semiflux.relaxation import (
    PositivityError,
    dd_stable_dt,
    scaled_l1_gap,
    validate_tau_ladder,
)
from semiflux.solver import Snapshot


def toy_trajectory(grid, model, times, rho_of_t, u_of_t):
    traj = Trajectory(grid=grid, model=model)
    for k, t in enumerate(times):
        rho = rho_of_t(t)
        traj.snapshots.append(Snapshot(step=k, time=t, rho=rho,
                                       mom=rho * u_of_t(t),
                                       e_vals=np.zeros(grid.n_cells)))
    return traj


class TestRescale:
    def setup_method(self):
        self.grid = Grid1D(-5.0, 5.0, 32)
        self.model = GasModel(gamma=1.4, delta=0.05)

    def test_unit_tau_is_identity_except_current(self):
        n = self.grid.n_cells
        times = [0.0, 0.5, 1.0]
        traj = toy_trajectory(self.grid, self.model, times,
                              lambda t: np.full(n, 1.0 + t),
                              lambda t: np.full(n, 0.2))
        sc = rescale(traj, tau=1.0, s_values=times)
        for k, t in enumerate(times):
            assert np.array_equal(sc.n_vals[k], traj.snapshots[k].rho)
            assert np.array_equal(sc.j_vals[k], traj.snapshots[k].mom)
        assert sc.rho_floor == self.model.rho_floor

    def test_slow_time_samples_fast_instants(self):
        n = self.grid.n_cells
        times = [0.0, 5.0, 10.0]
        traj = toy_trajectory(self.grid, self.model, times,
                              lambda t: np.full(n, 1.0 + t),
                              lambda t: np.full(n, 0.1))
        sc = rescale(traj, tau=0.1, s_values=[1.0])
        # s = 1 at tau = 0.1 reads the state at t = 10
        assert np.all(sc.n_vals[0] == 11.0)
        # J = m / tau
        assert np.allclose(sc.j_vals[0], 11.0 * 0.1 / 0.1)

    def test_out_of_horizon_rejected(self):
        n = self.grid.n_cells
        traj = toy_trajectory(self.grid, self.model, [0.0, 1.0],
                              lambda t: np.ones(n), lambda t: np.zeros(n))
        with pytest.raises(ValueError, match="scaled instants"):
            rescale(traj, tau=0.5, s_values=[0.6])
        with pytest.raises(ValueError):
            rescale(traj, tau=0.5, s_values=[-0.1])

    def test_nearest_snapshot_wins(self):
        n = self.grid.n_cells
        times = [0.0, 1.0, 2.0]
        traj = toy_trajectory(self.grid, self.model, times,
                              lambda t: np.full(n, 1.0 + t),
                              lambda t: np.zeros(n))
        sc = rescale(traj, tau=1.0, s_values=[0.9])
        assert np.all(sc.n_vals[0] == 2.0)


class TestDriftDiffusionField:
    def test_matches_running_charge_integral(self):
        grid = Grid1D(-2.0, 2.0, 50)
        profile = DeviceProfile.uniform(grid, e_minus=0.7)
        n_vals = np.ones(50)
        got = solve_field(n_vals, profile, grid)
        expected = 0.7 + (grid.centers - grid.x_min)
        assert np.allclose(got, expected, atol=1e-12)

    @given(arrays(float, 40, elements=st.floats(0.0, 3.0)))
    @settings(max_examples=40, deadline=None)
    def test_field_slope_bounded_by_charge(self, n_vals):
        grid = Grid1D(-1.0, 1.0, 40)
        b = np.full(40, 0.4)
        profile = DeviceProfile.build(grid, np.ones(40), b, e_minus=10.0)
        ups = solve_field(n_vals, profile, grid)
        slopes = np.abs(np.diff(ups)) / grid.dx
        assert np.all(slopes <= np.max(np.abs(n_vals - b)) + 1e-12)


class TestDriftDiffusionRun:
    def test_uniform_neutral_state_is_stationary(self):
        grid = Grid1D(-3.0, 3.0, 60)
        model = GasModel(gamma=2.0, delta=0.05)
        n0 = np.full(60, 0.8)
        profile = DeviceProfile.build(grid, np.ones(60), n0.copy(),
                                      e_minus=0.0)
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.1)
        assert np.array_equal(out.n_vals[-1], n0)
        assert np.max(np.abs(out.upsilon_vals[-1])) < 1e-14

    def test_mass_conserved_on_decaying_data(self):
        grid = Grid1D(-5.0, 5.0, 120)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = DeviceProfile.uniform(grid)
        x = grid.centers
        n0 = 0.8 * np.exp(-(x / 0.7) ** 2)
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.05)
        m0 = total_integral(out.n_vals[0], grid.dx)
        m1 = total_integral(out.n_vals[-1], grid.dx)
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_diffusion_spreads_and_flattens(self):
        grid = Grid1D(-5.0, 5.0, 120)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = DeviceProfile.uniform(grid)
        x = grid.centers
        n0 = 1.0 * np.exp(-(x / 0.5) ** 2)
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.1)
        assert np.max(out.n_vals[-1]) < np.max(n0)

    def test_record_times_are_honored(self):
        grid = Grid1D(-5.0, 5.0, 80)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = DeviceProfile.uniform(grid)
        x = grid.centers
        n0 = 0.5 * np.exp(-x ** 2)
        wanted = [0.01, 0.02, 0.04]
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.04,
                                  record_times=wanted)
        for t in wanted:
            assert np.any(np.isclose(out.s_values, t, atol=1e-12))

    def test_negative_initial_rejected(self):
        grid = Grid1D(-1.0, 1.0, 20)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = DeviceProfile.uniform(grid)
        with pytest.raises(ValueError):
            drift_diffusion_run(np.full(20, -0.1), profile, model, grid,
                                s_end=0.01)

    def test_persistent_negativity_raises(self):
        # an empty cell drained by a strong drift goes negative for every
        # dt > 0, so the halving loop must give up with a diagnosis
        grid = Grid1D(-1.0, 1.0, 40)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = DeviceProfile.uniform(grid, e_minus=1e6)
        n0 = np.zeros(40)
        n0[20:] = 1.0
        with pytest.raises(PositivityError):
            drift_diffusion_run(n0, profile, model, grid, s_end=1e-4)

    def test_stable_dt_formula(self):
        grid = Grid1D(-1.0, 1.0, 40)
        model = GasModel(gamma=2.0, delta=0.05)
        profile = DeviceProfile.uniform(grid, a=2.0)
        n_vals = np.full(40, 1.5)
        ups = np.zeros(40)
        got = dd_stable_dt(n_vals, ups, profile, model, grid, cfl=0.4)
        diff = model.dpressure(np.array([1.5]))[0]
        assert got == pytest.approx(0.4 * grid.dx ** 2 * 2.0 / (2.0 * diff))
        ups = np.full(40, 100.0)
        capped = dd_stable_dt(n_vals, ups, profile, model, grid, cfl=0.4)
        assert capped == pytest.approx(0.4 * grid.dx * 2.0 / 100.0)


class TestCouplingRule:
    def test_delta_scales_linearly(self):
        rule = CouplingRule(delta_coeff=0.2)
        assert rule.delta(0.1) == pytest.approx(0.02)

    def test_isothermal_epsilon_is_quadratic(self):
        rule = CouplingRule(eps_coeff=0.1, eps_power=2.0)
        # gamma = 1 has unit pressure derivative, so eps = 0.1 tau^2
        assert rule.epsilon(0.2, 1.0, PressureConvention.ONE_OVER_GAMMA) == \
            pytest.approx(0.1 * 0.04, rel=1e-12)

    def test_epsilon_uses_floor_sound_speed(self):
        rule = CouplingRule(eps_coeff=0.5, eps_power=1.0, delta_coeff=1.0)
        tau = 0.1
        d = rule.delta(tau)
        model = GasModel(gamma=2.0, delta=d)
        expected = 0.5 * math.sqrt(model.dpressure(2.0 * d)) * tau
        assert rule.epsilon(tau, 2.0, PressureConvention.ONE_OVER_GAMMA) == \
            pytest.approx(expected, rel=1e-12)

    def test_fixed_epsilon_breaks_coupling(self):
        rule = CouplingRule(eps_fixed=0.5)
        for tau in (0.2, 0.1, 0.05):
            assert rule.epsilon(tau, 2.0,
                                PressureConvention.ONE_OVER_GAMMA) == 0.5


class TestTauLadder:
    def test_valid_ladder_accepted(self):
        assert validate_tau_ladder([0.2, 0.1, 0.05]) == [0.2, 0.1, 0.05]

    def test_short_ladder_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_tau_ladder([0.2, 0.1])

    def test_non_halving_ladder_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_tau_ladder([0.2, 0.1, 0.06])


def study_inputs(n_cells=200):
    grid = Grid1D(-4.0, 4.0, n_cells, boundary=Boundary.OUTFLOW)
    x = grid.centers
    raw_rho = 0.8 * np.exp(-x ** 2)
    raw_u = np.zeros_like(x)
    a_vals = np.ones(n_cells)
    b_vals = np.zeros(n_cells)
    return grid, raw_rho, raw_u, a_vals, b_vals


class TestRelaxationStudy:
    def test_coupled_ladder_errors_shrink(self):
        grid, raw_rho, raw_u, a_vals, b_vals = study_inputs()
        result = relaxation_study(
            raw_rho, raw_u, a_vals, b_vals, e_minus=0.0, grid=grid,
            gamma=2.0, convention=PressureConvention.ONE_OVER_GAMMA,
            tau_list=[0.2, 0.1, 0.05],
            coupling=CouplingRule(delta_coeff=0.2),
            horizon=0.25, window=(-2.0, 2.0))
        errs = [r.l1_error for r in result.rows]
        assert result.monotone
        assert errs[0] > errs[1] > errs[2]
        # dissipation integrals admit one common bound along the ladder
        assert max(r.dissipation for r in result.rows) < 10.0
        assert len(result.reference.s_values) == len(result.s_values)
        assert result.manifest["tau_list"] == [0.2, 0.1, 0.05]

    def test_detuned_viscosity_breaks_monotonicity(self):
        # freezing eps while tau shrinks violates the smallness coupling and
        # the ladder stops improving: the guard must catch this, not bless it
        grid, raw_rho, raw_u, a_vals, b_vals = study_inputs()
        result = relaxation_study(
            raw_rho, raw_u, a_vals, b_vals, e_minus=0.0, grid=grid,
            gamma=2.0, convention=PressureConvention.ONE_OVER_GAMMA,
            tau_list=[0.2, 0.1, 0.05],
            coupling=CouplingRule(eps_fixed=0.5, delta_coeff=0.2),
            horizon=0.25, window=(-2.0, 2.0))
        assert not result.monotone

    def test_scaled_gap_of_reference_with_itself_is_zero(self):
        grid, raw_rho, raw_u, a_vals, b_vals = study_inputs(n_cells=100)
        profile = DeviceProfile.build(grid, a_vals, b_vals, 0.0)
        model = GasModel(gamma=1.4, delta=0.05)
        out = drift_diffusion_run(raw_rho, profile, model, grid, s_end=0.05,
                                  record_times=[0.025, 0.05])
        from semiflux import ScaledTrajectory
        sc = ScaledTrajectory(tau=1.0, s_values=out.s_values,
                              n_vals=out.n_vals, j_vals=np.zeros_like(out.n_vals),
                              grid=grid, rho_floor=0.1)
        assert scaled_l1_gap(sc, out, (-2.0, 2.0), 0.0) == 0.0
