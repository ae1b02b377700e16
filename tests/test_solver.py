"""Finite-volume solver checks.

Covers the physical flux on frozen inputs, exact fixed points of the full
update, discrete conservation under periodic wrap, the closed-form friction
decay, initial-data preparation, and the bookkeeping of run().
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflux import (
    Boundary,
    ConfigurationError,
    DeviceProfile,
    GasModel,
    Grid1D,
    HydroState,
    IntegrationError,
    PressureConvention,
    SolverConfig,
    SourceVariant,
    prepare_initial,
    run,
    step,
    total_integral,
)
from semiflux.solver import flux, gaussian_kernel

from helpers import step_reference


def uniform_setup(n_cells=64, boundary=Boundary.PERIODIC, gamma=1.4,
                  delta=0.05, a=1.0, b=0.0, e_minus=0.0, **cfg_kw):
    grid = Grid1D(-5.0, 5.0, n_cells, boundary=boundary)
    model = GasModel(gamma=gamma, delta=delta)
    profile = DeviceProfile.uniform(grid, a=a, b=b, e_minus=e_minus)
    cfg = SolverConfig(**cfg_kw)
    return grid, model, profile, cfg


class TestFlux:
    def test_isothermal_reference_point(self):
        # gamma=1, delta=0.05, rho=1, u=1: first component (rho-2d)*u = 0.9,
        # second is m*u - d*u^2 + P1 with P1 = 1 - 0.1 + 0.1*ln(0.1).
        model = GasModel(gamma=1.0, delta=0.05)
        f1, f2 = flux(model, np.array([1.0]), np.array([1.0]))
        assert f1[0] == pytest.approx(0.9, rel=1e-14)
        p1 = 0.9 + 0.1 * math.log(0.1)
        assert f2[0] == pytest.approx(0.95 + p1, rel=1e-13)

    def test_vacuum_floor_flux_vanishes(self):
        model = GasModel(gamma=1.4, delta=0.05)
        f1, f2 = flux(model, np.array([0.1]), np.array([0.0]))
        assert f1[0] == 0.0
        assert f2[0] == 0.0

    def test_rest_state_flux_is_pure_pressure(self):
        model = GasModel(gamma=2.0, delta=0.05,
                         convention=PressureConvention.ONE_OVER_GAMMA)
        f1, f2 = flux(model, np.array([1.0]), np.array([0.0]))
        assert f1[0] == 0.0
        assert f2[0] == pytest.approx(0.405, rel=1e-13)

    @given(rho=st.floats(0.2, 5.0), u=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_flux_consistency(self, rho, u):
        model = GasModel(gamma=1.4, delta=0.05)
        f1, _ = flux(model, np.array([rho]), np.array([rho * u]))
        assert f1[0] == pytest.approx((rho - 0.1) * u, rel=1e-12, abs=1e-14)


class TestGaussianKernel:
    def test_normalized_and_symmetric(self):
        k = gaussian_kernel(0.25, 0.02)
        assert k.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(k, k[::-1])

    def test_support_covers_four_widths(self):
        dx = 0.05
        k = gaussian_kernel(0.3, dx)
        half = (len(k) - 1) // 2
        assert half * dx >= 4 * 0.3 - dx


class TestFixedPoints:
    @pytest.mark.parametrize("boundary", [Boundary.OUTFLOW, Boundary.PERIODIC])
    @pytest.mark.parametrize("variant",
                             [SourceVariant.FULL_DENSITY,
                              SourceVariant.EXCESS_DENSITY])
    def test_vacuum_rest_state_is_stationary(self, boundary, variant):
        grid, model, profile, cfg = uniform_setup(
            boundary=boundary, source_variant=variant, epsilon=1e-2)
        state = HydroState(rho=np.full(grid.n_cells, model.rho_floor),
                           mom=np.zeros(grid.n_cells))
        new, rep = step(state, profile, model, cfg, grid)
        assert np.array_equal(new.rho, state.rho)
        assert np.array_equal(new.mom, state.mom)
        assert rep.post_step_min_rho == model.rho_floor

    def test_charge_neutral_rest_state_is_stationary(self):
        # Uniform density with doping equal to the excess charge: the field
        # integrand vanishes identically, pressure is flat, and zero momentum
        # is untouched by friction.
        grid, model, profile, cfg = uniform_setup(epsilon=5e-3)
        rho0 = 1.2
        profile = DeviceProfile.build(grid, np.ones(grid.n_cells),
                                      np.full(grid.n_cells,
                                              rho0 - model.rho_floor),
                                      e_minus=0.0)
        state = HydroState(rho=np.full(grid.n_cells, rho0),
                           mom=np.zeros(grid.n_cells))
        for _ in range(3):
            state, _ = step(state, profile, model, cfg, grid)
        assert np.all(state.rho == rho0)
        assert np.all(np.abs(state.mom) < 1e-13)


class TestConservation:
    def test_periodic_mass_exact(self):
        grid, model, profile, cfg = uniform_setup(
            n_cells=200, epsilon=1e-3, t_end=3.0, tau=0.5)
        x = grid.centers
        raw = 0.8 * np.exp(-x ** 2)
        state = prepare_initial(raw, np.zeros_like(raw), model, cfg, grid)
        traj = run(state, profile, model, cfg, grid, record_every=10 ** 6)
        m0 = total_integral(traj.rho[0], grid.dx)
        m1 = total_integral(traj.rho[-1], grid.dx)
        assert traj.completed
        assert traj.n_steps > 100
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_outflow_mass_never_increases(self):
        grid, model, profile, cfg = uniform_setup(
            n_cells=150, boundary=Boundary.OUTFLOW, epsilon=1e-3, t_end=0.8)
        x = grid.centers
        raw = 0.9 * np.exp(-(x / 0.7) ** 2)
        state = prepare_initial(raw, 0.5 * np.ones_like(raw), model, cfg, grid)
        traj = run(state, profile, model, cfg, grid, record_every=20)
        masses = [total_integral(rho, grid.dx) for rho in traj.rho]
        diffs = np.diff(masses)
        assert np.all(diffs <= 1e-12 * masses[0])


class TestFrictionDecay:
    @pytest.mark.parametrize("variant",
                             [SourceVariant.FULL_DENSITY,
                              SourceVariant.EXCESS_DENSITY])
    def test_uniform_state_decays_exponentially(self, variant):
        # Doping equal to the uniform excess makes the charge, hence E,
        # vanish identically; with the flux divergence cancelling too, the
        # momentum obeys m' = -rate*m exactly and the integrator reproduces
        # the closed form to rounding error.
        a, tau = 0.8, 0.3
        rho0, u0 = 1.3, 0.4
        grid, model, profile, cfg = uniform_setup(
            a=a, b=rho0 - 2 * 0.05, tau=tau, t_end=0.5, epsilon=1e-3,
            source_variant=variant)
        state = HydroState(rho=np.full(grid.n_cells, rho0),
                           mom=np.full(grid.n_cells, rho0 * u0))
        traj = run(state, profile, model, cfg, grid, record_every=10 ** 6)
        t = traj.times[-1]
        if variant is SourceVariant.FULL_DENSITY:
            rate = a / tau
        else:
            rate = a * (rho0 - model.rho_floor) / rho0 / tau
        expected = rho0 * u0 * math.exp(-rate * t)
        got = traj.mom[-1]
        assert np.all(got == got[0])
        assert got[0] == pytest.approx(expected, rel=1e-12)
        assert np.all(traj.rho[-1] == rho0)


class TestPrepareInitial:
    def test_zero_data_gives_exact_floor(self):
        grid, model, _, cfg = uniform_setup(smoothing_width=0.2)
        z = np.zeros(grid.n_cells)
        state = prepare_initial(z, z, model, cfg, grid)
        assert np.all(state.rho == model.rho_floor)
        assert np.all(state.mom == 0.0)

    def test_mollifier_preserves_excess_mass(self):
        grid, model, _, cfg = uniform_setup(n_cells=400, smoothing_width=0.15)
        x = grid.centers
        raw = 0.9 * np.exp(-(x / 0.4) ** 2)
        state = prepare_initial(raw, np.zeros_like(raw), model, cfg, grid)
        assert (total_integral(state.excess(model), grid.dx)
                == pytest.approx(total_integral(raw, grid.dx), rel=1e-8))

    def test_mollifier_flattens_peak(self):
        grid, model, _, cfg = uniform_setup(n_cells=400, smoothing_width=0.3)
        x = grid.centers
        raw = np.exp(-(x / 0.2) ** 2)
        state = prepare_initial(raw, np.zeros_like(raw), model, cfg, grid)
        assert np.max(state.excess(model)) < np.max(raw)

    def test_zero_width_is_identity(self):
        grid, model, _, cfg = uniform_setup(smoothing_width=0.0)
        x = grid.centers
        raw = np.exp(-x ** 2)
        state = prepare_initial(raw, np.zeros_like(raw), model, cfg, grid)
        assert np.array_equal(state.rho, raw + model.rho_floor)

    def test_negative_excess_rejected(self):
        grid, model, _, cfg = uniform_setup()
        bad = np.full(grid.n_cells, -1e-3)
        with pytest.raises(ValueError):
            prepare_initial(bad, np.zeros(grid.n_cells), model, cfg, grid)

    def test_shape_mismatch_rejected(self):
        grid, model, _, cfg = uniform_setup()
        with pytest.raises(ConfigurationError):
            prepare_initial(np.zeros(grid.n_cells + 1),
                            np.zeros(grid.n_cells + 1), model, cfg, grid)


class TestStepMechanics:
    def test_stable_dt_combines_advection_and_viscosity(self):
        grid, model, profile, cfg = uniform_setup(n_cells=100, epsilon=0.02)
        rho = np.full(grid.n_cells, 1.5)
        mom = np.full(grid.n_cells, 0.6)
        state = HydroState(rho=rho, mom=mom)
        u = 0.4
        lam = abs(u) + (1.5 - model.rho_floor) / 1.5 * model.sound_speed(
            np.array([1.5]))[0]
        expected = cfg.cfl / (lam / grid.dx + 2 * cfg.epsilon / grid.dx ** 2)
        assert step(state, profile, model, cfg, grid)[1].dt_used == \
            pytest.approx(expected, rel=1e-13)

    def test_dt_limit_and_time_stamp(self):
        # a stop time inside the stable step cuts it short and is hit
        # exactly; one beyond it leaves the stable step alone
        grid, model, profile, cfg = uniform_setup(epsilon=1e-3)
        state = HydroState(rho=np.full(grid.n_cells, 1.0),
                           mom=np.zeros(grid.n_cells), time=0.123)
        new, rep = step(state, profile, model, cfg, grid, t_stop=0.123 + 1e-6)
        assert rep.dt_used == (0.123 + 1e-6) - 0.123
        assert new.time == 0.123 + 1e-6
        dt = step(state, profile, model, cfg, grid)[1].dt_used
        new, rep = step(state, profile, model, cfg, grid, t_stop=1.0)
        assert rep.dt_used == dt
        assert new.time == 0.123 + dt

    def test_floor_violation_raises(self):
        grid, model, profile, cfg = uniform_setup()
        rho = np.full(grid.n_cells, 1.0)
        rho[10] = model.rho_floor - 1e-3
        state = HydroState(rho=rho, mom=np.zeros(grid.n_cells), time=0.7)
        with pytest.raises(IntegrationError) as exc:
            step(state, profile, model, cfg, grid)
        assert exc.value.time == 0.7
        assert exc.value.state is state

    def test_non_finite_state_raises(self):
        grid, model, profile, cfg = uniform_setup()
        mom = np.zeros(grid.n_cells)
        mom[3] = np.nan
        state = HydroState(rho=np.ones(grid.n_cells), mom=mom)
        with pytest.raises(IntegrationError, match="non-finite"):
            step(state, profile, model, cfg, grid)


class TestStepMatchesReference:
    """The stacked step against the row-wise reference, bit for bit."""

    @staticmethod
    def bumpy_state(grid, model):
        x = grid.centers
        rho = model.rho_floor + 0.8 * np.exp(-x ** 2) \
            + 0.1 * np.exp(-(x - 3.0) ** 2 / 0.5)
        return HydroState(rho=rho, mom=rho * 0.4 * np.sin(x), time=0.2)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("variant", list(SourceVariant))
    @pytest.mark.parametrize("convention", list(PressureConvention))
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    @pytest.mark.parametrize("clamped", [False, True])
    def test_bit_identical(self, boundary, variant, convention, gamma,
                           clamped):
        grid = Grid1D(-5.0, 5.0, 90, boundary=boundary)
        model = GasModel(gamma=gamma, delta=0.05, convention=convention)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.5 - 0.1 * np.tanh(x),
                                      0.2 * np.exp(-x ** 2), 0.3)
        cfg = SolverConfig(epsilon=2e-3, tau=0.05, source_variant=variant)
        state = self.bumpy_state(grid, model)
        for _ in range(3):
            t_stop = state.time + 1e-4 if clamped else None
            new, rep = step(state, profile, model, cfg, grid, t_stop=t_stop)
            ref, ref_rep = step_reference(state, profile, model, cfg, grid,
                                          t_stop=t_stop)
            assert np.array_equal(new.rho, ref.rho)
            assert np.array_equal(new.mom, ref.mom)
            assert new.time == ref.time
            assert rep.dt_used == ref_rep.dt_used
            assert rep.max_wave_speed == ref_rep.max_wave_speed
            assert rep.post_step_min_rho == ref_rep.post_step_min_rho
            if clamped:
                assert rep.dt_used == t_stop - state.time
            state = new


class TestRun:
    def test_zero_horizon_records_initial_only(self):
        grid, model, profile, cfg = uniform_setup(t_end=0.0)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        traj = run(state, profile, model, cfg, grid)
        assert traj.n_steps == 0
        assert traj.steps.tolist() == [0]
        assert traj.times.tolist() == [0.0]
        assert traj.rho.shape == traj.mom.shape == (1, grid.n_cells)
        assert traj.completed

    def test_record_times_land_exactly(self):
        grid, model, profile, cfg = uniform_setup(t_end=0.2, epsilon=1e-3)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        wanted = [0.05, 0.11, 0.2]
        traj = run(state, profile, model, cfg, grid, record_times=wanted)
        times = traj.times
        for t in wanted:
            assert t in times
        assert times[0] == 0.0

    def test_unsorted_record_times_rejected(self):
        grid, model, profile, cfg = uniform_setup(t_end=0.2)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        with pytest.raises(ConfigurationError):
            run(state, profile, model, cfg, grid, record_times=[0.1, 0.05])
        with pytest.raises(ConfigurationError):
            run(state, profile, model, cfg, grid, record_every=0)

    def test_failure_is_reported_not_raised_by_default(self):
        grid, model, profile, cfg = uniform_setup(t_end=1.0)
        rho = np.ones(grid.n_cells)
        rho[0] = model.rho_floor / 2
        state = HydroState(rho=rho, mom=np.zeros(grid.n_cells))
        traj = run(state, profile, model, cfg, grid)
        assert not traj.completed
        assert traj.failure_time == 0.0
        # the initial record is still stacked into the arrays
        assert traj.steps.tolist() == [0] and traj.times.tolist() == [0.0]
        assert np.array_equal(traj.rho, rho[None, :])
        with pytest.raises(IntegrationError):
            run(state, profile, model, cfg, grid, raise_on_failure=True)

    def test_max_steps_cut_is_incomplete(self):
        grid, model, profile, cfg = uniform_setup(t_end=1.0)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        traj = run(state, profile, model, cfg, grid, max_steps=3)
        assert traj.n_steps == 3
        assert not traj.completed
        assert 0.0 < traj.failure_time < cfg.t_end
        assert traj.failure_time == sum(traj.dts)
        assert traj.steps.tolist() == [0]
        assert traj.rho.shape == traj.mom.shape == (1, grid.n_cells)

    def test_records_are_stacked_float64_rows(self, bump_setup, bump_traj):
        k, n = len(bump_traj.times), bump_setup.grid.n_cells
        assert bump_traj.steps.shape == (k,)
        assert bump_traj.steps[0] == 0
        assert bump_traj.steps[-1] == bump_traj.n_steps
        assert np.all(bump_traj.steps[:-1] % 20 == 0)
        assert bump_traj.times.dtype == np.float64
        assert bump_traj.times[-1] == bump_setup.cfg.t_end
        for arr in (bump_traj.rho, bump_traj.mom):
            assert arr.shape == (k, n) and arr.dtype == np.float64
        assert np.array_equal(bump_traj.rho[0], bump_setup.initial.rho)
        assert bump_traj.min_rho_ever <= float(np.min(bump_traj.rho))

    def test_min_density_tracking(self, bump_setup):
        setup = bump_setup
        traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
                   setup.grid, record_every=10 ** 6)
        assert traj.min_rho_ever >= setup.model.rho_floor
        assert traj.min_rho_ever <= float(np.min(setup.initial.rho))

    def test_final_time_is_exact(self):
        grid, model, profile, cfg = uniform_setup(t_end=0.37, epsilon=1e-3)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        traj = run(state, profile, model, cfg, grid, record_every=10 ** 6)
        assert traj.times[-1] == 0.37


class TestSelfConsistency:
    def test_refinement_shrinks_error(self):
        # Coarse-versus-fine gap on a smooth bump must drop under refinement;
        # the acceptance study pins the quantitative rate, this is a smoke
        # check that the discretization converges at all.
        errs = {}
        fine_n = 400
        runs = {}
        for n in (100, 200, fine_n):
            grid = Grid1D(-5.0, 5.0, n, boundary=Boundary.OUTFLOW)
            model = GasModel(gamma=1.4, delta=0.05)
            profile = DeviceProfile.uniform(grid, a=1.0, b=0.0, e_minus=0.0)
            cfg = SolverConfig(epsilon=0.01, tau=1.0, cfl=0.4, t_end=0.25)
            x = grid.centers
            raw = 0.8 * np.exp(-(x / 0.6) ** 2)
            init = prepare_initial(raw, 0.3 * np.ones_like(raw),
                                   model, cfg, grid)
            traj = run(init, profile, model, cfg, grid,
                       record_times=[cfg.t_end])
            runs[n] = (grid.centers, traj.rho[-1])
        xf, rf = runs[fine_n]
        for n in (100, 200):
            xc, rc = runs[n]
            ref = np.interp(xc, xf, rf)
            errs[n] = float(np.sum(np.abs(rc - ref)) * (10.0 / n))
        assert errs[200] < errs[100] / 1.2
