"""The drift-diffusion reference solver and the tau-ladder comparison study,
which reads each hydro run's rows at t = s/tau as N = rho, J = m/tau."""

import math
from dataclasses import replace

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
    drift_diffusion_run,
    relaxation_study,
    solve_field,
    total_integral,
)
from semiflux import relaxation, solver
from semiflux.config import RELAX_KEYS
from semiflux.scenarios import make_setup
from semiflux.solver import SolverConfig, SourceVariant, run
from semiflux.relaxation import (
    PositivityError,
    dd_stable_dt,
    scaled_l1_gap,
    validate_tau_ladder,
)

from helpers import explicit_dd_run, uniform_profile


class TestDriftDiffusionField:
    def test_matches_running_charge_integral(self):
        grid = Grid1D(-2.0, 2.0, 50)
        profile = uniform_profile(grid, e_minus=0.7)
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
        upsilon = solve_field(out.n_vals[-1], profile, grid)
        assert np.max(np.abs(upsilon)) < 1e-14

    def test_mass_conserved_on_decaying_data(self):
        grid = Grid1D(-5.0, 5.0, 120)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        x = grid.centers
        n0 = 0.8 * np.exp(-(x / 0.7) ** 2)
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.05)
        m0 = total_integral(out.n_vals[0], grid.dx)
        m1 = total_integral(out.n_vals[-1], grid.dx)
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_diffusion_spreads_and_flattens(self):
        grid = Grid1D(-5.0, 5.0, 120)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        x = grid.centers
        n0 = 1.0 * np.exp(-(x / 0.5) ** 2)
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.1)
        assert np.max(out.n_vals[-1]) < np.max(n0)

    def test_record_times_are_honored(self):
        grid = Grid1D(-5.0, 5.0, 80)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        x = grid.centers
        n0 = 0.5 * np.exp(-x ** 2)
        wanted = [0.01, 0.02, 0.04]
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.04,
                                  record_times=wanted)
        for t in wanted:
            assert np.any(np.isclose(out.s_values, t, atol=1e-12))

    def test_unsorted_record_times_rejected(self):
        # the same rule as the hydro march's: unsorted or repeated instants
        # are a ConfigurationError, not silently sorted
        grid = Grid1D(-5.0, 5.0, 80)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        n0 = 0.5 * np.exp(-grid.centers ** 2)
        with pytest.raises(ConfigurationError, match="must be sorted"):
            drift_diffusion_run(n0, profile, model, grid, s_end=0.04,
                                record_times=[0.02, 0.01])
        with pytest.raises(ConfigurationError, match="each once"):
            drift_diffusion_run(n0, profile, model, grid, s_end=0.04,
                                record_times=[0.01, 0.01, 0.02])

    def test_negative_initial_rejected(self):
        grid = Grid1D(-1.0, 1.0, 20)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        with pytest.raises(ValueError):
            drift_diffusion_run(np.full(20, -0.1), profile, model, grid,
                                s_end=0.01)

    @pytest.mark.parametrize("a_min", [0.0, -0.0])
    def test_damping_without_a_positive_minimum_rejected(self, a_min):
        # a J = N Upsilon - P(N)_x needs a > 0: refused before any step,
        # naming the minimum
        grid = Grid1D(-1.0, 1.0, 20)
        a = np.ones(20)
        a[7] = a_min
        profile = DeviceProfile.build(grid, a, np.zeros(20), 0.0)
        with pytest.raises(ConfigurationError, match=(
                f"needs a > 0 in every cell, got min a = {a_min!r}$")):
            drift_diffusion_run(np.full(20, 0.5), profile,
                                GasModel(gamma=2.0, delta=0.05), grid,
                                s_end=0.01)

    # a linear mode of periodic charge-neutral-rest (N = 1/2, a = 1,
    # gamma = 2, P = N^2 / 2): n = A cos(kappa x), k = 2 waves on the
    # grid, decays as exp(-(N + P'(N) kappa^2) s / a)
    MODE = 2
    AMPLITUDE = 1e-5

    def mode_error(self, n_cells, law=None):
        """The reference's largest error over 80 records to s = 1/2,
        relative to the mode's exact amplitude, against the exact cell
        averages under the gas law `law` (the scenario's own if None)."""
        setup = make_setup("charge-neutral-rest", {"boundary": "periodic",
                                                   "n_cells": n_cells})
        grid, model, profile = setup.grid, setup.model, setup.profile
        level = setup.scenario.params["neutral_level"]
        kappa = 2.0 * math.pi * self.MODE / (grid.x_max - grid.x_min)
        half = 0.5 * kappa * grid.dx
        # the exact cell average of cos(kappa x) is this factor times its
        # value at the centre
        wave = self.AMPLITUDE * math.sin(half) / half \
            * np.cos(kappa * grid.centers)
        records = np.linspace(0.0, 0.5, 81)
        ref = drift_diffusion_run(level + wave, profile, model, grid,
                                  s_end=0.5, record_times=records[1:])
        assert np.array_equal(ref.s_values, records)
        gas = model if law is None else replace(model,
                                                pressure_convention=law)
        rate = (level + gas.dpressure(level) * kappa ** 2) / profile.a_vals
        exact = wave * np.exp(-np.outer(ref.s_values, rate))
        return float(np.max(np.max(np.abs(ref.n_vals - level - exact),
                                   axis=1)
                            / np.max(np.abs(exact), axis=1)))

    def test_linear_mode_decays_at_its_exact_rate(self):
        # measured 2.44e-4 at n = 250 and 6.36e-5 at n = 500: second order
        # in dx, and a miss of 0.48 against the plain law's rate, P' = 2N
        coarse, fine = self.mode_error(250), self.mode_error(500)
        assert coarse < 3e-4 and fine < 8e-5
        assert coarse / fine > 3.5
        assert self.mode_error(250, PressureConvention.PLAIN) > 0.4

    def test_persistent_negativity_raises(self):
        # an empty cell drained by a strong drift goes negative for every
        # dt > 0, so the halving loop must give up with a diagnosis
        grid = Grid1D(-1.0, 1.0, 40)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid, e_minus=1e6)
        n0 = np.zeros(40)
        n0[20:] = 1.0
        with pytest.raises(PositivityError):
            drift_diffusion_run(n0, profile, model, grid, s_end=1e-4)

    def test_max_steps_cut_raises(self, monkeypatch):
        # one step cap for every march, solver.MAX_STEPS
        setup = study_inputs(n_cells=200)
        profile = uniform_profile(setup.grid, b=0.2)
        model = GasModel(gamma=1.4, delta=0.05)
        monkeypatch.setattr(solver, "MAX_STEPS", 3)
        with pytest.raises(RuntimeError, match=(
                r"^drift-diffusion reference stopped by solver\.MAX_STEPS = 3"
                r" at s = .*s_end = 0\.25$")):
            drift_diffusion_run(0.8 * np.exp(-setup.grid.centers ** 2),
                                profile, model, setup.grid, s_end=0.25)

    def test_two_field_solves_per_step(self, monkeypatch):
        # the midpoint step solves the field at N* and at the new density,
        # handing the latter on to the next step; one more solve for the
        # initial datum
        calls = {"field": 0, "step": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(relaxation, "solve_field",
                            counted("field", relaxation.solve_field))
        monkeypatch.setattr(relaxation, "drift_diffusion_step",
                            counted("step", relaxation.drift_diffusion_step))
        grid = Grid1D(-5.0, 5.0, 80)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid, b=0.2)
        n0 = 0.5 * np.exp(-grid.centers ** 2)
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.02,
                                  record_times=[0.01])
        assert out.halvings == 0
        assert calls["step"] >= 2
        assert calls["field"] == 2 * calls["step"] + 1

    def test_step_and_halving_counts_are_recorded(self, monkeypatch):
        # a zero-field start on a sharp doping bump: the first step spans
        # the whole horizon, and positivity forces dt halvings
        halvings = []
        real_step = relaxation.drift_diffusion_step

        def counted_step(*args, **kwargs):
            result = real_step(*args, **kwargs)
            halvings.append(result[3])
            return result

        monkeypatch.setattr(relaxation, "drift_diffusion_step", counted_step)
        grid = Grid1D(-2.0, 2.0, 80)
        model = GasModel(gamma=2.0, delta=0.05)
        b = 0.2 + 0.8 * np.exp(-(grid.centers / 0.05) ** 2)
        profile = DeviceProfile.build(grid, np.ones(80), b, e_minus=0.0)
        out = drift_diffusion_run(b.copy(), profile, model, grid, s_end=1.0)
        assert out.n_steps == len(halvings)
        assert out.halvings == sum(halvings) > 0

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_increment_solves_its_linear_system(self, boundary, rng):
        # (I - h A) d = h R, with A applied matrix-free as the divergence of
        # the linearised face flux on the ghost-padded increment
        grid = Grid1D(-2.0, 2.0, 40, boundary=boundary)
        model = GasModel(gamma=2.0, delta=0.05)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.0 + 0.2 * np.cos(np.pi * x / 2),
                                      np.full(40, 0.3), e_minus=0.0)
        n_lin = 0.5 + 0.3 * rng.random(40)
        ups = rng.normal(size=40)
        residual = rng.normal(size=40)
        half = 0.01
        _, left, right = relaxation._dd_faces(n_lin, n_lin, ups, profile,
                                              model, grid)
        d = relaxation._dd_increment((residual, left, right), grid, half)
        d_e = grid.extend(d)
        flux = left * d_e[:-1] + right * d_e[1:]
        applied = d - half * (flux[:-1] - flux[1:]) / grid.dx
        assert np.allclose(applied, half * residual, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_slopes_are_the_residuals_derivative(self, gamma, boundary, rng):
        # the increment's linear system uses the true Jacobian J of the
        # residual in N (Upsilon frozen, n_lin = N), built here densely by
        # central differences: d - h J d = h R to round-off in J
        grid = Grid1D(-2.0, 2.0, 40, boundary=boundary)
        model = GasModel(gamma=gamma, delta=0.05)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.0 + 0.2 * np.cos(np.pi * x / 2),
                                      np.full(40, 0.3), e_minus=0.0)
        n_vals = 0.5 + 0.3 * rng.random(40)
        ups = rng.normal(size=40)

        def residual(n):
            return relaxation._dd_faces(n, n, ups, profile, model, grid)[0]

        step = 1e-6
        jac = np.empty((40, 40))
        for k, bump in enumerate(step * np.eye(40)):
            jac[:, k] = (residual(n_vals + bump)
                         - residual(n_vals - bump)) / (2.0 * step)
        faces = relaxation._dd_faces(n_vals, n_vals, ups, profile, model,
                                     grid)
        half = 0.01
        d = relaxation._dd_increment(faces, grid, half)
        gap = d - half * jac @ d - half * faces[0]
        # the differences' round-off reads about 4e-11 of h max |R|; a
        # slope with a dropped or misplaced term reads 1e-2 or more
        scale = half * float(np.max(np.abs(faces[0])))
        assert np.max(np.abs(gap)) <= 1e-8 * scale

    def test_stable_dt_formula(self):
        # the drift limit alone: the implicit diffusion sets none
        grid = Grid1D(-1.0, 1.0, 40)
        profile = DeviceProfile.build(grid, np.linspace(3.0, 2.0, 40),
                                      np.zeros(40), e_minus=0.0)
        ups = np.linspace(-100.0, 50.0, 40)
        got = dd_stable_dt(ups, profile, grid, cfl=0.4)
        assert got == pytest.approx(0.4 * grid.dx * 2.0 / 100.0, rel=1e-15)
        assert dd_stable_dt(np.zeros(40), profile, grid, cfl=0.4) == math.inf


def record_times_of(march, record_times):
    """The record instants of the hydro march or of the drift-diffusion
    reference on a 100-cell gaussian bump marched to 0.5."""
    setup = make_setup("gaussian-bump", {"n_cells": 100, "t_end": 0.5})
    if march == "hydro":
        return run(setup.initial, setup.profile, setup.model, setup.cfg,
                   setup.grid, record_times=record_times).times.tolist()
    n0 = setup.initial.rho - setup.model.rho_floor
    return drift_diffusion_run(n0, setup.profile, setup.model, setup.grid,
                               s_end=0.5,
                               record_times=record_times).s_values.tolist()


@pytest.mark.parametrize("march", ["hydro", "reference"])
def test_both_marches_record_by_one_clock(march):
    assert record_times_of(march, [0.1, 0.2]) == [0.0, 0.1, 0.2, 0.5]
    # an instant within the slack of the one before it is rejected, not
    # recorded a step late
    with pytest.raises(ConfigurationError, match="more than the slack apart"):
        record_times_of(march, [0.1, 0.1 + 1e-14, 0.2])


def criterion_09_reference_inputs(n_cells):
    """The criterion-09 reference datum: the mollified gaussian-bump on
    [-4, 4] less its vacuum offset, delta = 0.2."""
    setup = make_setup("gaussian-bump", {"x_min": -4.0, "x_max": 4.0,
                                         "n_cells": n_cells, "delta": 0.2})
    n0 = setup.initial.rho - setup.model.rho_floor
    return n0, setup.profile, setup.model, setup.grid


def periodic_doped_inputs(n_cells):
    """A neutral periodic device with varying doping and damping."""
    grid = Grid1D(-4.0, 4.0, n_cells, boundary=Boundary.PERIODIC)
    x = grid.centers
    profile = DeviceProfile.build(grid, 1.0 + 0.3 * np.cos(np.pi * x / 4.0),
                                  0.5 + 0.2 * np.cos(np.pi * x / 4.0),
                                  e_minus=0.0)
    n0 = 0.5 + 0.3 * np.cos(np.pi * x / 2.0)
    return n0, profile, GasModel(gamma=2.0, delta=0.2), grid


def zero_drift_inputs(n_cells):
    """N0 = b with e_minus = 0: the field starts identically zero."""
    grid = Grid1D(-4.0, 4.0, n_cells)
    b = 0.3 + 0.5 * np.exp(-grid.centers ** 2)
    profile = DeviceProfile.build(grid, np.ones(n_cells), b, e_minus=0.0)
    return b.copy(), profile, GasModel(gamma=2.0, delta=0.2), grid


# a tenth of the smallest l1_net the criterion-09 ladder reads (2.48e-3),
# so the reference's own error cannot decide the ladder's verdict
ORACLE_GAP = 2.5e-4


class TestExplicitOracle:
    @pytest.mark.parametrize("inputs,sizes", [
        (criterion_09_reference_inputs, (400, 800)),
        (periodic_doped_inputs, (200,)),
        (zero_drift_inputs, (200,)),
    ], ids=["outflow-criterion-09", "periodic-doped", "zero-drift"])
    def test_gap_to_explicit_reference(self, inputs, sizes):
        # the L1(s) gap to the explicit scheme at the 21 records of the
        # ladder; on criterion-09 data it shrinks at least 3x as dx halves,
        # which a first-order step would not
        s_records = np.linspace(0.0, 0.25, 21)
        gaps = []
        for n_cells in sizes:
            n0, profile, model, grid = inputs(n_cells)
            out = drift_diffusion_run(n0, profile, model, grid, s_end=0.25,
                                      record_times=s_records[1:])
            oracle = explicit_dd_run(n0, profile, model, grid, s_records)
            gaps.append(scaled_l1_gap(s_records, out.n_vals, oracle,
                                      grid.dx))
        assert max(gaps) <= ORACLE_GAP
        if len(gaps) == 2:
            assert gaps[0] >= 3.0 * gaps[1]


class TestPeriodicNetCharge:
    def test_neutral_periodic_device_runs(self):
        # the neutral device's net charge is round-off, not zero
        n0, profile, model, grid = periodic_doped_inputs(200)
        assert total_integral(n0 - profile.b_vals, grid.dx) != 0.0
        out = drift_diffusion_run(n0, profile, model, grid, s_end=0.05)
        assert out.s_values[-1] == 0.05


class TestCouplingRule:
    def test_delta_scales_linearly(self):
        rule = CouplingRule(delta_coeff=0.2)
        assert rule.delta(0.1) == pytest.approx(0.02)

    def test_isothermal_epsilon_is_quadratic(self):
        rule = CouplingRule(eps_coeff=0.1, eps_power=2.0)
        # gamma = 1 has unit pressure derivative, so eps = 0.1 tau^2
        assert rule.epsilon(0.2, GasModel(gamma=1.0, delta=0.05)) == \
            pytest.approx(0.1 * 0.04, rel=1e-12)

    def test_epsilon_uses_floor_sound_speed(self):
        rule = CouplingRule(eps_coeff=0.5, eps_power=1.0, delta_coeff=1.0)
        tau = 0.1
        d = rule.delta(tau)
        model = GasModel(gamma=2.0, delta=d)
        expected = 0.5 * math.sqrt(model.dpressure(2.0 * d)) * tau
        assert rule.epsilon(tau, GasModel(gamma=2.0, delta=0.05)) == \
            pytest.approx(expected, rel=1e-12)

    def test_fixed_epsilon_breaks_coupling(self):
        rule = CouplingRule(eps_fixed=0.5)
        for tau in (0.2, 0.1, 0.05):
            assert rule.epsilon(tau, GasModel(gamma=2.0, delta=0.05)) == 0.5


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
    """A unit bump 0.8 exp(-x^2) at rest on [-4, 4], unit damping, no
    doping, no mollifier, gamma = 2."""
    return make_setup("gaussian-bump", {
        "x_min": -4.0, "x_max": 4.0, "n_cells": n_cells, "bump_width": 1.0,
        "smoothing_width": 0.0})


class TestRelaxationStudy:
    @pytest.mark.parametrize("n_cells", [40, 60, 100, 200])
    def test_study_inputs_are_the_hand_built_device(self, n_cells):
        # the setup keeps every bit of the arrays these tests once built
        setup = study_inputs(n_cells)
        grid = Grid1D(-4.0, 4.0, n_cells, boundary=Boundary.OUTFLOW)
        x = grid.centers
        assert setup.grid == grid
        assert np.array_equal(setup.initial.rho,
                              0.8 * np.exp(-x ** 2) + setup.model.rho_floor)
        assert np.array_equal(setup.initial.mom, np.zeros_like(x))
        assert np.array_equal(setup.profile.a_vals, np.ones(n_cells))
        assert np.array_equal(setup.profile.b_vals, np.zeros(n_cells))
        assert setup.profile.e_minus == 0.0
        assert setup.model == GasModel(
            gamma=2.0, delta=0.05,
            pressure_convention=PressureConvention.ONE_OVER_GAMMA)
        assert (setup.cfg.cfl, setup.cfg.smoothing_width) == (0.45, 0.0)

    def test_coupled_ladder_errors_shrink(self):
        result = relaxation_study(
            study_inputs(), tau_list=[0.2, 0.1, 0.05],
            coupling=CouplingRule(delta_coeff=0.2),
            horizon=0.25, window_lo=-2.0, window_hi=2.0)
        errs = [r.l1_error for r in result.rows]
        assert result.monotone.passed
        assert errs[0] > errs[1] > errs[2]
        # dissipation integrals admit one common bound along the ladder
        assert max(r.dissipation for r in result.rows) < 10.0
        assert len(result.reference.s_values) == len(result.reference.n_vals)
        assert result.manifest["tau_list"] == [0.2, 0.1, 0.05]

    def test_manifest_echoes_the_coupling_rule(self):
        # the manifest echoes the rule's four fields and the study
        # settings, each under its config key, as given, so a study can be
        # rerun from its manifest
        coupling = CouplingRule(eps_coeff=0.3, eps_power=1.5, eps_fixed=0.25,
                                delta_coeff=0.2)
        result = relaxation_study(
            study_inputs(40), tau_list=[0.2, 0.1, 0.05], coupling=coupling,
            horizon=0.1, window_lo=-2.0, window_hi=2.0, s0_frac=0.1)
        keys = ("eps_coeff", "eps_power", "eps_fixed", "delta_coeff",
                "horizon", "window_lo", "window_hi", "s0_frac", "n_s_records")
        assert {k: result.manifest[k] for k in keys} == {
            "eps_coeff": 0.3, "eps_power": 1.5, "eps_fixed": 0.25,
            "delta_coeff": 0.2, "horizon": 0.1, "window_lo": -2.0,
            "window_hi": 2.0, "s0_frac": 0.1, "n_s_records": 21}
        assert not {"coupling", "window", "s0"} & set(result.manifest)
        assert set(result.manifest) <= set(RELAX_KEYS)

    def test_detuned_viscosity_breaks_monotonicity(self):
        # freezing eps while tau shrinks violates the smallness coupling and
        # the ladder stops improving: the guard must catch this, not bless it
        result = relaxation_study(
            study_inputs(), tau_list=[0.2, 0.1, 0.05],
            coupling=CouplingRule(eps_fixed=0.5, delta_coeff=0.2),
            horizon=0.25, window_lo=-2.0, window_hi=2.0)
        errs = [r.l1_error for r in result.rows]
        row = result.monotone
        assert (row.value, row.bound, row.passed) == (
            max(errs[1] - errs[0], errs[2] - errs[1]), 0.0, False)

    def test_scaled_gap_of_reference_with_itself_is_zero(self):
        setup = study_inputs(n_cells=100)
        model = GasModel(gamma=1.4, delta=0.05)
        out = drift_diffusion_run(0.8 * np.exp(-setup.grid.centers ** 2),
                                  setup.profile, model,
                                  setup.grid, s_end=0.05,
                                  record_times=[0.025, 0.05])
        assert scaled_l1_gap(out.s_values, out.n_vals, out.n_vals,
                             setup.grid.dx) == 0.0

    def test_rows_are_the_recorded_density_and_scaled_momentum(
            self, monkeypatch):
        runs, seen, real_run = [], [], solver.run

        def recording_run(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        def recording_dissipation(s_values, n_vals, j_vals, rho_floor, dx):
            seen.append((s_values, n_vals, j_vals))
            return 0.0

        monkeypatch.setattr(solver, "run", recording_run)
        monkeypatch.setattr(relaxation, "dissipation_integral",
                            recording_dissipation)
        setup = study_inputs(n_cells=60)
        result = relaxation_study(
            setup, tau_list=[0.2, 0.1, 0.05], horizon=0.05, n_s_records=6,
            s0_frac=0.0)
        assert len(runs) == len(seen) == 3
        for row, traj, (s_values, n_vals, j_vals) in zip(result.rows, runs,
                                                         seen):
            s_ref = result.reference.s_values
            assert np.array_equal(s_values, s_ref)
            assert np.array_equal(traj.times[1:], s_ref[1:] / row.tau)
            assert np.array_equal(n_vals, traj.rho)
            assert np.array_equal(j_vals, traj.mom / row.tau)
            # l1_net is the same gap with the vacuum offset taken off
            gap = scaled_l1_gap(s_values, n_vals - 2.0 * row.delta,
                                result.reference.n_vals, setup.grid.dx)
            assert row.l1_net == pytest.approx(gap, rel=1e-12)

    def test_each_rung_is_a_scenario_run(self, monkeypatch):
        # a rung is the scenario built again by make_setup with the rung's
        # keys over its parameters, and marched bit for bit like it
        runs, real_run = [], solver.run

        def recording_run(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solver, "run", recording_run)
        setup = study_inputs(n_cells=60)
        result = relaxation_study(setup, tau_list=[0.2, 0.1, 0.05],
                                  horizon=0.05, n_s_records=6)
        assert len(runs) == 3
        s_ref = result.reference.s_values
        for row, got in zip(result.rows, runs):
            keys = {"delta": row.delta, "epsilon": row.epsilon,
                    "tau": row.tau, "t_end": 0.05 / row.tau,
                    "source_variant": "excess-density"}
            rung = make_setup("gaussian-bump",
                              {**setup.scenario.params, **keys})
            assert rung.cfg == SolverConfig(
                epsilon=row.epsilon, tau=row.tau, t_end=0.05 / row.tau,
                source_variant=SourceVariant.EXCESS_DENSITY)
            want = real_run(rung.initial, rung.profile, rung.model,
                            rung.cfg, rung.grid,
                            record_times=s_ref[1:] / row.tau)
            assert (got.model, got.cfg, got.grid) == (
                rung.model, rung.cfg, rung.grid)
            for name in ("steps", "times", "rho", "mom", "min_rho"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name))
            assert got.dts == want.dts

    def test_record_that_misses_s_over_tau_raises(self, monkeypatch):
        real_run = solver.run

        def late_run(*args, **kwargs):
            traj = real_run(*args, **kwargs)
            traj.times[1] = np.nextafter(traj.times[1], math.inf)
            return traj

        monkeypatch.setattr(solver, "run", late_run)
        with pytest.raises(RuntimeError, match="misaligned"):
            relaxation_study(
                study_inputs(n_cells=40), tau_list=[0.2, 0.1, 0.05],
                horizon=0.05, n_s_records=6)
