import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semiflux.model import (Boundary, ConfigurationError, DeviceProfile,
                            GasModel, Grid1D, HydroState, PressureConvention,
                            build_aux_fields, cumulative_integral,
                            derived_c_profile, total_integral)

from helpers import cell_flux, p1_quadrature, sound_integral_quadrature

OOG = PressureConvention.ONE_OVER_GAMMA
PLAIN = PressureConvention.PLAIN


def make_model(gamma, delta=0.05, convention=OOG):
    return GasModel(gamma=gamma, delta=delta, convention=convention)


def p1(m, rho):
    """P1 as the march reads it: the momentum flux at rest."""
    return cell_flux(m, rho, 0.0)[1]


def eigenvalues(m, rho, mom):
    """The characteristic speeds u -/+ the spread the march reads."""
    u = mom / rho
    spread = m._spread(rho, rho - m.rho_floor)
    return u - spread, u + spread


# strategies shared across the property tests
gammas = st.floats(min_value=1.0, max_value=4.0)
deltas = st.floats(min_value=1e-3, max_value=0.3)
conventions = st.sampled_from([OOG, PLAIN])


class TestPressure:
    def test_isothermal_is_identity(self):
        assert make_model(1.0).pressure(3.0) == pytest.approx(3.0, abs=0)

    def test_quadratic_normalized(self):
        assert make_model(2.0).pressure(2.0) == pytest.approx(2.0, abs=0)

    def test_plain_convention_power(self):
        m = make_model(1.4, convention=PLAIN)
        assert m.pressure(0.7) == pytest.approx(
            math.exp(1.4 * math.log(0.7)), rel=1e-14)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            make_model(2.0).pressure(-1.0)
        with pytest.raises(ValueError):
            make_model(1.4).dpressure(np.array([0.5, -0.1]))

    def test_vacuum_pressure_is_zero(self):
        # the diffusion-limit solver evaluates P at densities down to zero
        assert make_model(2.0).pressure(0.0) == 0.0

    @given(gamma=gammas, convention=conventions,
           rho=st.floats(min_value=1e-3, max_value=10.0))
    def test_dpressure_positive(self, gamma, convention, rho):
        m = make_model(gamma, convention=convention)
        assert m.dpressure(rho) > 0.0

    @given(gamma=gammas, convention=conventions,
           a=st.floats(min_value=0.01, max_value=9.0),
           bump=st.floats(min_value=1e-6, max_value=1.0))
    def test_pressure_monotone(self, gamma, convention, a, bump):
        m = make_model(gamma, convention=convention)
        assert m.pressure(a + bump) > m.pressure(a)


class TestPerturbedPressure:
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
    @pytest.mark.parametrize("convention", [OOG, PLAIN])
    def test_zero_at_floor(self, gamma, convention):
        m = make_model(gamma, delta=0.07, convention=convention)
        assert p1(m, m.rho_floor) == 0.0

    def test_isothermal_antiderivative(self):
        # rho - 2 delta ln rho evaluated between 2 delta and 1
        m = make_model(1.0, delta=0.05)
        expected = 1.0 - 0.1 + 0.1 * math.log(0.1)
        assert p1(m, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.66974, abs=5e-6)

    def test_quadratic_closed_form(self):
        # rho^2/2 - 2 delta rho + 2 delta^2 at rho=1, delta=0.05
        m = make_model(2.0, delta=0.05)
        assert p1(m, 1.0) == pytest.approx(0.405, rel=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(gamma=gammas, delta=deltas, convention=conventions,
           frac=st.floats(min_value=0.0, max_value=1.0))
    def test_matches_quadrature(self, gamma, delta, convention, frac):
        m = make_model(gamma, delta=delta, convention=convention)
        rho = m.rho_floor + frac * (10.0 - m.rho_floor)
        closed = p1(m, rho)
        oracle = p1_quadrature(gamma, delta, rho, convention)
        assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @given(gamma=gammas, delta=deltas, convention=conventions,
           a=st.floats(min_value=0.0, max_value=5.0),
           bump=st.floats(min_value=0.0, max_value=2.0))
    def test_nondecreasing(self, gamma, delta, convention, a, bump):
        m = make_model(gamma, delta=delta, convention=convention)
        lo = m.rho_floor + a
        assert p1(m, lo + bump) >= p1(m, lo) - 1e-14


class TestEigenvalues:
    def test_degenerate_at_floor(self):
        m = make_model(1.4, delta=0.05)
        u0 = 0.37
        lam1, lam2 = eigenvalues(m, np.array([m.rho_floor]),
                                 np.array([m.rho_floor * u0]))
        assert lam1[0] == pytest.approx(u0, abs=1e-15)
        assert lam2[0] == pytest.approx(u0, abs=1e-15)

    def test_isothermal_reference(self):
        m = make_model(1.0, delta=0.05)
        lam1, lam2 = eigenvalues(m, np.array([1.0]), np.array([0.0]))
        assert lam1[0] == pytest.approx(-0.9, abs=1e-14)
        assert lam2[0] == pytest.approx(0.9, abs=1e-14)

    def test_cubic_sound_speed(self):
        # gamma=3 normalized: sqrt(P') = rho; offset negligible
        m = make_model(3.0, delta=1e-12)
        lam1, lam2 = eigenvalues(m, np.array([2.0]), np.array([0.0]))
        assert lam1[0] == pytest.approx(-2.0, abs=1e-9)
        assert lam2[0] == pytest.approx(2.0, abs=1e-9)

    @settings(max_examples=120)
    @given(gamma=gammas, delta=deltas, convention=conventions,
           excess=st.floats(min_value=0.0, max_value=5.0),
           u=st.floats(min_value=-3.0, max_value=3.0))
    def test_ordering_and_gap(self, gamma, delta, convention, excess, u):
        m = make_model(gamma, delta=delta, convention=convention)
        rho = np.array([m.rho_floor + excess])
        mom = rho * u
        lam1, lam2 = eigenvalues(m, rho, mom)
        gap = 2.0 * (excess / rho[0]) * math.sqrt(m.dpressure(rho[0]))
        assert lam2[0] - lam1[0] == pytest.approx(gap, rel=1e-12, abs=1e-12)
        assert lam2[0] >= lam1[0]
        if excess == 0.0:
            assert lam1[0] == lam2[0]


class TestRiemannInvariants:
    def test_isothermal_log_form(self):
        m = make_model(1.0, delta=0.05)
        z, w = m.riemann_invariants(np.array([1.0]), np.array([0.3]))
        assert z[0] == pytest.approx(-0.3, abs=1e-15)
        assert w[0] == pytest.approx(0.3, abs=1e-15)

    def test_square_root_integral(self):
        # int_1^rho s^(-1/2) ds = 2 (sqrt(rho) - 1) for gamma = 2 normalized
        m = make_model(2.0, delta=0.05)
        rho = np.array([0.1, 1.0, 2.25, 4.0])
        z, w = m.riemann_invariants(rho, np.zeros_like(rho))
        expected = 2.0 * (np.sqrt(rho) - 1.0)
        assert z == pytest.approx(expected, rel=1e-14, abs=1e-15)
        assert w == pytest.approx(expected, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("convention", [OOG, PLAIN])
    def test_continuous_at_isothermal(self, convention):
        # one expm1 form for every gamma: no jump as gamma reaches 1
        iso = make_model(1.0, delta=0.05, convention=convention)
        near = make_model(1.0 + 1e-12, delta=0.05, convention=convention)
        rho = np.linspace(iso.rho_floor, 5.0, 201)
        assert np.max(np.abs(near.sound_integral(rho)
                             - iso.sound_integral(rho))) <= 1e-10

    @given(gamma=gammas, delta=deltas, convention=conventions,
           excess=st.floats(min_value=0.0, max_value=5.0),
           u=st.floats(min_value=-4.0, max_value=4.0))
    @example(gamma=1.0 + 2.0 ** -52, delta=0.25, convention=OOG, excess=0.2,
             u=0.5)
    def test_difference_identity(self, gamma, delta, convention, excess, u):
        m = make_model(gamma, delta=delta, convention=convention)
        rho = np.array([m.rho_floor + excess])
        z, w = m.riemann_invariants(rho, rho * u)
        assert w[0] - z[0] == pytest.approx(2.0 * u, rel=1e-12, abs=1e-12)

    @given(gamma=gammas, delta=deltas, convention=conventions,
           excess=st.floats(min_value=0.0, max_value=5.0),
           bump=st.floats(min_value=1e-6, max_value=2.0),
           u=st.floats(min_value=-2.0, max_value=2.0))
    def test_monotone_in_density(self, gamma, delta, convention, excess,
                                 bump, u):
        m = make_model(gamma, delta=delta, convention=convention)
        r1 = np.array([m.rho_floor + excess])
        r2 = r1 + bump
        z1, w1 = m.riemann_invariants(r1, r1 * u)
        z2, w2 = m.riemann_invariants(r2, r2 * u)
        assert z2[0] >= z1[0] - 1e-12
        assert w2[0] >= w1[0] - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(gamma=gammas, delta=deltas,
           convention=conventions,
           excess=st.floats(min_value=0.05, max_value=5.0))
    def test_sound_integral_matches_quadrature(self, gamma, delta, convention,
                                               excess):
        m = make_model(gamma, delta=delta, convention=convention)
        rho = m.rho_floor + excess
        oracle = sound_integral_quadrature(m, rho)
        assert float(m.sound_integral(rho)) == pytest.approx(
            oracle, rel=1e-7, abs=1e-9)

    @given(gamma=gammas, delta=deltas, convention=conventions,
           excess=st.floats(min_value=0.1, max_value=5.0))
    def test_sound_integral_derivative(self, gamma, delta, convention, excess):
        # d/drho of the integral is sqrt(P'(rho))/rho, independent of the
        # antiderivative normalization
        m = make_model(gamma, delta=delta, convention=convention)
        rho = m.rho_floor + excess
        h = 1e-6 * max(1.0, rho)
        fd = (float(m.sound_integral(rho + h))
              - float(m.sound_integral(rho - h))) / (2.0 * h)
        expected = math.sqrt(m.dpressure(rho)) / rho
        assert fd == pytest.approx(expected, rel=5e-6)

    @given(delta=deltas, convention=conventions,
           rho=st.floats(min_value=0.7, max_value=6.0))
    def test_isothermal_sound_integral_is_log(self, delta, convention, rho):
        m = make_model(1.0, delta=delta, convention=convention)
        assert float(m.sound_integral(rho)) == pytest.approx(
            math.log(rho), rel=1e-14, abs=1e-14)


class TestGrid:
    def test_spacing_and_centers(self):
        g = Grid1D(x_min=-1.0, x_max=1.0, n_cells=10, boundary=Boundary.OUTFLOW)
        assert g.dx == pytest.approx(0.2)
        assert len(g.centers) == 10
        assert g.centers[0] == pytest.approx(-0.9)
        assert g.centers[-1] == pytest.approx(0.9)

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            Grid1D(x_min=0.0, x_max=1.0, n_cells=4, boundary=Boundary.OUTFLOW)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Grid1D(x_min=1.0, x_max=1.0, n_cells=10,
                   boundary=Boundary.OUTFLOW)

    def test_cumulative_integral_of_ones(self):
        g = Grid1D(x_min=-2.0, x_max=3.0, n_cells=50,
                   boundary=Boundary.OUTFLOW)
        vals = np.ones(50)
        cum = cumulative_integral(vals, g.dx)
        assert np.allclose(cum, g.centers - g.x_min, atol=1e-13)

    def test_cumulative_integral_along_rows(self):
        rows = np.random.default_rng(7).normal(size=(4, 30))
        cum = cumulative_integral(rows, 0.1)
        for r, c in zip(rows, cum):
            assert np.array_equal(c, cumulative_integral(r, 0.1))

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_extend_pads_each_row(self, boundary):
        g = Grid1D(x_min=0.0, x_max=1.0, n_cells=10, boundary=boundary)
        rows = np.random.default_rng(3).normal(size=(3, 10))
        ext = g.extend(rows)
        assert ext.shape == (3, 12)
        for r, e in zip(rows, ext):
            if boundary is Boundary.PERIODIC:
                expected = np.concatenate(([r[-1]], r, [r[0]]))
            else:
                expected = np.concatenate(([r[0]], r, [r[-1]]))
            assert np.array_equal(e, expected)
            assert np.array_equal(g.extend(r), expected)

    def test_total_integral_matches_sum(self):
        g = Grid1D(x_min=0.0, x_max=1.0, n_cells=16, boundary=Boundary.OUTFLOW)
        vals = np.linspace(0.0, 1.0, 16)
        assert total_integral(vals, g.dx) == pytest.approx(
            g.dx * vals.sum(), abs=0)


def ramp_profile(grid, e_minus=1.0, coeff=1.0, b_mass=0.5, width=0.8):
    x = grid.centers
    b = b_mass / (width * math.sqrt(math.pi)) * np.exp(-(x / width) ** 2)
    a = e_minus - coeff * cumulative_integral(b, grid.dx)
    return a, b


class TestProfileValidation:
    def setup_method(self):
        self.grid = Grid1D(x_min=-5.0, x_max=5.0, n_cells=200,
                           boundary=Boundary.OUTFLOW)

    def test_ramp_construction_passes(self):
        # a(x) = E_minus - coeff * int b with small positive doping passes
        # every hypothesis, including the derived-C slope
        a, b = ramp_profile(self.grid)
        check = DeviceProfile.build(self.grid, a, b, 1.0).check
        assert check.ok, check.first_failure

    def test_flat_profile_passes(self):
        n = self.grid.n_cells
        check = DeviceProfile.build(self.grid, np.ones(n), np.zeros(n),
                                    1.0).check
        assert check.ok
        assert all(check.conditions.values())

    def test_increasing_damping_fails(self):
        n = self.grid.n_cells
        a = np.linspace(1.0, 2.0, n)
        check = DeviceProfile.build(self.grid, a, np.zeros(n), 1.0).check
        assert not check.ok
        assert check.first_failure == "damping non-increasing"

    def test_excess_doping_fails(self):
        n = self.grid.n_cells
        b = np.full(n, 0.5)   # integral = 5 > e_minus
        check = DeviceProfile.build(self.grid, np.ones(n), b, 1.0).check
        assert not check.ok
        assert check.first_failure == "total doping below field datum"

    def test_nonpositive_doping_waives_mass_condition(self):
        n = self.grid.n_cells
        b = np.full(n, -0.2)
        check = DeviceProfile.build(self.grid, np.ones(n), b, 0.0).check
        assert check.ok
        assert check.conditions["total doping below field datum"]

    def test_c_profile_bracket(self):
        # (E_minus - total doping)/sup(a) <= C <= E_minus/inf(a)
        a, b = ramp_profile(self.grid)
        prof = DeviceProfile.build(self.grid, a, b, 1.0)
        assert prof.check.ok
        total_b = total_integral(b, self.grid.dx)
        lower = (1.0 - total_b) / float(np.max(a))
        upper = 1.0 / float(np.min(a))
        assert np.all(prof.c_vals >= lower - 1e-12)
        assert np.all(prof.c_vals <= upper + 1e-12)

    def test_derived_c_matches_definition(self):
        a, b = ramp_profile(self.grid)
        c = derived_c_profile(a, b, 1.0, self.grid.dx)
        expected = (1.0 - cumulative_integral(b, self.grid.dx)) / a
        assert np.allclose(c, expected, atol=0)

    def test_build_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile.build(self.grid, np.ones(7), np.zeros(7), 0.0)

    def test_build_rejects_negative_damping_as_configuration(self):
        n = self.grid.n_cells
        with pytest.raises(ConfigurationError, match="non-negative"):
            DeviceProfile.build(self.grid, np.full(n, -1.0), np.zeros(n), 0.0)

    def test_zero_damping_fails_without_dividing(self):
        # C is undefined where a = 0: it is NaN there, and the check records
        # its condition as failed; no division by zero is evaluated (numpy
        # warnings are errors in this suite)
        n = self.grid.n_cells
        a = np.ones(n)
        a[n // 2:] = 0.0
        prof = DeviceProfile.build(self.grid, a, np.zeros(n), 1.0)
        assert not prof.check.ok
        assert prof.check.first_failure == "damping positive"
        assert prof.check.conditions["C non-decreasing"] is False
        assert np.array_equal(prof.c_vals[:n // 2], np.ones(n // 2))
        assert np.all(np.isnan(prof.c_vals[n // 2:]))


class TestAuxFields:
    def setup_method(self):
        self.grid = Grid1D(x_min=-5.0, x_max=5.0, n_cells=200,
                           boundary=Boundary.OUTFLOW)
        self.model = make_model(2.0, delta=0.05)

    def test_constant_state_reduces_to_c(self):
        prof = DeviceProfile.uniform(self.grid, a=1.3, b=0.0, e_minus=0.7)
        rho = np.full(self.grid.n_cells, self.model.rho_floor)
        state = HydroState(rho=rho, mom=np.zeros_like(rho))
        aux = build_aux_fields(state, prof, self.model, self.grid)
        assert np.allclose(aux.cumulative_charge, 0.0, atol=0)
        assert np.allclose(aux.a_field, prof.c_vals, atol=0)

    def test_constant_damping_kills_b(self):
        prof = DeviceProfile.uniform(self.grid, a=2.0, b=0.0, e_minus=1.0)
        rho = self.model.rho_floor + np.exp(-self.grid.centers ** 2)
        state = HydroState(rho=rho, mom=np.zeros_like(rho))
        aux = build_aux_fields(state, prof, self.model, self.grid)
        assert np.allclose(aux.b_field, 0.0, atol=1e-14)

    def test_decreasing_damping_gives_nonnegative_b(self):
        a, b = ramp_profile(self.grid)
        prof = DeviceProfile.build(self.grid, a, b, 1.0)
        assert prof.check.ok
        rho = self.model.rho_floor + 0.5 * np.exp(-self.grid.centers ** 2)
        state = HydroState(rho=rho, mom=np.zeros_like(rho))
        aux = build_aux_fields(state, prof, self.model, self.grid)
        assert np.all(aux.b_field >= -1e-13)

    def test_a_field_uniform_bound(self):
        a, b = ramp_profile(self.grid)
        prof = DeviceProfile.build(self.grid, a, b, 1.0)
        rho = self.model.rho_floor + 0.5 * np.exp(-self.grid.centers ** 2)
        state = HydroState(rho=rho, mom=np.zeros_like(rho))
        aux = build_aux_fields(state, prof, self.model, self.grid)
        mass = total_integral(rho - self.model.rho_floor, self.grid.dx)
        bound = float(np.max(prof.c_vals)) + mass / float(np.min(a))
        assert np.all(aux.a_field <= bound + 1e-12)


class TestModelValidation:
    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            GasModel(gamma=0.9, delta=0.05)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            GasModel(gamma=2.0, delta=0.0)
