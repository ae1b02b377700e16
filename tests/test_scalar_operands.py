"""The pressure, flux and field helpers against their formulas written with
Python-float scalars, bit for bit.

The helpers hand numpy their scalars (delta, gamma, dx, e_minus, 0.5, ...)
as 0-d float64 arrays; the references below spell each formula out with
plain Python floats, in the helpers' order of operations, on scalars, rows
and (levels, n) slabs.
"""

import numpy as np
import pytest

from semiflux.field import solve_field
from semiflux.model import (DeviceProfile, GasModel, Grid1D,
                            PressureConvention, cumulative_integral)
from semiflux.solver import flux

from helpers import cell_flux

GAMMAS = [1.0, 1.4, 2.0]
DELTAS = [0.05, 0.0137]


def pref_of(model):
    if model.convention is PressureConvention.ONE_OVER_GAMMA:
        return 1.0 / model.gamma
    return 1.0


def p_ref(model, rho):
    return np.power(rho, model.gamma) * pref_of(model)


def dp_ref(model, rho):
    v = np.power(rho, model.gamma - 1.0)
    if model.convention is PressureConvention.PLAIN:
        v = v * model.gamma
    return v


def spread_ref(model, rho, excess):
    return (excess / rho) * np.sqrt(dp_ref(model, rho))


def powm1_ref(x, e):
    """(x**e - 1) / e, and its limit log(x) at e = 0."""
    return np.expm1(np.log(x) * e) / e if e else np.log(x)


def p1_ref(model, rho):
    d2, g = 2.0 * model.delta, model.gamma
    tail = powm1_ref(rho, g - 1.0) - powm1_ref(d2, g - 1.0)
    if model.convention is PressureConvention.PLAIN:
        tail = tail * g
    tail = tail * d2
    return (p_ref(model, rho) - p_ref(model, np.asarray(d2))) - tail


def flux_ref(model, rho, mom):
    u = mom / rho
    f1 = (rho - 2.0 * model.delta) * u
    return f1, p1_ref(model, rho) + (f1 + u * model.delta) * u


def cumulative_ref(vals, dx):
    return (np.cumsum(vals, axis=-1) - vals * 0.5) * dx


def same_bits(got, want):
    return (type(got) is type(want)
            and np.shape(got) == np.shape(want)
            and np.asarray(got).dtype == np.asarray(want).dtype
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def densities(model, shape):
    """Admissible densities from the floor 2*delta up, the floor itself
    among them."""
    rng = np.random.default_rng(7)
    rho = model.rho_floor + rng.uniform(0.0, 3.0, size=shape) ** 2
    rho.reshape(-1)[0] = model.rho_floor
    return rho


SHAPES = [(), (37,), (5, 37)]


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("convention", list(PressureConvention))
class TestPressureTerms:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_unchecked_terms(self, gamma, delta, convention, shape):
        model = GasModel(gamma=gamma, delta=delta, convention=convention)
        rho = densities(model, shape)
        excess = rho - model.rho_floor
        assert same_bits(model._p(rho), p_ref(model, rho))
        assert same_bits(model._dp(rho), dp_ref(model, rho))
        assert same_bits(model._spread(rho, excess),
                         spread_ref(model, rho, excess))
        assert same_bits(model._p1(rho), p1_ref(model, rho))

    @pytest.mark.parametrize("shape", SHAPES[1:])
    def test_out_paths(self, gamma, delta, convention, shape):
        model = GasModel(gamma=gamma, delta=delta, convention=convention)
        rho = densities(model, shape)
        excess = rho - model.rho_floor
        out, tmp = np.full((2,) + shape, np.nan)
        assert same_bits(model._p1(rho, out=out, tmp=tmp), p1_ref(model, rho))
        assert same_bits(model._spread(rho, excess, out=out, tmp=tmp),
                         spread_ref(model, rho, excess))

    def test_checked_scalars_keep_their_types(self, gamma, delta,
                                              convention):
        model = GasModel(gamma=gamma, delta=delta, convention=convention)
        for rho in (0.7, model.rho_floor, 3):
            r = np.asarray(rho, dtype=float)
            assert same_bits(model.pressure(rho), p_ref(model, r))
            assert same_bits(model.dpressure(rho), dp_ref(model, r))

    def test_flux_on_scalars(self, gamma, delta, convention):
        # a cell given as Python floats or 0-d arrays, evaluated as one-cell
        # rows, gives a pair of floats, the formula's bits; with or without
        # the caller's u and excess
        model = GasModel(gamma=gamma, delta=delta, convention=convention)
        for rho, mom in ((0.7, 0.3), (model.rho_floor, 0.0), (3, -1.2)):
            r = np.asarray(rho, dtype=float)
            m = np.asarray(mom, dtype=float)
            want = tuple(float(v) for v in flux_ref(model, r, m))
            for args in ((rho, mom), (r, m),
                         (rho, mom, mom / rho, rho - model.rho_floor)):
                got = cell_flux(model, *args)
                assert type(got) is tuple and len(got) == 2
                assert all(same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("shape", SHAPES[1:])
    def test_perturbed_pressure_and_flux(self, gamma, delta, convention,
                                         shape):
        model = GasModel(gamma=gamma, delta=delta, convention=convention)
        rho = densities(model, shape)
        mom = rho * np.sin(np.arange(rho.size)).reshape(shape)
        # at rest the momentum flux is P1 itself
        assert same_bits(flux(model, rho, np.zeros(shape))[1],
                         p1_ref(model, rho))
        f1, f2 = flux(model, rho, mom)
        r1, r2 = flux_ref(model, rho, mom)
        assert same_bits(f1, r1) and same_bits(f2, r2)
        out, tmp = np.full((2,) + shape, np.nan), np.full(shape, np.nan)
        u, excess = mom / rho, rho - model.rho_floor
        f1, f2 = flux(model, rho, mom, u, excess, out=out, tmp=tmp)
        assert same_bits(f1, r1) and same_bits(f2, r2)


class TestFieldHelpers:
    @pytest.mark.parametrize("levels", [None, 6])
    def test_cumulative_integral_and_field(self, levels):
        grid = Grid1D(-3.0, 4.0, 41)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.2 - 0.1 * np.tanh(x),
                                      0.3 * np.exp(-x ** 2), -0.37)
        shape = grid.centers.shape if levels is None else (levels, 41)
        excess = np.random.default_rng(3).uniform(0.0, 2.0, size=shape)
        want = cumulative_ref(excess, grid.dx)
        assert same_bits(cumulative_integral(excess, grid.dx), want)
        assert same_bits(cumulative_integral(excess, grid._dx), want)
        field = cumulative_ref(excess - profile.b_vals, grid.dx) \
            + profile.e_minus
        assert same_bits(solve_field(excess, profile, grid), field)
        out, tmp = np.full((2,) + shape, np.nan)
        assert same_bits(solve_field(excess, profile, grid, out=out,
                                     tmp=tmp), field)
