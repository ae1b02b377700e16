import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from semiflux.field import doping_mass, mass_field_bound, solve_field
from semiflux.model import (Boundary, DeviceProfile, GasModel, Grid1D,
                            cumulative_integral, total_integral)

from helpers import uniform_profile


def make_parts(n_cells=400, delta=0.05):
    grid = Grid1D(x_min=-6.0, x_max=6.0, n_cells=n_cells,
                  boundary=Boundary.OUTFLOW)
    model = GasModel(gamma=2.0, delta=delta)
    return grid, model


def rest_excess(model, excess):
    """rho - 2*delta of the density rho = 2*delta + excess."""
    return (model.rho_floor + excess) - model.rho_floor


def test_neutral_state_keeps_datum():
    grid, model = make_parts()
    prof = uniform_profile(grid, a=1.0, b=0.0, e_minus=0.75)
    field = solve_field(rest_excess(model, np.zeros(grid.n_cells)), prof,
                        grid)
    assert np.allclose(field, 0.75, atol=0)


def test_gaussian_charge_matches_erf():
    # unit-mass gaussian excess: E(x) = (1 + erf(x)) / 2 up to quadrature
    grid, model = make_parts(n_cells=1200)
    prof = uniform_profile(grid, a=1.0, b=0.0, e_minus=0.0)
    x = grid.centers
    excess = np.exp(-x ** 2) / math.sqrt(math.pi)
    field = solve_field(rest_excess(model, excess), prof, grid)
    expected = 0.5 * (1.0 + erf(x))
    assert np.max(np.abs(field - expected)) < 5e-6


def test_superposition():
    grid, model = make_parts()
    prof = uniform_profile(grid, a=1.0, b=0.0, e_minus=0.0)
    x = grid.centers
    e1 = np.exp(-x ** 2)
    e2 = 0.3 * np.exp(-((x - 1.5) / 0.5) ** 2)
    f1 = solve_field(rest_excess(model, e1), prof, grid)
    f2 = solve_field(rest_excess(model, e2), prof, grid)
    f12 = solve_field(rest_excess(model, e1 + e2), prof,
                      grid)
    assert np.allclose(f12, f1 + f2, atol=1e-13)


def test_doping_enters_with_opposite_sign():
    grid, model = make_parts()
    x = grid.centers
    b = 0.4 * np.exp(-x ** 2)
    prof = DeviceProfile.build(grid, np.ones(grid.n_cells), b, 0.0)
    field = solve_field(rest_excess(model, b.copy()), prof, grid)
    # excess exactly cancels the doping: charge-neutral, flat field
    assert np.allclose(field, 0.0, atol=1e-13)


def test_discrete_differencing_recovers_charge():
    grid, model = make_parts()
    x = grid.centers
    b = 0.1 * np.exp(-((x + 1.0) / 0.7) ** 2)
    prof = DeviceProfile.build(grid, np.ones(grid.n_cells), b, 0.3)
    excess = 0.6 * np.exp(-x ** 2)
    field = solve_field(rest_excess(model, excess), prof, grid)
    charge = excess - b
    diff = np.diff(field) / grid.dx
    face_avg = 0.5 * (charge[:-1] + charge[1:])
    # the running-integral construction telescopes exactly
    assert np.max(np.abs(diff - face_avg)) < 1e-13


def _consistency_error(n):
    grid, model = make_parts(n_cells=n)
    x = grid.centers
    excess = 0.6 * np.exp(-x ** 2)
    prof = uniform_profile(grid, a=1.0, b=0.0, e_minus=0.0)
    field = solve_field(rest_excess(model, excess), prof, grid)
    faces = grid.x_min + np.arange(1, grid.n_cells) * grid.dx
    return float(np.max(np.abs(np.diff(field) / grid.dx
                               - 0.6 * np.exp(-faces ** 2))))


@pytest.mark.parametrize("n", [100, 200, 400])
def test_differencing_consistency_order(n):
    # against the pointwise charge the face average is second order; the
    # acceptance bar is order >= 1 on each halving of dx from n cells
    order = math.log2(_consistency_error(n) / _consistency_error(2 * n))
    assert order >= 1.0


def test_bound_composition():
    grid, model = make_parts()
    x = grid.centers
    excess = 0.5 * np.exp(-x ** 2)
    b = -0.2 * np.exp(-x ** 2)
    prof = DeviceProfile.build(grid, np.ones(grid.n_cells), b, -0.4)
    mass = total_integral(rest_excess(model, excess), grid.dx)
    expected = 0.4 + total_integral(excess, grid.dx) \
        + total_integral(np.abs(b), grid.dx)
    assert mass_field_bound(mass, doping_mass(prof, grid),
                            prof.e_minus) == pytest.approx(expected, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(amp=st.floats(min_value=0.0, max_value=2.0),
       center=st.floats(min_value=-3.0, max_value=3.0),
       b_amp=st.floats(min_value=-0.5, max_value=0.5),
       e_minus=st.floats(min_value=-1.0, max_value=1.0))
def test_sup_field_within_bound(amp, center, b_amp, e_minus):
    grid, model = make_parts(n_cells=200)
    x = grid.centers
    excess = amp * np.exp(-(x - center) ** 2)
    b = b_amp * np.exp(-x ** 2)
    prof = DeviceProfile.build(grid, np.ones(grid.n_cells), b, e_minus)
    charge = rest_excess(model, excess)
    field = solve_field(charge, prof, grid)
    bound = mass_field_bound(total_integral(charge, grid.dx),
                             doping_mass(prof, grid), e_minus)
    assert float(np.max(np.abs(field))) <= bound + 1e-12


@pytest.mark.parametrize("levels", [None, 9], ids=["row", "slab"])
def test_out_path_matches_cumsum_formula(levels):
    # the field as it was first written, np.cumsum and fresh arrays, bit for
    # bit: on one row (the march) and on a (levels, n) slab (Picard)
    grid, model = make_parts(n_cells=300)
    x = grid.centers
    prof = DeviceProfile.build(grid, np.ones(grid.n_cells),
                               0.3 * np.exp(-x ** 2), 0.4)
    shape = (grid.n_cells,) if levels is None else (levels, grid.n_cells)
    excess = np.random.default_rng(5).uniform(0.0, 2.0, size=shape)
    vals = excess - prof.b_vals
    want = prof.e_minus + grid.dx * (np.cumsum(vals, axis=-1) - 0.5 * vals)
    assert np.array_equal(solve_field(excess, prof, grid), want)
    out, tmp = np.full(shape, np.nan), np.full(shape, np.nan)
    assert solve_field(excess, prof, grid, out=out, tmp=tmp) is out
    assert np.array_equal(out, want)

    integral = grid.dx * (np.cumsum(excess, axis=-1) - 0.5 * excess)
    assert np.array_equal(cumulative_integral(excess, grid.dx), integral)
    # the half weights may overwrite the values themselves
    vals = excess.copy()
    out = np.full(shape, np.nan)
    cumulative_integral(vals, grid.dx, out=out, tmp=vals)
    assert np.array_equal(out, integral)
