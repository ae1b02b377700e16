import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from semiflux.field import field_bound, solve_field
from semiflux.model import (Boundary, DeviceProfile, GasModel, Grid1D,
                            HydroState, total_integral)


def make_parts(n_cells=400, delta=0.05):
    grid = Grid1D(x_min=-6.0, x_max=6.0, n_cells=n_cells,
                  boundary=Boundary.OUTFLOW)
    model = GasModel(gamma=2.0, delta=delta)
    return grid, model


def rest_state(model, grid, excess):
    rho = model.rho_floor + excess
    return HydroState(rho=rho, mom=np.zeros_like(rho))


def test_neutral_state_keeps_datum():
    grid, model = make_parts()
    prof = DeviceProfile.uniform(grid, a=1.0, b=0.0, e_minus=0.75)
    state = rest_state(model, grid, np.zeros(grid.n_cells))
    field = solve_field(state.excess(model), prof, grid)
    assert np.allclose(field, 0.75, atol=0)


def test_gaussian_charge_matches_erf():
    # unit-mass gaussian excess: E(x) = (1 + erf(x)) / 2 up to quadrature
    grid, model = make_parts(n_cells=1200)
    prof = DeviceProfile.uniform(grid, a=1.0, b=0.0, e_minus=0.0)
    x = grid.centers
    excess = np.exp(-x ** 2) / math.sqrt(math.pi)
    state = rest_state(model, grid, excess)
    field = solve_field(state.excess(model), prof, grid)
    expected = 0.5 * (1.0 + erf(x))
    assert np.max(np.abs(field - expected)) < 5e-6


def test_superposition():
    grid, model = make_parts()
    prof = DeviceProfile.uniform(grid, a=1.0, b=0.0, e_minus=0.0)
    x = grid.centers
    e1 = np.exp(-x ** 2)
    e2 = 0.3 * np.exp(-((x - 1.5) / 0.5) ** 2)
    f1 = solve_field(rest_state(model, grid, e1).excess(model), prof, grid)
    f2 = solve_field(rest_state(model, grid, e2).excess(model), prof, grid)
    f12 = solve_field(rest_state(model, grid, e1 + e2).excess(model), prof,
                      grid)
    assert np.allclose(f12, f1 + f2, atol=1e-13)


def test_doping_enters_with_opposite_sign():
    grid, model = make_parts()
    x = grid.centers
    b = 0.4 * np.exp(-x ** 2)
    prof = DeviceProfile.build(grid, np.ones(grid.n_cells), b, 0.0)
    state = rest_state(model, grid, b.copy())
    field = solve_field(state.excess(model), prof, grid)
    # excess exactly cancels the doping: charge-neutral, flat field
    assert np.allclose(field, 0.0, atol=1e-13)


def test_discrete_differencing_recovers_charge():
    grid, model = make_parts()
    x = grid.centers
    b = 0.1 * np.exp(-((x + 1.0) / 0.7) ** 2)
    prof = DeviceProfile.build(grid, np.ones(grid.n_cells), b, 0.3)
    excess = 0.6 * np.exp(-x ** 2)
    state = rest_state(model, grid, excess)
    field = solve_field(state.excess(model), prof, grid)
    charge = excess - b
    diff = np.diff(field) / grid.dx
    face_avg = 0.5 * (charge[:-1] + charge[1:])
    # the running-integral construction telescopes exactly
    assert np.max(np.abs(diff - face_avg)) < 1e-13


def _consistency_error(n):
    grid, model = make_parts(n_cells=n)
    x = grid.centers
    excess = 0.6 * np.exp(-x ** 2)
    prof = DeviceProfile.uniform(grid, a=1.0, b=0.0, e_minus=0.0)
    state = rest_state(model, grid, excess)
    field = solve_field(state.excess(model), prof, grid)
    faces = grid.faces[1:-1]
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
    state = rest_state(model, grid, excess)
    expected = 0.4 + total_integral(excess, grid.dx) \
        + total_integral(np.abs(b), grid.dx)
    assert field_bound(state, prof, model, grid) == pytest.approx(
        expected, rel=1e-14)


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
    state = rest_state(model, grid, excess)
    field = solve_field(state.excess(model), prof, grid)
    bound = field_bound(state, prof, model, grid)
    assert float(np.max(np.abs(field))) <= bound + 1e-12
