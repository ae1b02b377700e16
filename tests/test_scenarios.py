"""The scenario library: one device formula over the key table, each
scenario a row of overrides, and the initial-data set-up (the mollifier
and the lift to the vacuum offset).

Every row is pinned to the arrays its own formula gave before the rows
shared one (a charged row on a periodic grid to its rejection), every key
of every row must reach the RunSetup, and overrides take the config file's
cast.
"""

import enum
import math

import numpy as np
import pytest

from semiflux import (Boundary, ConfigurationError, GasModel, Grid1D,
                      SolverConfig, cumulative_integral, prepare_initial, run,
                      total_integral)
from semiflux.config import SCENARIO_KEYS
from semiflux.monitors import _check_profile
from semiflux.scenarios import (SCENARIOS, gaussian, gaussian_kernel,
                                make_setup)

from helpers import conv_same, uniform_profile

GRIDS = [({"n_cells": 500}, "n500-outflow"),
         ({"n_cells": 97, "boundary": "periodic"}, "n97-periodic")]
# rows whose bump and doping do not balance: no periodic field exists
CHARGED = ("gaussian-bump", "doping-ramp", "isothermal-bump")


def row_arrays(name, x, dx):
    """(raw density, velocity, a, b, e_minus) of each scenario, written out
    as its own formula: a bump at rest, a constant state, or the doping bump
    under its matched damping ramp."""
    zeros, ones = np.zeros(x.size), np.ones(x.size)
    if name == "vacuum-rest":
        return zeros, zeros, ones, zeros, 0.0
    if name == "charge-neutral-rest":
        return np.full(x.size, 0.5), zeros, ones, np.full(x.size, 0.5), 0.0
    if name == "doping-ramp":
        b = 0.5 / (0.8 * math.sqrt(math.pi)) * gaussian(x, 0.0, 0.8)
        return (0.5 * gaussian(x, -1.0, 0.5), zeros,
                1.0 - cumulative_integral(b, dx), b, 1.0)
    return 0.8 * gaussian(x, 0.0, 0.5), zeros, ones, zeros, 0.0


@pytest.mark.parametrize("overrides", [g for g, _ in GRIDS],
                         ids=[i for _, i in GRIDS])
@pytest.mark.parametrize("name", SCENARIOS)
def test_row_matches_its_own_formula(name, overrides):
    if name in CHARGED and overrides.get("boundary") == "periodic":
        with pytest.raises(ConfigurationError,
                           match="a periodic device needs zero net charge"):
            make_setup(name, overrides)
        return
    setup = make_setup(name, overrides)
    grid = setup.grid
    raw, u, a, b, e_minus = row_arrays(name, grid.centers, grid.dx)
    want = prepare_initial(raw, u, setup.model, grid,
                           setup.params["smoothing_width"])
    np.testing.assert_array_equal(setup.initial.rho, want.rho)
    np.testing.assert_array_equal(setup.initial.mom, want.mom)
    np.testing.assert_array_equal(setup.profile.a_vals, a)
    np.testing.assert_array_equal(setup.profile.b_vals, b)
    assert setup.profile.e_minus == e_minus


def fingerprint(setup):
    """Everything a RunSetup hands to a run, its parameter dict aside."""
    prof = setup.profile
    return (setup.model, setup.grid, setup.cfg, prof.e_minus,
            *(v.tobytes() for v in (setup.initial.rho, setup.initial.mom,
                                    prof.a_vals, prof.b_vals)))


def perturbed(value):
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    return value + 1 if isinstance(value, int) else value + 0.1


def shapes_nothing(key, p) -> bool:
    """A centre, width or slope key whose amplitude is zero in the row."""
    if key in ("bump_center", "bump_width"):
        return p["bump_amplitude"] == 0.0 and p["bump_speed"] == 0.0
    if key in ("doping_center", "doping_width"):
        return p["doping_mass"] == 0.0
    if key == "damping_slope_coeff":
        return p["doping_mass"] == 0.0 and p["neutral_level"] == 0.0
    if key == "smoothing_width":  # the mollifier of zero data
        return (p["bump_amplitude"] == 0.0 and p["bump_speed"] == 0.0
                and p["neutral_level"] == 0.0)
    return False


# the first uniform-bound hypothesis each row's device fails at its
# defaults, None where the bound applies; the set-up builds every device
# and the audit declines uniform for a failing one
FIRST_FAILURE = {"vacuum-rest": None, "gaussian-bump": None,
                 "doping-ramp": None, "isothermal-bump": None,
                 "charge-neutral-rest": "total doping below field datum"}


def test_first_failing_hypothesis_of_each_row():
    setups = {name: make_setup(name) for name in SCENARIOS}
    assert {name: _check_profile(s.profile, s.grid.dx)
            for name, s in setups.items()} == FIRST_FAILURE


def test_every_key_reaches_the_setup():
    # a perturbed key changes the setup, or changes the device so that it
    # cannot be built (a periodic grid under a charged row); only a shape
    # without amplitude may change nothing
    unchanged, expected = set(), set()
    for name, params in SCENARIOS.items():
        base = fingerprint(make_setup(name, {"n_cells": 60}))
        for key in SCENARIO_KEYS:
            overrides = {"n_cells": 60, key: perturbed(params[key])}
            try:
                same = fingerprint(make_setup(name, overrides)) == base
            except ConfigurationError as err:
                # the cast took the value; the device built from it failed
                assert not str(err).startswith("bad value"), (name, key, err)
                same = False
            if same:
                unchanged.add((name, key))
            if shapes_nothing(key, params):
                expected.add((name, key))
    assert unchanged == expected
    assert len(expected) == 16


@pytest.mark.parametrize("key,value", [
    ("n_cells", 300.9), ("n_cells", "abc"), ("boundary", "periodc"),
    ("bump_width", 0.0), ("doping_width", -0.8), ("neutral_levle", 0.4),
], ids=["n-cells-float", "n-cells-text", "boundary-typo",
        "bump-width-zero", "doping-width-negative", "unknown-key"])
def test_bad_override_names_its_key(key, value):
    with pytest.raises(ConfigurationError, match=key):
        make_setup("gaussian-bump", {key: value})


def test_doping_table_feeds_the_damping_ramp(tmp_path):
    # a `b` table replaces the doping formula and the damping ramp
    # integrates the doping in use: a zero table leaves a at `damping`, a
    # ramp table gives damping - slope * its running integral; an `a` table
    # replaces the ramp
    zero, ramp, flat = (tmp_path / f"{n}.dat" for n in ("zero", "ramp", "a"))
    zero.write_text("-5.0 0.0\n5.0 0.0\n")
    ramp.write_text("-5.0 0.0\n5.0 0.1\n")
    flat.write_text("-5.0 1.5\n5.0 1.5\n")
    setup = make_setup("doping-ramp", {"b_table": str(zero)})
    assert np.all(setup.profile.b_vals == 0.0)
    assert np.all(setup.profile.a_vals == setup.params["damping"])
    setup = make_setup("doping-ramp", {"b_table": str(ramp)})
    grid, b = setup.grid, setup.profile.b_vals
    np.testing.assert_allclose(b, 0.01 * (grid.centers + 5.0), rtol=1e-14)
    np.testing.assert_array_equal(setup.profile.a_vals,
                                  1.0 - cumulative_integral(b, grid.dx))
    setup = make_setup("doping-ramp", {"a_table": str(flat),
                                       "b_table": str(ramp)})
    assert np.all(setup.profile.a_vals == 1.5)


def grid_and_model(n_cells=64, boundary=Boundary.PERIODIC):
    return (Grid1D(-5.0, 5.0, n_cells, boundary=boundary),
            GasModel(gamma=1.4, delta=0.05))


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


class TestPrepareInitial:
    def test_zero_data_gives_exact_floor(self):
        grid, model = grid_and_model()
        z = np.zeros(grid.n_cells)
        state = prepare_initial(z, z, model, grid, 0.2)
        assert np.all(state.rho == model.rho_floor)
        assert np.all(state.mom == 0.0)

    def test_mollifier_preserves_excess_mass(self):
        grid, model = grid_and_model(n_cells=400)
        x = grid.centers
        raw = 0.9 * np.exp(-(x / 0.4) ** 2)
        state = prepare_initial(raw, np.zeros_like(raw), model, grid, 0.15)
        assert (total_integral(state.rho - model.rho_floor, grid.dx)
                == pytest.approx(total_integral(raw, grid.dx), rel=1e-8))

    def test_mollifier_flattens_peak(self):
        grid, model = grid_and_model(n_cells=400)
        x = grid.centers
        raw = np.exp(-(x / 0.2) ** 2)
        state = prepare_initial(raw, np.zeros_like(raw), model, grid, 0.3)
        assert np.max(state.rho - model.rho_floor) < np.max(raw)

    def test_zero_width_is_identity(self):
        grid, model = grid_and_model()
        x = grid.centers
        raw = np.exp(-x ** 2)
        state = prepare_initial(raw, np.zeros_like(raw), model, grid, 0.0)
        assert np.array_equal(state.rho, raw + model.rho_floor)

    def test_fitting_kernel_keeps_same_mode_bits(self):
        # the centred window of the full convolution is np.convolve's
        # 'same' mode wherever the kernel is no longer than the grid
        grid, model = grid_and_model(n_cells=500)
        x = grid.centers
        raw, u = 0.8 * np.exp(-(x / 0.5) ** 2), 0.3 * np.sin(x)
        state = prepare_initial(raw, u, model, grid, 0.1)
        k = gaussian_kernel(0.1, grid.dx)
        assert len(k) < grid.n_cells
        rho = conv_same(raw, k) + model.rho_floor
        assert np.array_equal(state.rho, rho)
        assert np.array_equal(state.mom, rho * conv_same(u, k))

    def test_kernel_wider_than_grid(self):
        # 20 cells of width 0.5 against a 49-point kernel: one smoothed
        # value per cell, and the state marches
        grid, model = grid_and_model(n_cells=20, boundary=Boundary.OUTFLOW)
        raw = 0.8 * np.exp(-(grid.centers / 0.5) ** 2)
        k = gaussian_kernel(3.0, grid.dx)
        assert len(k) == 49
        state = prepare_initial(raw, np.zeros_like(raw), model, grid, 3.0)
        assert state.rho.shape == state.mom.shape == (grid.n_cells,)
        h = (len(k) - 1) // 2
        assert np.array_equal(
            state.rho,
            np.convolve(raw, k, mode="full")[h:h + 20] + model.rho_floor)
        traj = run(state, uniform_profile(grid), model,
                   SolverConfig(t_end=0.1), grid)
        assert traj.completed

    def test_negative_excess_rejected(self):
        grid, model = grid_and_model()
        bad = np.full(grid.n_cells, -1e-3)
        with pytest.raises(ValueError):
            prepare_initial(bad, np.zeros(grid.n_cells), model, grid, 0.0)

    def test_shape_mismatch_rejected(self):
        grid, model = grid_and_model()
        with pytest.raises(ConfigurationError):
            prepare_initial(np.zeros(grid.n_cells + 1),
                            np.zeros(grid.n_cells + 1), model, grid, 0.0)

    @pytest.mark.parametrize("width", [-0.1, math.nan])
    def test_width_that_is_not_non_negative_rejected(self, width):
        # the width's rule sits beside its one reader, the mollifier
        grid, model = grid_and_model()
        z = np.zeros(grid.n_cells)
        with pytest.raises(ConfigurationError,
                           match="^smoothing_width must be non-negative$"):
            prepare_initial(z, z, model, grid, width)
