"""Electric field from the 1-D Poisson constraint E_x = (rho - 2*delta) - b.

On the truncated domain the field is anchored at the left edge with the
far-field datum e_minus and recovered by a running integral, so no linear
solve is involved.  A periodic grid takes the same left-anchored integral,
periodic only at zero net charge (which `scenarios.make_setup` demands) and
with a mean that need not vanish.  The a-priori sup bound

    |E| <= |e_minus| + int (rho0 - 2*delta) dx + int |b| dx

is computed separately, by `mass_field_bound` from the excess mass and the
doping mass `doping_mass`, only where a monitor needs it.
"""

from __future__ import annotations

import numpy as np

from .model import DeviceProfile, Grid1D, cumulative_integral, total_integral


def solve_field(excess, profile: DeviceProfile, grid: Grid1D, out=None,
                tmp=None) -> np.ndarray:
    """Integrate the charge imbalance excess - b left to right from the field
    datum.  `excess` is the density above the vacuum: rho - 2*delta for the
    hydro state, N itself for the drift-diffusion limit; a row, or a stack
    of rows.  `out` takes the field and `tmp` the charge imbalance (arrays
    of excess's shape); left out, both are allocated.  dx and e_minus enter
    as the 0-d arrays the grid and the profile keep."""
    charge = np.subtract(excess, profile.b_vals, out=tmp, dtype=float)
    field = cumulative_integral(charge, grid._dx, out=out, tmp=charge)
    field += profile._e_minus
    return field


def doping_mass(profile: DeviceProfile, grid: Grid1D) -> float:
    """int |b| dx, the doping's share of the field bound."""
    return total_integral(np.abs(profile.b_vals), grid.dx)


def mass_field_bound(excess_mass: float, doping: float,
                     e_minus: float) -> float:
    """|e_minus| + int (rho - 2*delta) + int |b| from the two masses: the
    one formula of the bound."""
    return abs(e_minus) + excess_mass + doping
