"""Electric field from the 1-D Poisson constraint E_x = (rho - 2*delta) - b.

On the truncated domain the field is anchored at the left edge with the
far-field datum e_minus and recovered by a running integral, so no linear
solve is involved.  The a-priori sup bound

    |E| <= |e_minus| + int (rho0 - 2*delta) dx + int |b| dx

is computed separately by `field_bound` (or `mass_field_bound`, from masses
already at hand), only where a monitor needs it.
"""

from __future__ import annotations

import numpy as np

from .model import (DeviceProfile, GasModel, Grid1D, HydroState,
                    cumulative_integral, total_integral)


def solve_field(excess, profile: DeviceProfile, grid: Grid1D) -> np.ndarray:
    """Integrate the charge imbalance excess - b left to right from the field
    datum.  `excess` is the density above the vacuum: rho - 2*delta for the
    hydro state, N itself for the drift-diffusion limit."""
    return profile.e_minus + cumulative_integral(
        np.asarray(excess, dtype=float) - profile.b_vals, grid.dx)


def doping_mass(profile: DeviceProfile, grid: Grid1D) -> float:
    """int |b| dx, the doping's share of the field bound."""
    return total_integral(np.abs(profile.b_vals), grid.dx)


def mass_field_bound(excess_mass: float, doping: float,
                     e_minus: float) -> float:
    """|e_minus| + int (rho - 2*delta) + int |b| from the two masses: the
    one formula of the bound, for an audit that has both masses at hand."""
    return abs(e_minus) + excess_mass + doping


def field_bound(state: HydroState, profile: DeviceProfile, model: GasModel,
                grid: Grid1D) -> float:
    """Sup-norm bound on E built from the state's excess mass and the doping."""
    return mass_field_bound(total_integral(state.excess(model), grid.dx),
                            doping_mass(profile, grid), profile.e_minus)
