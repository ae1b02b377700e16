"""Canonical device setups used by the CLI and the acceptance suite.

A device is one formula over the scenario keys (`device_arrays`): on the
cell centres x, with gaussian bumps g_bump and g_doping,

  raw excess density  neutral_level + bump_amplitude * g_bump
  velocity            bump_speed * g_bump
  doping b            neutral_level + doping_mass / (doping_width sqrt(pi))
                      * g_doping
  damping a           damping - damping_slope_coeff * int_left^x b

with the far-field datum e_minus.  A scenario is a name and its row of
`config.SCENARIO_DEFAULTS`, the values it overrides; the audit alone
judges its device against the uniform bound's hypotheses.

  vacuum-rest        no bump: constant offset state, exact fixed point of
                     the scheme
  gaussian-bump      excess-density bump at rest, gamma = 2
  doping-ramp        non-negative doping with matched decreasing damping, the
                     time-uniform-bounds setup (plain pressure normalization)
  isothermal-bump    gamma = 1 variant of the bump
  charge-neutral-rest  no bump, a constant doping exactly balanced by the
                     density: the stationary relaxation fixture (outside
                     the uniform-bound hypotheses: int b > e_minus)

Overrides, a profile table's `a_table` or `b_table` among them, pass
through `config.coerce`, the cast every config file takes.  `make_setup`
builds the device for every command, reading no scenario name, into a
`RunSetup`, the name and its resolved row beside the parts of a run, its
initial data mollified and lifted to 2 delta here (`prepare_initial`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (SCENARIO_DEFAULTS, SCENARIO_KEYS, TABLE_KEYS,
                     build_parts, coerce, read_numbers)
from .model import (Boundary, ConfigurationError, DeviceProfile, GasModel,
                    Grid1D, HydroState, PressureConvention,
                    cumulative_integral, total_integral)
from .solver import SolverConfig


def gaussian(x, center: float, width: float):
    return np.exp(-(((np.asarray(x, dtype=float)) - center) / width) ** 2)


def gaussian_kernel(width: float, dx: float) -> np.ndarray:
    """Discrete Gaussian of standard deviation `width`, normalized to sum 1."""
    half = max(int(math.ceil(4.0 * width / dx)), 1)
    xs = np.arange(-half, half + 1) * dx
    k = np.exp(-0.5 * (xs / width) ** 2)
    return k / k.sum()


def prepare_initial(raw_rho, raw_u, model: GasModel, grid: Grid1D,
                    width: float) -> HydroState:
    """Offset and mollify raw initial data.

    The raw density is the excess over vacuum (must be >= 0 and decay before
    the domain edges); both it and the velocity are smoothed with a discrete
    Gaussian of standard deviation `width` >= 0 (smoothing_width), then
    the vacuum offset is added so the far field is exactly 2*delta.  Zero
    width skips the convolution.  The smoothed values are the centred
    window of the full convolution, so a kernel wider than the grid still
    gives one value per cell.
    """
    if not width >= 0.0:
        raise ConfigurationError("smoothing_width must be non-negative")
    n = grid.n_cells
    raw_rho, raw_u = (np.asarray(v, dtype=float) for v in (raw_rho, raw_u))
    if raw_rho.shape != (n,) or raw_u.shape != (n,):
        raise ConfigurationError("raw initial data must match the grid")
    if np.any(raw_rho < 0.0):
        raise ConfigurationError("raw excess density must be non-negative")
    if width > 0.0:
        k = gaussian_kernel(width, grid.dx)
        h = (len(k) - 1) // 2
        raw_rho, raw_u = (np.convolve(v, k, mode="full")[h:h + n]
                          for v in (raw_rho, raw_u))
    rho = raw_rho + model.rho_floor
    return HydroState(rho=rho, mom=rho * raw_u, time=0.0)


@dataclass
class RunSetup:
    name: str
    params: dict  # the scenario's row under the overrides
    model: GasModel
    grid: Grid1D
    profile: DeviceProfile
    cfg: SolverConfig
    initial: HydroState


SCENARIOS = {
    "vacuum-rest": dict(SCENARIO_DEFAULTS, bump_amplitude=0.0,
                        smoothing_width=0.0),
    "gaussian-bump": dict(SCENARIO_DEFAULTS),
    "doping-ramp": dict(SCENARIO_DEFAULTS,
                        pressure_convention=PressureConvention.PLAIN,
                        e_minus=1.0, bump_amplitude=0.5, bump_center=-1.0,
                        doping_mass=0.5, damping_slope_coeff=1.0),
    "isothermal-bump": dict(SCENARIO_DEFAULTS, gamma=1.0),
    "charge-neutral-rest": dict(SCENARIO_DEFAULTS, smoothing_width=0.0,
                                bump_amplitude=0.0, neutral_level=0.5)}


def device_arrays(grid: Grid1D, p: dict, b=None):
    """(raw excess density, velocity, a, b) on the cell centres from the
    scenario keys `p`; a matched ramp (damping = e_minus, slope 1) makes the
    derived C profile constant.  A doping `b` given on the cell centres (a
    `b` table) replaces the doping formula, and the ramp integrates it."""
    for key in ("bump_width", "doping_width"):
        if not p[key] > 0.0:
            raise ConfigurationError(f"{key}: need {key} > 0, got {p[key]!r}")
    x = grid.centers
    bump = gaussian(x, p["bump_center"], p["bump_width"])
    level = p["neutral_level"]
    if b is None:
        doping = gaussian(x, p["doping_center"], p["doping_width"])
        b = level + p["doping_mass"] \
            / (p["doping_width"] * math.sqrt(math.pi)) * doping
    a = p["damping"] - p["damping_slope_coeff"] * cumulative_integral(b, grid.dx)
    return level + p["bump_amplitude"] * bump, p["bump_speed"] * bump, a, b


def interp_profile(path, centers: np.ndarray) -> np.ndarray:
    """Linear interpolation of a two-column (x, value) text table onto cell
    centers (edge values held constant beyond the table range)."""
    data = read_numbers(Path(path).read_text().splitlines(),
                        f"profile table {path}")
    if data.shape[1] != 2:
        raise ConfigurationError(
            f"profile table {path} must have exactly two columns")
    x, v = data[:, 0], data[:, 1]
    if np.any(np.diff(x) <= 0.0):
        raise ConfigurationError(f"profile table {path} must have increasing x")
    return np.interp(centers, x, v)


def make_setup(name: str, overrides: dict | None = None) -> RunSetup:
    """Full solver setup of scenario `name` under `overrides`, scenario
    keys and `a_table`/`b_table`, each the path of a two-column (x, value)
    table interpolated onto the grid.  A `b` table replaces the doping
    formula and an `a` table the damping ramp, which otherwise integrates
    the doping in use, a `b` table's included; an override of a key a
    table replaces is refused (`config.REPLACES`).  Only a device that
    cannot be built is a ConfigurationError, such as a periodic one whose
    net charge int (rho0 - 2 delta - b) dx exceeds 1e-12 int (|rho0 -
    2 delta| + |b|) dx, its field jumping across the wrap."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    given = coerce(overrides or {}, {**SCENARIO_KEYS, **TABLE_KEYS})
    p = {**SCENARIOS[name],
         **{k: v for k, v in given.items() if k in SCENARIO_KEYS}}
    grid, model, cfg = build_parts(p)
    tables = {key: interp_profile(given[key], grid.centers)
              for key in TABLE_KEYS if key in given}
    raw_rho, raw_u, a_vals, b_vals = device_arrays(grid, p,
                                                   tables.get("b_table"))
    a_vals = tables.get("a_table", a_vals)
    profile = DeviceProfile.build(grid, a_vals, b_vals, p["e_minus"])
    initial = prepare_initial(raw_rho, raw_u, model, grid,
                              p["smoothing_width"])
    if grid.boundary is Boundary.PERIODIC:
        excess = initial.rho - model.rho_floor
        net = total_integral(excess - b_vals, grid.dx)
        scale = total_integral(np.abs(excess) + np.abs(b_vals), grid.dx)
        if abs(net) > 1e-12 * scale:
            raise ConfigurationError(
                "a periodic device needs zero net charge, int N0 dx - int b dx"
                f" = 0 with N0 = rho0 - 2 delta; got {net!r}")
    return RunSetup(name=name, params=p, model=model, grid=grid,
                    profile=profile, cfg=cfg, initial=initial)
