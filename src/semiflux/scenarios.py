"""Canonical device setups used by the CLI and the acceptance suite.

A device is one formula over the scenario keys (`device_arrays`): on the
cell centres x, with gaussian bumps g_bump and g_doping,

  raw excess density  neutral_level + bump_amplitude * g_bump
  velocity            bump_speed * g_bump
  doping b            neutral_level + doping_mass / (doping_width sqrt(pi))
                      * g_doping
  damping a           damping - damping_slope_coeff * int_left^x b

with the far-field datum e_minus.  A scenario is a row of
`config.SCENARIO_DEFAULTS`: the values it overrides, the hypothesis set it
targets, and the outcome its profile check must give.

  vacuum-rest        no bump: constant offset state, exact fixed point of
                     the scheme
  gaussian-bump      excess-density bump at rest, gamma = 2
  doping-ramp        non-negative doping with matched decreasing damping, the
                     time-uniform-bounds setup (plain pressure normalization)
  isothermal-bump    gamma = 1 variant of the bump
  charge-neutral-rest  no bump, a constant doping exactly balanced by the
                     density: the stationary relaxation fixture (fails the
                     uniform-bound profile check by design: unbounded total
                     doping)

Overrides pass through `config.coerce`, the cast every config file takes;
a profile table is an override like any other, `a_table` or `b_table`
naming its file.
`make_setup` builds the device for every command, the tau-ladder included;
no step of it reads the scenario's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (SCENARIO_DEFAULTS, SCENARIO_KEYS, TABLE_KEYS,
                     build_parts, coerce)
from .model import (Boundary, ConfigurationError, DeviceProfile, GasModel,
                    Grid1D, PressureConvention, cumulative_integral,
                    total_integral)
from .solver import SolverConfig, prepare_initial


def gaussian(x, center: float, width: float):
    return np.exp(-(((np.asarray(x, dtype=float)) - center) / width) ** 2)


@dataclass(frozen=True)
class Scenario:
    name: str
    hypothesis_tag: str
    expect_profile_ok: bool
    params: dict


@dataclass
class RunSetup:
    scenario: Scenario
    model: GasModel
    grid: Grid1D
    profile: DeviceProfile
    cfg: SolverConfig
    initial: object  # HydroState


def _scenario(name, tag, ok, **row) -> Scenario:
    return Scenario(name=name, hypothesis_tag=tag, expect_profile_ok=ok,
                    params={**SCENARIO_DEFAULTS, **row})


SCENARIOS = {
    "vacuum-rest": _scenario(
        "vacuum-rest", "global-existence", True,
        bump_amplitude=0.0, smoothing_width=0.0),
    "gaussian-bump": _scenario(
        "gaussian-bump", "global-existence", True),
    "doping-ramp": _scenario(
        "doping-ramp", "time-uniform", True,
        pressure_convention=PressureConvention.PLAIN,
        e_minus=1.0, bump_amplitude=0.5, bump_center=-1.0,
        doping_mass=0.5, damping_slope_coeff=1.0),
    "isothermal-bump": _scenario(
        "isothermal-bump", "global-existence", True, gamma=1.0),
    "charge-neutral-rest": _scenario(
        "charge-neutral-rest", "relaxation", False,
        smoothing_width=0.0, bump_amplitude=0.0, neutral_level=0.5),
}


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
    data = np.atleast_2d(np.loadtxt(path, dtype=float))
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
    table interpolated onto the grid; a profile built from tables skips
    the declared-outcome check.  A `b` table replaces the doping formula
    and an `a` table the damping ramp, which otherwise integrates the
    doping in use, a `b` table's included; an override of a key a table
    replaces is refused (`config.REPLACES`).  A periodic device whose net
    charge int (rho0 - 2 delta - b) dx exceeds 1e-12 int (|rho0 - 2 delta|
    + |b|) dx, its field jumping across the wrap, is a ConfigurationError."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    given = coerce(overrides or {}, {**SCENARIO_KEYS, **TABLE_KEYS})
    scenario = replace(SCENARIOS[name], params={**SCENARIOS[name].params, **{
        k: v for k, v in given.items() if k in SCENARIO_KEYS}})
    p = scenario.params
    grid, model, cfg = build_parts(p)
    tables = {key: interp_profile(given[key], grid.centers)
              for key in TABLE_KEYS if key in given}
    raw_rho, raw_u, a_vals, b_vals = device_arrays(grid, p,
                                                   tables.get("b_table"))
    a_vals = tables.get("a_table", a_vals)
    profile = DeviceProfile.build(grid, a_vals, b_vals, p["e_minus"])
    if not tables and profile.check.ok != scenario.expect_profile_ok:
        raise ConfigurationError(
            f"scenario {name!r} expected uniform_ok={scenario.expect_profile_ok} "
            f"but the profile check returned {profile.check.ok} "
            f"({profile.check.first_failure})")
    initial = prepare_initial(raw_rho, raw_u, model, cfg, grid)
    if grid.boundary is Boundary.PERIODIC:
        excess = initial.rho - model.rho_floor
        net = total_integral(excess - b_vals, grid.dx)
        scale = total_integral(np.abs(excess) + np.abs(b_vals), grid.dx)
        if abs(net) > 1e-12 * scale:
            raise ConfigurationError(
                "a periodic device needs zero net charge, int N0 dx - int b dx"
                f" = 0 with N0 = rho0 - 2 delta; got {net!r}")
    return RunSetup(scenario=scenario, model=model, grid=grid, profile=profile,
                    cfg=cfg, initial=initial)
