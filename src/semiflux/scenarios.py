"""Canonical device setups used by the CLI and the acceptance suite.

Each scenario fixes the gas law, the raw initial data, and the device
profile, and declares which hypothesis set it targets:

  vacuum-rest        constant offset state, exact fixed point of the scheme
  gaussian-bump      excess-density bump at rest, gamma = 2
  doping-ramp        non-negative doping with matched decreasing damping, the
                     time-uniform-bounds setup (plain pressure normalization)
  isothermal-bump    gamma = 1 variant of the bump
  charge-neutral-rest  constant doping exactly balanced by the density, the
                     stationary relaxation fixture (fails the uniform-bound
                     profile check by design: unbounded total doping)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (Boundary, ConfigurationError, DeviceProfile, GasModel,
                    Grid1D, PressureConvention, cumulative_integral)
from .solver import SolverConfig, SourceVariant, prepare_initial


def gaussian(x, center: float, width: float):
    return np.exp(-(((np.asarray(x, dtype=float)) - center) / width) ** 2)


@dataclass(frozen=True)
class Scenario:
    name: str
    hypothesis_tag: str
    expect_profile_ok: bool
    gamma: float
    convention: PressureConvention
    params: dict


@dataclass
class RunSetup:
    scenario: Scenario
    model: GasModel
    grid: Grid1D
    profile: DeviceProfile
    cfg: SolverConfig
    raw_rho: np.ndarray
    raw_u: np.ndarray
    initial: object  # HydroState


_COMMON = {
    "x_min": -5.0, "x_max": 5.0, "n_cells": 500, "boundary": "outflow",
    "delta": 0.05, "epsilon": 1e-3, "tau": 1.0, "cfl": 0.45, "t_end": 5.0,
    "smoothing_width": 0.1, "source_variant": "full-density",
    "bump_amplitude": 0.8, "bump_center": 0.0, "bump_width": 0.5,
    "bump_speed": 0.0,
    "doping_mass": 0.5, "doping_center": 0.0, "doping_width": 0.8,
    "e_minus": 0.0, "damping": 1.0, "damping_slope_coeff": 1.0,
    "neutral_level": 0.5,
}


def _scenario(name, tag, ok, gamma, convention, **extra) -> Scenario:
    params = dict(_COMMON)
    params.update(extra)
    return Scenario(name=name, hypothesis_tag=tag, expect_profile_ok=ok,
                    gamma=gamma, convention=convention, params=params)


SCENARIOS = {
    "vacuum-rest": _scenario(
        "vacuum-rest", "global-existence", True, 2.0,
        PressureConvention.ONE_OVER_GAMMA,
        bump_amplitude=0.0, smoothing_width=0.0),
    "gaussian-bump": _scenario(
        "gaussian-bump", "global-existence", True, 2.0,
        PressureConvention.ONE_OVER_GAMMA),
    "doping-ramp": _scenario(
        "doping-ramp", "time-uniform", True, 2.0,
        PressureConvention.PLAIN,
        e_minus=1.0, bump_amplitude=0.5, bump_center=-1.0),
    "isothermal-bump": _scenario(
        "isothermal-bump", "global-existence", True, 1.0,
        PressureConvention.ONE_OVER_GAMMA),
    "charge-neutral-rest": _scenario(
        "charge-neutral-rest", "relaxation", False, 2.0,
        PressureConvention.ONE_OVER_GAMMA, smoothing_width=0.0),
}


def build_raw(scenario: Scenario, grid: Grid1D, p: dict):
    x = grid.centers
    name = scenario.name
    if name == "vacuum-rest":
        return np.zeros(grid.n_cells), np.zeros(grid.n_cells)
    if name == "charge-neutral-rest":
        return np.full(grid.n_cells, p["neutral_level"]), np.zeros(grid.n_cells)
    raw = p["bump_amplitude"] * gaussian(x, p["bump_center"], p["bump_width"])
    u = p["bump_speed"] * gaussian(x, p["bump_center"], p["bump_width"])
    return raw, u


def build_profile_arrays(scenario: Scenario, grid: Grid1D, p: dict):
    x = grid.centers
    n = grid.n_cells
    name = scenario.name
    if name == "charge-neutral-rest":
        b = np.full(n, p["neutral_level"])
        a = np.full(n, p["damping"])
        return a, b, p["e_minus"]
    if name == "doping-ramp":
        # doping bump normalized to the requested total charge; damping is the
        # matched ramp e_minus - coeff * cumulative doping, which keeps the
        # derived C profile monotone
        shape = gaussian(x, p["doping_center"], p["doping_width"])
        b = p["doping_mass"] / (p["doping_width"] * math.sqrt(math.pi)) * shape
        a = p["e_minus"] - p["damping_slope_coeff"] * cumulative_integral(b, grid.dx)
        return a, b, p["e_minus"]
    a = np.full(n, p["damping"])
    b = np.zeros(n)
    return a, b, p["e_minus"]


def resolve_params(name: str, overrides: dict | None = None):
    """Merge overrides into the scenario defaults."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]
    p = dict(scenario.params)
    gamma = scenario.gamma
    convention = scenario.convention
    for key, val in (overrides or {}).items():
        if key == "gamma":
            gamma = float(val)
        elif key == "pressure_convention":
            convention = PressureConvention(val)
        elif key in p:
            p[key] = val if isinstance(p[key], str) else type(p[key])(val)
        else:
            raise ConfigurationError(f"unknown scenario parameter {key!r}")
    scenario = replace(scenario, gamma=gamma, convention=convention, params=p)
    return scenario, p


def make_arrays(name: str, overrides: dict | None = None):
    """Scenario, grid, raw initial data, and profile arrays (no solver yet)."""
    scenario, p = resolve_params(name, overrides)
    grid = Grid1D(x_min=float(p["x_min"]), x_max=float(p["x_max"]),
                  n_cells=int(p["n_cells"]),
                  boundary=Boundary(p["boundary"]))
    raw_rho, raw_u = build_raw(scenario, grid, p)
    a_vals, b_vals, e_minus = build_profile_arrays(scenario, grid, p)
    return scenario, grid, raw_rho, raw_u, a_vals, b_vals, float(e_minus)


def make_setup(name: str, overrides: dict | None = None,
               profile_tables: dict | None = None) -> RunSetup:
    """Full solver setup.  profile_tables may carry precomputed a/b arrays
    (interpolated from user tables); those skip the declared-outcome check."""
    scenario, grid, raw_rho, raw_u, a_vals, b_vals, e_minus = \
        make_arrays(name, overrides)
    p = scenario.params
    model = GasModel(gamma=scenario.gamma, delta=float(p["delta"]),
                     convention=scenario.convention)
    cfg = SolverConfig(epsilon=float(p["epsilon"]), tau=float(p["tau"]),
                       cfl=float(p["cfl"]), t_end=float(p["t_end"]),
                       source_variant=SourceVariant(p["source_variant"]),
                       smoothing_width=float(p["smoothing_width"]))
    custom = bool(profile_tables)
    if custom:
        a_vals = profile_tables.get("a", a_vals)
        b_vals = profile_tables.get("b", b_vals)
    profile = DeviceProfile.build(grid, a_vals, b_vals, e_minus)
    if not custom and profile.uniform_ok != scenario.expect_profile_ok:
        raise ConfigurationError(
            f"scenario {name!r} expected uniform_ok={scenario.expect_profile_ok} "
            f"but the profile check returned {profile.uniform_ok} "
            f"({profile.check.first_failure})")
    initial = prepare_initial(raw_rho, raw_u, model, cfg, grid)
    return RunSetup(scenario=scenario, model=model, grid=grid, profile=profile,
                    cfg=cfg, raw_rho=raw_rho, raw_u=raw_u, initial=initial)
