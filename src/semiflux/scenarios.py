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

`_COMMON` is the one table of scenario keys: each default carries its key's
type (the enums for boundary, pressure_convention and source_variant), and
the config schema is derived from it.  `make_setup` builds the device for
every command, the tau-ladder included.
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
    params: dict


@dataclass
class RunSetup:
    scenario: Scenario
    model: GasModel
    grid: Grid1D
    profile: DeviceProfile
    cfg: SolverConfig
    initial: object  # HydroState


_COMMON = {
    "x_min": -5.0, "x_max": 5.0, "n_cells": 500,
    "boundary": Boundary.OUTFLOW, "gamma": 2.0, "delta": 0.05,
    "pressure_convention": PressureConvention.ONE_OVER_GAMMA,
    "epsilon": 1e-3, "tau": 1.0, "cfl": 0.45, "t_end": 5.0,
    "smoothing_width": 0.1, "source_variant": SourceVariant.FULL_DENSITY,
    "bump_amplitude": 0.8, "bump_center": 0.0, "bump_width": 0.5,
    "bump_speed": 0.0,
    "doping_mass": 0.5, "doping_center": 0.0, "doping_width": 0.8,
    "e_minus": 0.0, "damping": 1.0, "damping_slope_coeff": 1.0,
    "neutral_level": 0.5,
}


def _scenario(name, tag, ok, **extra) -> Scenario:
    return Scenario(name=name, hypothesis_tag=tag, expect_profile_ok=ok,
                    params={**_COMMON, **extra})


SCENARIOS = {
    "vacuum-rest": _scenario(
        "vacuum-rest", "global-existence", True,
        bump_amplitude=0.0, smoothing_width=0.0),
    "gaussian-bump": _scenario(
        "gaussian-bump", "global-existence", True),
    "doping-ramp": _scenario(
        "doping-ramp", "time-uniform", True,
        pressure_convention=PressureConvention.PLAIN,
        e_minus=1.0, bump_amplitude=0.5, bump_center=-1.0),
    "isothermal-bump": _scenario(
        "isothermal-bump", "global-existence", True, gamma=1.0),
    "charge-neutral-rest": _scenario(
        "charge-neutral-rest", "relaxation", False, smoothing_width=0.0),
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
    """Merge overrides into the scenario defaults, each cast to its
    default's type."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]
    p = dict(scenario.params)
    for key, val in (overrides or {}).items():
        if key not in p:
            raise ConfigurationError(f"unknown scenario parameter {key!r}")
        p[key] = type(p[key])(val)
    return replace(scenario, params=p)


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


def make_setup(name: str, overrides: dict | None = None,
               profile_tables: dict | None = None) -> RunSetup:
    """Full solver setup.  profile_tables may map "a" and/or "b" to a
    two-column (x, value) table file, interpolated onto the grid; a profile
    built from tables skips the declared-outcome check."""
    scenario = resolve_params(name, overrides)
    p = scenario.params
    grid = Grid1D(x_min=p["x_min"], x_max=p["x_max"], n_cells=p["n_cells"],
                  boundary=p["boundary"])
    raw_rho, raw_u = build_raw(scenario, grid, p)
    a_vals, b_vals, e_minus = build_profile_arrays(scenario, grid, p)
    custom = bool(profile_tables)
    if custom:
        if "a" in profile_tables:
            a_vals = interp_profile(profile_tables["a"], grid.centers)
        if "b" in profile_tables:
            b_vals = interp_profile(profile_tables["b"], grid.centers)
    model = GasModel(gamma=p["gamma"], delta=p["delta"],
                     convention=p["pressure_convention"])
    cfg = SolverConfig(epsilon=p["epsilon"], tau=p["tau"], cfl=p["cfl"],
                       t_end=p["t_end"], source_variant=p["source_variant"],
                       smoothing_width=p["smoothing_width"])
    profile = DeviceProfile.build(grid, a_vals, b_vals, e_minus)
    if not custom and profile.check.ok != scenario.expect_profile_ok:
        raise ConfigurationError(
            f"scenario {name!r} expected uniform_ok={scenario.expect_profile_ok} "
            f"but the profile check returned {profile.check.ok} "
            f"({profile.check.first_failure})")
    initial = prepare_initial(raw_rho, raw_u, model, cfg, grid)
    return RunSetup(scenario=scenario, model=model, grid=grid, profile=profile,
                    cfg=cfg, initial=initial)
