"""Plain key = value run configuration files, and the scenario key table.

One assignment per line, '#' starts a comment, keys mirror the solver and
scenario fields.  Unknown keys are rejected so typos fail loudly instead of
silently running defaults, and a value its key's type (float, int, or one of
the boundary, pressure-convention and source-variant enums) cannot read is
rejected the same way, as are a non-finite float and a key of `REPLACES`
given beside a key it replaces.  `coerce` is the one cast, for a file's
strings and `scenarios.make_setup`'s overrides alike.  Each scenario is a
row of `SCENARIO_DEFAULTS`, whose defaults type the keys.  A run's grid,
gas law and SolverConfig are built from their keys by `build_parts` and
echoed by `config_echo`, both through `_ECHO`: each key is the name of a
field of `Grid1D`, `GasModel` or `SolverConfig`, and each field a key.
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .model import (Boundary, ConfigurationError, GasModel, Grid1D,
                    PressureConvention)
from .solver import SolverConfig, SourceVariant

SCENARIO_DEFAULTS = {
    "x_min": -5.0, "x_max": 5.0, "n_cells": 500,
    "boundary": Boundary.OUTFLOW, "gamma": 2.0, "delta": 0.05,
    "pressure_convention": PressureConvention.ONE_OVER_GAMMA,
    "epsilon": 1e-3, "tau": 1.0, "cfl": 0.45, "t_end": 5.0,
    "smoothing_width": 0.1, "source_variant": SourceVariant.FULL_DENSITY,
    "bump_amplitude": 0.8, "bump_center": 0.0, "bump_width": 0.5,
    "bump_speed": 0.0, "neutral_level": 0.0,
    "doping_mass": 0.0, "doping_center": 0.0, "doping_width": 0.8,
    "e_minus": 0.0, "damping": 1.0, "damping_slope_coeff": 0.0,
}
SCENARIO_KEYS = {key: type(val) for key, val in SCENARIO_DEFAULTS.items()}

# a run's grid, gas-law and solver keys: the fields of each Trajectory
# part's class, each key the name of its field
_ECHO = {"grid": Grid1D, "model": GasModel, "cfg": SolverConfig}
ECHO_KEYS = tuple(f.name for cls in _ECHO.values() for f in fields(cls))

# scenario parameters shared by the picard and relax commands
_SHARED = ("x_min", "x_max", "n_cells", "boundary", "gamma",
           "pressure_convention", "smoothing_width", "bump_amplitude",
           "bump_center", "bump_width", "bump_speed", "e_minus", "damping")

# a profile table file per key, an override of `scenarios.make_setup`
TABLE_KEYS = {"a_table": str, "b_table": str}

# keys accepted by `solve` beyond the scenario parameter set
SOLVE_KEYS = {"scenario": str, "seed": int, "monitors": str, "cadence": int,
              **TABLE_KEYS}

# a key and the keys it replaces, each of which would change nothing beside it
REPLACES = {"eps_fixed": ("eps_coeff", "eps_power"),
            "a_table": ("damping", "damping_slope_coeff"),
            "b_table": ("doping_mass", "doping_center", "doping_width")}

RELAX_KEYS = {
    "scenario": str,
    **{k: SCENARIO_KEYS[k] for k in (*_SHARED, "cfl", "neutral_level")},
    "tau_list": str, "eps_coeff": float, "eps_power": float,
    "eps_fixed": float, "delta_coeff": float,
    "horizon": float, "window_lo": float, "window_hi": float,
    "s0_frac": float, "n_s_records": int,
}

PICARD_KEYS = {
    "scenario": str,
    **{k: SCENARIO_KEYS[k] for k in (*_SHARED, "delta", "epsilon", "tau")},
    "t1": float, "n_intervals": int, "tol": float, "max_iters": int,
    "refine": int,
}


def parse_key_value(path) -> dict:
    """Read a key = value file into a flat string dict."""
    out: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigurationError(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def read_numbers(lines: list, name: str) -> np.ndarray:
    """A numeric text table's body `lines` as a 2-d float array; no rows, a
    cell that is not a number or a ragged row is refused, naming `name`."""
    # numpy warns before it refuses a body with no rows
    if not any(ln.split("#", 1)[0].strip() for ln in lines):
        raise ConfigurationError(f"{name} holds no rows")
    try:
        return np.loadtxt(lines, ndmin=2)
    except ValueError as err:
        raise ConfigurationError(f"{name} is unreadable ({err})") from None


def coerce(raw: dict, schema: dict) -> dict:
    out = {}
    for key, val in raw.items():
        if key not in schema:
            raise ConfigurationError(f"unknown configuration key {key!r}")
        kind = schema[key]
        if kind is str and not isinstance(val, str):
            raise ConfigurationError(
                f"bad value for {key!r}: {val!r} (not a string)")
        # a JSON float or boolean would be truncated by int(): 3.9 -> 3
        if kind is int and isinstance(val, (bool, float)):
            raise ConfigurationError(
                f"bad value for {key!r}: {val!r} (not an integer)")
        try:
            out[key] = kind(val)
        except (TypeError, ValueError) as err:
            raise ConfigurationError(
                f"bad value for {key!r}: {val!r} ({err})") from None
        if kind is float and not math.isfinite(out[key]):
            raise ConfigurationError(
                f"{key}: need a finite number, got {val!r}")
    for key, replaced in REPLACES.items():
        given = [k for k in replaced if k in out]
        if key in out and given:
            raise ConfigurationError(
                f"{key} replaces {' and '.join(given)}; set one or the other")
    return out


def build_parts(values: dict) -> tuple:
    """(grid, model, cfg) built from the `ECHO_KEYS` of `values`, a dict of
    cast values."""
    return tuple(cls(**{f.name: values[f.name] for f in fields(cls)})
                 for cls in _ECHO.values())


def config_echo(traj) -> dict:
    """The `ECHO_KEYS`, each with its value in the grid, model and cfg of
    the Trajectory `traj`."""
    return {f.name: getattr(getattr(traj, part), f.name)
            for part, cls in _ECHO.items() for f in fields(cls)}
