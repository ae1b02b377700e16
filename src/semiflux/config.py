"""Plain key = value run configuration files.

One assignment per line, '#' starts a comment, keys mirror the solver and
scenario fields.  Unknown keys are rejected so typos fail loudly instead of
silently running defaults.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .model import ConfigurationError

# keys accepted by `solve` beyond the scenario parameter set
SOLVE_KEYS = {
    "scenario": str,
    "out_dir": str,
    "seed": int,
    "monitors": str,
    "cadence": int,
    "a_table": str,
    "b_table": str,
}

SCENARIO_KEYS = {
    "x_min": float, "x_max": float, "n_cells": int, "boundary": str,
    "gamma": float, "delta": float, "pressure_convention": str,
    "epsilon": float, "tau": float, "cfl": float, "t_end": float,
    "source_variant": str, "smoothing_width": float,
    "bump_amplitude": float, "bump_center": float, "bump_width": float,
    "bump_speed": float, "doping_mass": float, "doping_center": float,
    "doping_width": float, "e_minus": float, "damping": float,
    "damping_slope_coeff": float, "neutral_level": float,
}

RELAX_KEYS = {
    "scenario": str, "out_dir": str, "seed": int,
    "x_min": float, "x_max": float, "n_cells": int, "boundary": str,
    "gamma": float, "pressure_convention": str, "cfl": float,
    "smoothing_width": float,
    "bump_amplitude": float, "bump_center": float, "bump_width": float,
    "bump_speed": float, "neutral_level": float, "damping": float,
    "e_minus": float,
    "tau_list": str, "eps_coeff": float, "eps_power": float,
    "eps_fixed": float, "delta_coeff": float,
    "horizon": float, "window_lo": float, "window_hi": float,
    "s0_frac": float, "n_s_records": int,
}

PICARD_KEYS = {
    "scenario": str, "out_dir": str, "seed": int,
    "x_min": float, "x_max": float, "n_cells": int, "boundary": str,
    "gamma": float, "delta": float, "pressure_convention": str,
    "epsilon": float, "tau": float, "smoothing_width": float,
    "bump_amplitude": float, "bump_center": float, "bump_width": float,
    "bump_speed": float, "e_minus": float, "damping": float,
    "t1": float, "n_intervals": int, "tol": float, "max_iters": int,
    "refine": int, "cross_tol_factor": float,
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


def coerce(raw: dict, schema: dict) -> dict:
    out = {}
    for key, val in raw.items():
        if key not in schema:
            raise ConfigurationError(f"unknown configuration key {key!r}")
        kind = schema[key]
        try:
            out[key] = kind(val)
        except ValueError as err:
            raise ConfigurationError(
                f"bad value for {key!r}: {val!r} ({err})") from None
    return out


def load_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column (x, value) text table."""
    data = np.loadtxt(path, dtype=float)
    data = np.atleast_2d(data)
    if data.shape[1] != 2:
        raise ConfigurationError(
            f"profile table {path} must have exactly two columns")
    x, v = data[:, 0], data[:, 1]
    if np.any(np.diff(x) <= 0.0):
        raise ConfigurationError(f"profile table {path} must have increasing x")
    return x, v


def interp_profile(path, centers: np.ndarray) -> np.ndarray:
    """Linear interpolation of a table onto cell centers (edge values held
    constant beyond the table range)."""
    x, v = load_table(path)
    return np.interp(centers, x, v)
