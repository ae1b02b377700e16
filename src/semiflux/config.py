"""Plain key = value run configuration files.

One assignment per line, '#' starts a comment, keys mirror the solver and
scenario fields.  Unknown keys are rejected so typos fail loudly instead of
silently running defaults, and a value its key's type (float, int, or one of
the boundary, pressure-convention and source-variant enums) cannot read is
rejected the same way.
"""

from __future__ import annotations

from pathlib import Path

from .model import ConfigurationError
from .scenarios import _COMMON

# one entry per scenario key, typed by the scenario table's defaults
SCENARIO_KEYS = {key: type(val) for key, val in _COMMON.items()}

# scenario parameters shared by the picard and relax commands
_SHARED = ("x_min", "x_max", "n_cells", "boundary", "gamma",
           "pressure_convention", "smoothing_width", "bump_amplitude",
           "bump_center", "bump_width", "bump_speed", "e_minus", "damping")

_COMMAND_KEYS = {"scenario": str, "out_dir": str}

# keys accepted by `solve` beyond the scenario parameter set
SOLVE_KEYS = {
    **_COMMAND_KEYS,
    "seed": int, "monitors": str, "cadence": int,
    "a_table": str, "b_table": str,
}

RELAX_KEYS = {
    **_COMMAND_KEYS,
    **{k: SCENARIO_KEYS[k] for k in (*_SHARED, "cfl", "neutral_level")},
    "tau_list": str, "eps_coeff": float, "eps_power": float,
    "eps_fixed": float, "delta_coeff": float,
    "horizon": float, "window_lo": float, "window_hi": float,
    "s0_frac": float, "n_s_records": int,
}

PICARD_KEYS = {
    **_COMMAND_KEYS,
    **{k: SCENARIO_KEYS[k] for k in (*_SHARED, "delta", "epsilon", "tau")},
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
        except (TypeError, ValueError) as err:
            raise ConfigurationError(
                f"bad value for {key!r}: {val!r} ({err})") from None
    return out
