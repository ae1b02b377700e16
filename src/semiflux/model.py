"""Gas law, grid, state, and device-profile primitives.

The gas is isentropic, P(rho) = rho**gamma / gamma (or the plain rho**gamma
normalization), and the vacuum is offset to rho = 2*delta: admissible states
keep rho >= 2*delta so the velocity u = m/rho never degenerates.  The offset
also perturbs the pressure,

    P1(rho, delta) = int_{2*delta}^{rho} ((t - 2*delta)/t) * P'(t) dt,

which is the momentum-flux potential actually advected by the regularized
system.  The Riemann invariants are z, w = int_1^rho sqrt(P'(s))/s ds -+ u
for every gamma >= 1.  Each gas-law quantity has one formula that is
continuous in gamma, with no gamma = 1 branch: the power integrals run
through expm1 (`_powm1_over`), which is exactly a logarithm at gamma = 1,
and P1's tail and the internal energy share `_tail`.  Everything here is
plain numpy on a uniform cell-centered grid.

A device profile is its data, a, b and e_minus, finite, a >= 0; its C
profile (`derived_c_profile`) is derived where it is read, and the audit
alone judges the time-uniform bounds' hypotheses on it.  The invariant
region's A = E/a is read off the E the audit solves (`monitors._blocks`).

The scalars the march hands to numpy each step (delta, 2*delta, gamma,
gamma - 1, the pressure prefactor, P1's rho-free terms, dx, e_minus and
0.5) are also kept as read-only 0-d float64 arrays, built once by the
object owning the value: numpy takes such an operand about 0.45 us faster
than a Python float, with the same bits.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

# Admissible states may undershoot the vacuum offset by this fraction of delta
# (floating-point slack, not physics).
RHO_FLOOR_SLACK = 1e-12


def _const(x) -> np.ndarray:
    """x as a read-only 0-d float64 array, an operand numpy takes faster
    than a Python float.  Under NEP 50 it is not a weak scalar: met with a
    float32 array it would promote, so it only meets float64 arrays."""
    a = np.array(x, dtype=np.float64)
    a.flags.writeable = False
    return a


_HALF = _const(0.5)


class ConfigurationError(ValueError):
    """Raised when model, grid, or solver settings are inconsistent."""


class PressureConvention(enum.Enum):
    ONE_OVER_GAMMA = "one-over-gamma"   # P(rho) = rho**gamma / gamma
    PLAIN = "plain"                     # P(rho) = rho**gamma


class Boundary(enum.Enum):
    OUTFLOW = "outflow"
    PERIODIC = "periodic"


def _powm1_over(x, e, out=None):
    """(x**e - 1) / e, stable as e -> 0 (limit log(x)); written into the
    array `out` when given."""
    v = np.log(x, out=out)
    if e:  # e != 0; a 0-d e tests faster by its truth value
        v *= e
        v = np.expm1(v, out=out)
        v /= e
    return v


@dataclass(frozen=True)
class GasModel:
    """Isentropic pressure law plus the vacuum offset delta."""

    gamma: float
    delta: float
    pressure_convention: PressureConvention = PressureConvention.ONE_OVER_GAMMA

    def __post_init__(self):
        if not self.gamma >= 1.0:
            raise ConfigurationError(f"gamma must be >= 1, got {self.gamma}")
        if not self.delta > 0.0:
            raise ConfigurationError(f"delta must be > 0, got {self.delta}")

    @property
    def rho_floor(self) -> float:
        return 2.0 * self.delta

    @functools.cached_property
    def admissible_floor(self) -> float:
        """Lowest density the pressure accepts: 2*delta less a round-off slack."""
        return self.rho_floor - RHO_FLOOR_SLACK * self.delta

    # the gas law's scalars as 0-d arrays (`_const`), for the pressure terms
    # below and the march: delta, 2*delta, gamma, gamma - 1 and the
    # multiplier turning rho**gamma into P(rho)

    @functools.cached_property
    def _d(self) -> np.ndarray:
        return _const(self.delta)

    @functools.cached_property
    def _d2(self) -> np.ndarray:
        return _const(self.rho_floor)

    @functools.cached_property
    def _g(self) -> np.ndarray:
        return _const(self.gamma)

    @functools.cached_property
    def _gm1(self) -> np.ndarray:
        return _const(self.gamma - 1.0)

    @functools.cached_property
    def _pref(self) -> np.ndarray:
        if self.pressure_convention is PressureConvention.ONE_OVER_GAMMA:
            return _const(1.0 / self.gamma)
        return _const(1.0)

    # The unchecked pressure terms below take `out`, an array to write the
    # result into, and those needing a second row `tmp`, a scratch array of
    # the same shape; left out, both are allocated.  Each in-place sequence
    # makes its formula's operations in the formula's order (+ and * commute
    # exactly), so both forms give the same bits.

    def _p(self, rho, out=None):
        v = np.power(rho, self._g, out=out)
        v *= self._pref
        return v

    def _dp(self, rho, out=None):
        # rho**0 is exactly 1 (NaN included) at gamma = 1
        v = np.power(rho, self._gm1, out=out)
        if self.pressure_convention is PressureConvention.PLAIN:
            v *= self._g
        return v

    def _spread(self, rho, excess, out=None, tmp=None):
        """(excess/rho) * sqrt(P'(rho)) with excess = rho - 2*delta: half the
        gap between the characteristic speeds; unchecked."""
        v = np.divide(excess, rho, out=out)
        v *= np.sqrt(self._dp(rho, out=tmp), out=tmp)
        return v

    @functools.cached_property
    def _tail_floor(self) -> np.ndarray:
        """((2d)**(gamma-1) - 1)/(gamma-1) as a 0-d array, log 2d at
        gamma = 1: the floor term of `_tail`."""
        return _const(_powm1_over(self.rho_floor, self.gamma - 1.0))

    def _tail(self, rho, out=None):
        """int_{2d}^{rho} s**(gamma-2) ds through expm1, continuous in gamma
        (log(rho) - log(2d) at gamma = 1); unchecked.  The internal energy
        and P1's tail both read it."""
        v = _powm1_over(rho, self._gm1, out=out)
        v -= self._tail_floor
        return v

    @functools.cached_property
    def _p1_floor(self) -> np.ndarray:
        """P(2d), P1's rho-free term besides `_tail`'s, as a 0-d array."""
        return _const(self.pressure(self.rho_floor))

    def _p1(self, rho, out=None, tmp=None):
        """P1(rho, delta) = (P(rho) - P(2d)) - 2d c `_tail`(rho), c = gamma
        under the plain convention, else 1: the antiderivative
        P(t) - 2*delta*int P'(t)/t dt, one closed form for every gamma >= 1
        (the tail is log(rho) - log(2d) at gamma = 1); unchecked."""
        tail = self._tail(rho, out=tmp)
        if self.pressure_convention is PressureConvention.PLAIN:
            tail *= self._g
        tail *= self._d2
        v = self._p(rho, out=out)
        v -= self._p1_floor
        return np.subtract(v, tail, out=out)

    def _checked(self, rho, floor: float = 0.0):
        """rho as a float array; ValueError if it dips below `floor`."""
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < floor):
            raise ValueError(
                f"density below {floor!r}: min rho = {np.min(rho)!r}")
        return rho

    def pressure(self, rho):
        return self._p(self._checked(rho))

    def dpressure(self, rho):
        """P'(rho); equals rho**(gamma-1) under the 1/gamma normalization."""
        return self._dp(self._checked(rho))

    def sound_integral(self, rho):
        """int_1^rho sqrt(P'(s))/s ds = c (rho**theta - 1)/theta with
        theta = (gamma - 1)/2 and c = sqrt(P'(1)), sqrt(gamma) under the
        plain convention, else 1: through expm1, continuous in gamma and
        exactly log(rho) at gamma = 1."""
        coef = math.sqrt(self._dp(1.0))
        return coef * _powm1_over(rho, 0.5 * (self.gamma - 1.0))

    def riemann_invariants(self, rho, mom):
        """z = sound_integral(rho) - u and w = sound_integral(rho) + u."""
        rho = self._checked(rho, self.admissible_floor)
        mom = np.asarray(mom, dtype=float)
        u = mom / rho
        s = self.sound_integral(rho)
        return s - u, s + u


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [x_min, x_max]."""

    x_min: float
    x_max: float
    n_cells: int
    boundary: Boundary = Boundary.OUTFLOW

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ConfigurationError("x_max must exceed x_min")
        if self.n_cells < 8:
            raise ConfigurationError(f"need at least 8 cells, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @functools.cached_property
    def _dx(self) -> np.ndarray:
        """dx as a 0-d array (`_const`)."""
        return _const(self.dx)

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def fill_ghosts(self, padded: np.ndarray) -> None:
        """Set the ghost cells of an array padded on its last axis with one
        cell per side: the wrapped neighbour under periodic boundaries, a
        copy of the edge cell under outflow."""
        if self.boundary is Boundary.PERIODIC:
            padded[..., 0], padded[..., -1] = padded[..., -2], padded[..., 1]
        else:
            padded[..., 0], padded[..., -1] = padded[..., 1], padded[..., -2]

    def extend(self, arr: np.ndarray) -> np.ndarray:
        """`arr` padded on its last axis with one ghost cell per side."""
        out = np.empty(arr.shape[:-1] + (arr.shape[-1] + 2,), dtype=arr.dtype)
        out[..., 1:-1] = arr
        self.fill_ghosts(out)
        return out


def cumulative_integral(vals: np.ndarray, dx: float, out=None,
                        tmp=None) -> np.ndarray:
    """Running integral from the left edge to each cell center (last axis).

    Cell-centered data: full weight on cells already passed, half weight on
    the current one (midpoint rule up to the center of cell i).  `out` takes
    the result and `tmp` the half weights, and may be `vals` itself, which
    is then overwritten; left out, both are allocated.
    """
    vals = np.asarray(vals, dtype=float)
    # dx (sum_{j <= i} v_j - 0.5 v_i), in the formula's order
    c = np.add.accumulate(vals, axis=-1, out=out)
    c -= np.multiply(vals, _HALF, out=tmp)
    c *= dx
    return c


def total_integral(vals: np.ndarray, dx: float) -> float:
    return float(dx * np.sum(np.asarray(vals, dtype=float)))


@dataclass
class HydroState:
    """Cell-centered (rho, m) pair at one instant."""

    rho: np.ndarray
    mom: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.mom = np.asarray(self.mom, dtype=float)
        if self.rho.shape != self.mom.shape:
            raise ConfigurationError("rho and mom must share a shape")


def derived_c_profile(a_vals, b_vals, e_minus, dx: float) -> np.ndarray:
    """C(x) = (e_minus - int_{left}^x b) / a(x), NaN where a(x) = 0: C is
    undefined there."""
    num = e_minus - cumulative_integral(b_vals, dx)
    return np.divide(num, a_vals, out=np.full_like(num, np.nan),
                     where=a_vals != 0.0)


@dataclass(frozen=True)
class DeviceProfile:
    """Damping coefficient a(x), doping b(x) and the far-field datum."""

    a_vals: np.ndarray
    b_vals: np.ndarray
    e_minus: float

    @functools.cached_property
    def _e_minus(self) -> np.ndarray:
        """e_minus as a 0-d array (`_const`)."""
        return _const(self.e_minus)

    @classmethod
    def build(cls, grid: Grid1D, a_vals, b_vals, e_minus: float) -> "DeviceProfile":
        a = np.asarray(a_vals, dtype=float)
        b = np.asarray(b_vals, dtype=float)
        if a.shape != (grid.n_cells,) or b.shape != (grid.n_cells,):
            raise ConfigurationError("profile arrays must match the grid")
        # b first: the damping ramp integrates it, so a NaN in b is in a too
        for name, vals in (("b", b), ("a", a), ("e_minus", e_minus)):
            bad = np.asarray(vals)[~np.isfinite(vals)]
            if bad.size:
                raise ConfigurationError(
                    f"profile {name} must be finite, got {float(bad[0])!r}")
        if np.any(a < 0.0):
            i = int(np.argmin(a))
            raise ConfigurationError(
                f"damping coefficient must be non-negative, got min a = "
                f"{float(a[i])!r} at x = {float(grid.centers[i])!r}")
        return cls(a_vals=a, b_vals=b, e_minus=float(e_minus))

