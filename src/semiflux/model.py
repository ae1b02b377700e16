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
from dataclasses import dataclass, field

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
    convention: PressureConvention = PressureConvention.ONE_OVER_GAMMA

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
        if self.convention is PressureConvention.ONE_OVER_GAMMA:
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
        if self.convention is PressureConvention.PLAIN:
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
        if self.convention is PressureConvention.PLAIN:
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
        theta = (gamma - 1)/2 and c = sqrt(gamma) under the plain
        convention, else 1: through expm1, continuous in gamma and exactly
        log(rho) at gamma = 1."""
        coef = math.sqrt(self.gamma) if self.convention is PressureConvention.PLAIN else 1.0
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


@dataclass(frozen=True)
class ProfileCheck:
    """Outcome of the time-uniform-bound hypothesis checks on a profile."""

    ok: bool
    first_failure: str | None
    conditions: dict = field(default_factory=dict)


def _check_profile(a, b, e_minus, dx: float, c) -> ProfileCheck:
    """Check the damping/doping conditions under which sup-norm bounds stay
    uniform in time, on float arrays with the derived C profile `c`: a
    positive and non-increasing, doping non-negative with total charge below
    the far-field datum (waived when the doping is everywhere non-positive),
    and C non-decreasing."""
    tol_a = 1e-10 * max(1.0, float(np.max(np.abs(a))))

    conditions: dict[str, bool] = {}
    first = None

    def record(name: str, ok: bool):
        nonlocal first
        conditions[name] = bool(ok)
        if not ok and first is None:
            first = name

    b_nonneg = bool(np.all(b >= 0.0))
    b_nonpos = bool(np.all(b <= 0.0))
    total_b = total_integral(b, dx)
    if b_nonpos:
        record("doping sign", True)
        record("total doping below field datum", True)  # waived
    else:
        record("doping sign", b_nonneg)
        record("total doping below field datum", total_b < e_minus)

    a_min = float(np.min(a))
    record("damping positive", a_min > 0.0)
    record("damping non-increasing", bool(np.all(np.gradient(a, dx) <= tol_a)))

    if a_min > 0.0:
        tol_c = 1e-10 * max(1.0, float(np.max(np.abs(c))))
        record("C non-decreasing", bool(np.all(np.gradient(c, dx) >= -tol_c)))
    else:  # C is undefined where a vanishes
        record("C non-decreasing", False)

    return ProfileCheck(ok=(first is None), first_failure=first, conditions=conditions)


def derived_c_profile(a_vals, b_vals, e_minus, dx: float) -> np.ndarray:
    """C(x) = (e_minus - int_{left}^x b) / a(x), NaN where a(x) = 0: C is
    undefined there, and such a profile fails its hypothesis check."""
    a = np.asarray(a_vals, dtype=float)
    num = e_minus - cumulative_integral(b_vals, dx)
    return np.divide(num, a, out=np.full_like(num, np.nan), where=a != 0.0)


@dataclass(frozen=True)
class DeviceProfile:
    """Damping coefficient a(x), doping b(x), far-field datum, and the derived
    C profile with its hypothesis check (`check.ok`: the time-uniform bounds
    apply); c_vals is NaN where a(x) = 0."""

    a_vals: np.ndarray
    b_vals: np.ndarray
    e_minus: float
    c_vals: np.ndarray
    check: ProfileCheck

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
        if np.any(a < 0.0):
            raise ConfigurationError("damping coefficient must be non-negative")
        c = derived_c_profile(a, b, e_minus, grid.dx)
        check = _check_profile(a, b, e_minus, grid.dx, c)
        return cls(a_vals=a, b_vals=b, e_minus=float(e_minus), c_vals=c,
                   check=check)

    @classmethod
    def uniform(cls, grid: Grid1D, a: float = 1.0, b: float = 0.0,
                e_minus: float = 0.0) -> "DeviceProfile":
        n = grid.n_cells
        return cls.build(grid, np.full(n, float(a)), np.full(n, float(b)), e_minus)


@dataclass(frozen=True)
class AuxFields:
    """Comparison fields entering the invariant-region argument."""

    cumulative_charge: np.ndarray   # int_left^x (rho - 2*delta)
    a_field: np.ndarray             # cumulative_charge / a + C
    b_field: np.ndarray             # -(a'/a^2) * cumulative_charge


def build_aux_fields(state: HydroState, profile: DeviceProfile,
                     model: GasModel, grid: Grid1D) -> AuxFields:
    charge = cumulative_integral(state.rho - model.rho_floor, grid.dx)
    a = profile.a_vals
    a_prime = np.gradient(a, grid.dx)
    return AuxFields(
        cumulative_charge=charge,
        a_field=charge / a + profile.c_vals,
        b_field=-(a_prime / a ** 2) * charge,
    )
