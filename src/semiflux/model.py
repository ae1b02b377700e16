"""Gas law, grid, state, and device-profile primitives.

The gas is isentropic, P(rho) = rho**gamma / gamma (or the plain rho**gamma
normalization), and the vacuum is offset to rho = 2*delta: admissible states
keep rho >= 2*delta so the velocity u = m/rho never degenerates.  The offset
also perturbs the pressure,

    P1(rho, delta) = int_{2*delta}^{rho} ((t - 2*delta)/t) * P'(t) dt,

which is the momentum-flux potential actually advected by the regularized
system.  Everything here is plain numpy on a uniform cell-centered grid.
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


class ConfigurationError(ValueError):
    """Raised when model, grid, or solver settings are inconsistent."""


class PressureConvention(enum.Enum):
    ONE_OVER_GAMMA = "one-over-gamma"   # P(rho) = rho**gamma / gamma
    PLAIN = "plain"                     # P(rho) = rho**gamma


class Boundary(enum.Enum):
    OUTFLOW = "outflow"
    PERIODIC = "periodic"


def _powm1_over(x, e):
    """(x**e - 1) / e, stable as e -> 0 (limit log(x))."""
    if e == 0.0:
        return np.log(x)
    return np.expm1(e * np.log(x)) / e


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

    @property
    def admissible_floor(self) -> float:
        """Lowest density the pressure accepts: 2*delta less a round-off slack."""
        return self.rho_floor - RHO_FLOOR_SLACK * self.delta

    @property
    def theta(self) -> float:
        return 0.5 * (self.gamma - 1.0)

    @property
    def _pref(self) -> float:
        # multiplier turning rho**gamma into P(rho)
        if self.convention is PressureConvention.ONE_OVER_GAMMA:
            return 1.0 / self.gamma
        return 1.0

    def _p(self, rho):
        return self._pref * rho ** self.gamma

    def _dp(self, rho):
        if self.gamma == 1.0:
            return np.ones_like(rho)
        if self.convention is PressureConvention.ONE_OVER_GAMMA:
            return rho ** (self.gamma - 1.0)
        return self.gamma * rho ** (self.gamma - 1.0)

    @functools.cached_property
    def _p1_floor_terms(self):
        """rho-free terms of `_p1`: P(2d) and the 2d tail, or 2d - 2d log 2d."""
        d2 = self.rho_floor
        if self.gamma == 1.0:
            return d2 - d2 * np.log(d2)
        return self.pressure(d2), _powm1_over(d2, self.gamma - 1.0)

    def _p1(self, rho):
        """P1(rho, delta), closed form for every gamma >= 1; unchecked.

        For gamma > 1 the antiderivative is P(t) - 2*delta*int P'(t)/t dt with
        the power integral evaluated through expm1 so nothing blows up as
        gamma -> 1; at gamma = 1 it degenerates to rho - 2*delta*log(rho).
        """
        d2, g = self.rho_floor, self.gamma
        if g == 1.0:
            return (rho - d2 * np.log(rho)) - self._p1_floor_terms
        p_floor, tail_floor = self._p1_floor_terms
        # int_{2d}^{rho} P'(t)/t dt, conditioned for gamma near 1
        tail = _powm1_over(rho, g - 1.0) - tail_floor
        if self.convention is PressureConvention.PLAIN:
            tail = g * tail
        return (self._p(rho) - p_floor) - d2 * tail

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

    def sound_speed(self, rho):
        return np.sqrt(self.dpressure(rho))

    def perturbed_pressure(self, rho):
        """P1(rho, delta) of admissible densities (see `_p1`)."""
        val = self._p1(self._checked(rho, self.admissible_floor))
        return val if val.shape else float(val)

    def eigenvalues(self, rho, mom):
        """Characteristic speeds u -/+ ((rho - 2*delta)/rho) * sqrt(P'(rho))."""
        rho = self._checked(rho, self.admissible_floor)
        mom = np.asarray(mom, dtype=float)
        u = mom / rho
        spread = (rho - self.rho_floor) / rho * np.sqrt(self._dp(rho))
        lam1, lam2 = u - spread, u + spread
        if lam1.shape:
            return lam1, lam2
        return float(lam1), float(lam2)

    def canonical_lower_ref(self) -> float:
        """Lower limit of the sound integral: 2*delta for gamma >= 3, zero for
        1 < gamma < 3, and 1 for the isothermal log form."""
        if self.gamma == 1.0:
            return 1.0
        if self.gamma >= 3.0:
            return self.rho_floor
        return 0.0

    def sound_integral(self, rho):
        """int_l^rho sqrt(P'(s))/s ds with the canonical lower limit l."""
        rho = np.asarray(rho, dtype=float)
        coef = math.sqrt(self.gamma) if self.convention is PressureConvention.PLAIN else 1.0
        th = self.theta
        if self.gamma == 1.0:
            return coef * np.log(rho)
        if self.gamma >= 3.0:
            return coef * (rho ** th - self.rho_floor ** th) / th
        return coef * rho ** th / th

    def riemann_invariants(self, rho, mom):
        """z = sound_integral(rho) - u and w = sound_integral(rho) + u, with
        the sound integral's lower limit fixed by gamma."""
        rho = self._checked(rho, self.admissible_floor)
        mom = np.asarray(mom, dtype=float)
        u = mom / rho
        s = self.sound_integral(rho)
        z, w = s - u, s + u
        if z.shape:
            return z, w
        return float(z), float(w)


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

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx

    def extend(self, arr: np.ndarray) -> np.ndarray:
        """Pad the last axis with one ghost cell per side: the wrapped
        neighbour under periodic boundaries, a copy of the edge cell under
        outflow."""
        if self.boundary is Boundary.PERIODIC:
            return np.concatenate((arr[..., -1:], arr, arr[..., :1]), axis=-1)
        return np.concatenate((arr[..., :1], arr, arr[..., -1:]), axis=-1)


def cumulative_integral(vals: np.ndarray, dx: float) -> np.ndarray:
    """Running integral from the left edge to each cell center (last axis).

    Cell-centered data: full weight on cells already passed, half weight on
    the current one (midpoint rule up to the center of cell i).
    """
    vals = np.asarray(vals, dtype=float)
    return dx * (np.cumsum(vals, axis=-1) - 0.5 * vals)


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

    @property
    def velocity(self) -> np.ndarray:
        return self.mom / self.rho

    def excess(self, model: GasModel) -> np.ndarray:
        return self.rho - model.rho_floor


@dataclass(frozen=True)
class ProfileCheck:
    """Outcome of the time-uniform-bound hypothesis checks on a profile."""

    ok: bool
    first_failure: str | None
    conditions: dict = field(default_factory=dict)


def validate_uniform_hypotheses(a_vals, b_vals, e_minus, grid: Grid1D) -> ProfileCheck:
    """Check the damping/doping conditions under which sup-norm bounds stay
    uniform in time: a positive and non-increasing, doping non-negative with
    total charge below the far-field datum (waived when the doping is
    everywhere non-positive), and the derived C profile non-decreasing.
    """
    a = np.asarray(a_vals, dtype=float)
    b = np.asarray(b_vals, dtype=float)
    return _check_profile(a, b, e_minus, grid.dx,
                          derived_c_profile(a, b, e_minus, grid.dx))


def _check_profile(a, b, e_minus, dx: float, c) -> ProfileCheck:
    """`validate_uniform_hypotheses` on float arrays, with the derived C
    profile `c` already computed."""
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
    C profile with its hypothesis check; c_vals is NaN where a(x) = 0."""

    a_vals: np.ndarray
    b_vals: np.ndarray
    e_minus: float
    c_vals: np.ndarray
    uniform_ok: bool
    check: ProfileCheck

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
                   uniform_ok=check.ok, check=check)

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
    charge = cumulative_integral(state.excess(model), grid.dx)
    a = profile.a_vals
    a_prime = np.gradient(a, grid.dx)
    return AuxFields(
        cumulative_charge=charge,
        a_field=charge / a + profile.c_vals,
        b_field=-(a_prime / a ** 2) * charge,
    )
