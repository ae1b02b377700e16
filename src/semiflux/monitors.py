"""Executable forms of the a-priori estimates.

Each monitor is a pure function of recorded snapshots, so a finished run can
be re-audited offline and must reproduce the original report bit for bit.
A run records only (rho, m); the field E is derived here, record by record
in `_records`, so the audit holds one row of it at a time.
Monitored quantities: excess mass (non-increasing under outflow, constant
under periodic), the field sup-bound ratio, growth of the Riemann invariants
max z, max w <= M2 + M1*t, sup-norm plateaus under the uniform-bound
hypotheses, and the weak entropy inequality against compactly supported test
functions.  The entropy audit is one sweep over the snapshots: each
snapshot's densities are evaluated once and shared by every test function
and by the tolerance scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import doping_mass, mass_field_bound, solve_field
from .model import (Boundary, DeviceProfile, GasModel, Grid1D, HydroState,
                    PressureConvention, _powm1_over, total_integral)
from .solver import SourceVariant, Trajectory, source

ALL_MONITORS = ("positivity", "mass", "field", "riemann", "uniform", "entropy")

# relative slack on excess mass (per 1000 steps under periodic boundaries)
MASS_TOL = 1e-12
# relative and absolute slack on the field sup-bound
FIELD_TOL = 1e-12
# absolute slack on the Riemann-invariant growth bound
RIEMANN_TOL = 1e-6
# allowed late-over-early growth of a plateaued sup-norm
PLATEAU_TOL = 0.01


@dataclass(frozen=True)
class MonitorSuite:
    enabled: tuple = ALL_MONITORS

    def __post_init__(self):
        unknown = set(self.enabled) - set(ALL_MONITORS)
        if unknown:
            raise ValueError(f"unknown monitors: {sorted(unknown)}")


MONITOR_COLUMNS = (
    "step", "time", "mass", "min_rho", "sup_rho", "sup_abs_u",
    "sup_abs_field", "field_bound", "z_max", "w_max", "riemann_bound",
    "riemann_slack", "sup_log_plus", "sup_log_minus",
)


@dataclass
class MonitorReport:
    columns: tuple
    rows: list
    violations: list
    summary: dict = field(default_factory=dict)


def excess_mass(state: HydroState, model: GasModel, grid: Grid1D) -> float:
    return total_integral(state.excess(model), grid.dx)


def _records(traj: Trajectory, profile: DeviceProfile):
    """(step, time, rho, m, E) of each record, E solved from its rho."""
    floor, grid = traj.model.rho_floor, traj.grid
    for step, t, rho, mom in zip(traj.steps.tolist(), traj.times.tolist(),
                                 traj.rho, traj.mom):
        yield step, t, rho, mom, solve_field(rho - floor, profile, grid)


def evaluate_trajectory(traj: Trajectory, profile: DeviceProfile,
                        suite: MonitorSuite = MonitorSuite()) -> MonitorReport:
    """Recompute every enabled monitor over the recorded snapshots."""
    model, grid = traj.model, traj.grid
    rows, violations = [], []

    first = HydroState(rho=traj.rho[0], mom=traj.mom[0])
    mass0 = excess_mass(first, model, grid)
    doping = doping_mass(profile, grid)
    bound0 = mass_field_bound(mass0, doping, profile.e_minus)
    z0, w0 = model.riemann_invariants(np.maximum(first.rho, model.rho_floor),
                                      first.mom)
    m2 = float(max(np.max(z0), np.max(w0)))

    mass_scale = max(1.0, abs(mass0))
    floor = model.admissible_floor
    prev_mass = mass0
    m1_running = 0.0

    for step, t, rho, mom, e_vals in _records(traj, profile):
        # derived columns use a floored density so that one positivity
        # failure does not abort the rest of the audit; the positivity
        # monitor itself always sees the raw minimum
        rho_safe = np.maximum(rho, model.rho_floor)
        state = HydroState(rho=rho, mom=mom, time=t)
        u = mom / rho_safe
        mass = excess_mass(state, model, grid)
        min_rho = float(np.min(rho))
        sup_rho = float(np.max(rho))
        sup_u = float(np.max(np.abs(u)))
        sup_field = float(np.max(np.abs(e_vals)))
        dyn_bound = mass_field_bound(mass, doping, profile.e_minus)
        m1_running = max(m1_running, dyn_bound)
        z, w = model.riemann_invariants(rho_safe, mom)
        z_max, w_max = float(np.max(z)), float(np.max(w))
        r_bound = m2 + m1_running * t
        r_slack = r_bound - max(z_max, w_max)
        logr = np.log(rho_safe)
        sup_log_plus = float(np.max(logr + u))
        sup_log_minus = float(np.max(logr - u))

        rows.append([step, t, mass, min_rho, sup_rho, sup_u,
                     sup_field, dyn_bound, z_max, w_max, r_bound, r_slack,
                     sup_log_plus, sup_log_minus])

        if "positivity" in suite.enabled and min_rho < floor:
            violations.append({"monitor": "positivity", "time": t,
                               "value": min_rho, "bound": floor})
        if "mass" in suite.enabled:
            if traj.grid.boundary is Boundary.PERIODIC:
                allowance = MASS_TOL * mass_scale * max(1.0, step / 1000.0)
                if abs(mass - mass0) > allowance:
                    violations.append({"monitor": "mass", "time": t,
                                       "value": mass, "bound": mass0})
            else:
                allowance = MASS_TOL * mass_scale
                if mass > prev_mass + allowance or mass > mass0 + allowance:
                    violations.append({"monitor": "mass", "time": t,
                                       "value": mass, "bound": prev_mass})
        if "field" in suite.enabled and sup_field > dyn_bound * (1.0 + FIELD_TOL) \
                + FIELD_TOL:
            violations.append({"monitor": "field", "time": t,
                               "value": sup_field, "bound": dyn_bound})
        if "riemann" in suite.enabled and r_slack < -RIEMANN_TOL:
            violations.append({"monitor": "riemann", "time": t,
                               "value": max(z_max, w_max), "bound": r_bound})
        prev_mass = mass

    summary = {
        "initial_mass": mass0,
        "initial_field_bound": bound0,
        "initial_invariant_max": m2,
        "min_rho_ever": traj.min_rho_ever,
        "n_steps": traj.n_steps,
        "completed": traj.completed,
    }

    if "uniform" in suite.enabled and len(rows) >= 4:
        times = traj.times
        if model.gamma == 1.0:
            tracked = {"sup_log_plus": 12, "sup_log_minus": 13}
        else:
            tracked = {"sup_rho": 4, "sup_abs_u": 5}
        for name, col in tracked.items():
            series = np.array([r[col] for r in rows])
            ok, early, late = plateau_check(times, series, PLATEAU_TOL)
            summary[f"plateau_{name}_early"] = early
            summary[f"plateau_{name}_late"] = late
            summary[f"plateau_{name}_ok"] = ok
            if profile.uniform_ok and not ok:
                violations.append({"monitor": "uniform", "time": times[-1],
                                   "value": late, "bound": early * (1.0 + PLATEAU_TOL),
                                   "series": name})

    return MonitorReport(columns=MONITOR_COLUMNS, rows=rows,
                         violations=violations, summary=summary)


def plateau_check(times: np.ndarray, series: np.ndarray, tol: float):
    """Late-half maximum must not exceed the early-half maximum by more than
    the stated fraction.  Returns (ok, early_max, late_max)."""
    t_half = 0.5 * (times[0] + times[-1])
    early = series[times <= t_half]
    late = series[times > t_half]
    if len(early) == 0 or len(late) == 0:
        return True, float("nan"), float("nan")
    early_max, late_max = float(np.max(early)), float(np.max(late))
    span = max(abs(early_max), 1e-30)
    return late_max <= early_max + tol * span, early_max, late_max


# --- entropy machinery -----------------------------------------------------

@dataclass(frozen=True)
class EntropyPair:
    """Convex entropy with its flux; eta_m is the source multiplier."""

    eta: object
    q: object
    eta_m: object


def _internal_energy_integral(model: GasModel, rho):
    """int_{2*delta}^{rho} P(s)/s^2 ds."""
    rho = np.asarray(rho, dtype=float)
    d2 = model.rho_floor
    if model.gamma == 1.0:
        return np.log(rho / d2)
    tail = _powm1_over(rho, model.gamma - 1.0) - _powm1_over(d2, model.gamma - 1.0)
    if model.convention is PressureConvention.ONE_OVER_GAMMA:
        tail = tail / model.gamma
    return tail


def mechanical_energy_pair(model: GasModel) -> EntropyPair:
    """Kinetic plus internal energy, the canonical convex pair."""

    def eta(rho, mom):
        rho = np.asarray(rho, dtype=float)
        mom = np.asarray(mom, dtype=float)
        return 0.5 * mom ** 2 / rho + rho * _internal_energy_integral(model, rho)

    def q(rho, mom):
        rho = np.asarray(rho, dtype=float)
        mom = np.asarray(mom, dtype=float)
        enthalpy = model.pressure(rho) / rho + _internal_energy_integral(model, rho)
        return 0.5 * mom ** 3 / rho ** 2 + enthalpy * mom

    def eta_m(rho, mom):
        return np.asarray(mom, dtype=float) / np.asarray(rho, dtype=float)

    return EntropyPair(eta=eta, q=q, eta_m=eta_m)


def convexity_check(pair: EntropyPair, rho_samples, mom_samples,
                    h: float = 1e-4) -> float:
    """Smallest eigenvalue of the finite-difference Hessian of eta over the
    sampled states (should be >= 0 for a convex pair)."""
    worst = math.inf
    for rho, mom in zip(np.atleast_1d(rho_samples), np.atleast_1d(mom_samples)):
        hr = h * max(1.0, abs(rho))
        hm = h * max(1.0, abs(mom))
        e = pair.eta
        h11 = (e(rho + hr, mom) - 2.0 * e(rho, mom) + e(rho - hr, mom)) / hr ** 2
        h22 = (e(rho, mom + hm) - 2.0 * e(rho, mom) + e(rho, mom - hm)) / hm ** 2
        h12 = (e(rho + hr, mom + hm) - e(rho + hr, mom - hm)
               - e(rho - hr, mom + hm) + e(rho - hr, mom - hm)) / (4.0 * hr * hm)
        tr, det_d = h11 + h22, h11 - h22
        lam_min = 0.5 * (tr - math.sqrt(det_d ** 2 + 4.0 * h12 ** 2))
        worst = min(worst, float(lam_min))
    return worst


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported smooth bump phi(x,t) = g((x-xc)/wx) g((t-tc)/wt)."""

    x_center: float
    x_width: float
    t_center: float
    t_width: float

    @staticmethod
    def _bump(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        inside = np.abs(xi) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - xi[inside] ** 2))
        return out

    @staticmethod
    def _dbump(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        inside = np.abs(xi) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            xin = xi[inside]
            out[inside] = np.exp(-1.0 / (1.0 - xin ** 2)) \
                * (-2.0 * xin / (1.0 - xin ** 2) ** 2)
        return out

    def space_factors(self, x):
        """(g(xi_x), g'(xi_x) / wx): the spatial half of phi and phi_x."""
        xi = (x - self.x_center) / self.x_width
        return self._bump(xi), self._dbump(xi) / self.x_width

    def time_factors(self, t):
        """(g(xi_t), g'(xi_t)); phi_t divides by wt after the product."""
        xi = (t - self.t_center) / self.t_width
        return self._bump(xi), self._dbump(xi)

    def combine(self, space, time):
        """(phi, phi_x, phi_t) from the two factor pairs, in the one
        operation order every caller shares."""
        (gx, dgx), (gt, dgt) = space, time
        return gx * gt, dgx * gt, gx * dgt / self.t_width

    def phi(self, x, t):
        return self.combine(self.space_factors(x), self.time_factors(t))[0]

    def phi_x(self, x, t):
        return self.combine(self.space_factors(x), self.time_factors(t))[1]

    def phi_t(self, x, t):
        return self.combine(self.space_factors(x), self.time_factors(t))[2]


def random_test_function(rng: np.random.Generator, x_lo: float, x_hi: float,
                         t_lo: float, t_hi: float) -> TestFunction:
    """Bump with support strictly inside (x_lo, x_hi) x (t_lo, t_hi)."""
    wx = rng.uniform(0.15, 0.35) * (x_hi - x_lo)
    xc = rng.uniform(x_lo + wx, x_hi - wx)
    wt = rng.uniform(0.15, 0.35) * (t_hi - t_lo)
    tc = rng.uniform(t_lo + wt, t_hi - wt)
    return TestFunction(x_center=xc, x_width=wx, t_center=tc, t_width=wt)


def _entropy_sweep(traj: Trajectory, profile: DeviceProfile,
                   pair: EntropyPair, phis: list, tau: float,
                   source_variant: SourceVariant):
    """One pass over the snapshots: each snapshot's densities eta, q and
    source * eta_m are evaluated once and folded into the discrete weak-form
    residual of every test function in `phis`,

        int int  eta phi_t + q phi_x + source * eta_m * phi  dx dt

    (cell sums in space, trapezoid in time), and into the tolerance scale,
    the largest magnitude any of the three densities reaches.  Returns
    (residuals, scale).  Extra memory is O(n_cells) per test function.
    """
    model, grid = traj.model, traj.grid
    dx = grid.dx
    space = [phi.space_factors(grid.centers) for phi in phis]
    vals = np.empty((len(phis), len(traj.times)))
    scale = 0.0
    for k, (_, t, rho, mom, e_vals) in enumerate(_records(traj, profile)):
        src = source(source_variant, model, rho, mom, e_vals,
                     profile.a_vals, tau)
        eta, q = pair.eta(rho, mom), pair.q(rho, mom)
        src_eta = src * pair.eta_m(rho, mom)
        scale = max(scale, float(np.max(np.abs(eta))),
                    float(np.max(np.abs(q))), float(np.max(np.abs(src_eta))))
        for i, phi in enumerate(phis):
            p, p_x, p_t = phi.combine(space[i], phi.time_factors(t))
            vals[i, k] = dx * float(np.sum(eta * p_t + q * p_x + src_eta * p))
    return [float(np.trapezoid(v, traj.times)) for v in vals], scale


def entropy_residual(traj: Trajectory, profile: DeviceProfile,
                     pair: EntropyPair, phi: TestFunction, tau: float,
                     source_variant: SourceVariant = SourceVariant.FULL_DENSITY) -> float:
    """Discrete weak-form residual of one test function over the recorded
    trajectory (see `_entropy_sweep`).  Nonnegative up to O(dx + eps) for
    admissible runs."""
    return _entropy_sweep(traj, profile, pair, [phi], tau, source_variant)[0][0]


def trajectory_entropy_scale(traj: Trajectory, profile: DeviceProfile,
                             pair: EntropyPair, tau: float,
                             source_variant: SourceVariant = SourceVariant.FULL_DENSITY) -> float:
    """Magnitude reference for entropy residual tolerances."""
    return _entropy_sweep(traj, profile, pair, [], tau, source_variant)[1]


def entropy_spot_check(traj: Trajectory, profile: DeviceProfile, tau: float,
                       epsilon: float, seed: int, n_phi: int = 3,
                       coeff: float = 1.0,
                       source_variant: SourceVariant = SourceVariant.FULL_DENSITY):
    """Weak entropy inequality against a few random test functions.

    Deterministic in the seed, so an offline re-audit reproduces the same
    residuals.  All test functions are drawn first and audited in one
    `_entropy_sweep`.  Returns (results, violations); a residual below
    -coeff * (dx + eps + mean recording gap) * scale is a violation.
    """
    model, grid = traj.model, traj.grid
    times = traj.times
    results, violations = [], []
    if len(times) < 4 or times[-1] <= times[0]:
        return results, violations
    rng = np.random.default_rng(seed)
    span = times[-1] - times[0]
    phis = [random_test_function(rng, grid.x_min, grid.x_max,
                                 times[0] + 0.05 * span,
                                 times[-1] - 0.05 * span)
            for _ in range(n_phi)]
    residuals, scale = _entropy_sweep(traj, profile,
                                      mechanical_energy_pair(model), phis,
                                      tau, source_variant)
    # the recording gap enters the tolerance: the time quadrature of the
    # residual is only as fine as the stored snapshots
    mean_gap = (times[-1] - times[0]) / (len(times) - 1)
    tol = coeff * (grid.dx + epsilon + mean_gap) * max(scale, 1e-30)
    for phi, res in zip(phis, residuals):
        results.append({"x_center": phi.x_center, "x_width": phi.x_width,
                        "t_center": phi.t_center, "t_width": phi.t_width,
                        "residual": res, "tolerance": tol})
        if res < -tol:
            violations.append({"monitor": "entropy", "time": phi.t_center,
                               "value": res, "bound": -tol})
    return results, violations
