"""Executable forms of the a-priori estimates.

Each monitor is a pure function of recorded snapshots, so a finished run can
be re-audited offline and must reproduce the original report bit for bit.
A run records only (rho, m); the field E is derived here, record by record
in `_records`, so the audit holds one row of it at a time.
Monitored quantities: excess mass (non-increasing under outflow, constant
under periodic), the field sup-bound ratio, growth of the Riemann invariants
max z, max w <= M2 + M1*t (z, w = int_1^rho sqrt(P'(s))/s ds -+ u, ln rho
-+ u at gamma = 1; a row stores max z, max w and the bound, not their
difference), plateaus of sup rho and sup |u|, the quantities the
uniform bound rho <= M, |u| <= M names, at every gamma under the
uniform-bound hypotheses, and the weak entropy inequality against compactly
supported test functions phi = g(xi_x) g(xi_t), `TestFunction._bump`
giving g and g' from one exponential.  The summary's step count,
completion and lowest density are read off the records too.  Every audit
reads the device profile and the SolverConfig (eps, tau, source coupling)
from the Trajectory itself, so it judges the run under the settings it was
marched with.
`evaluate_trajectory` audits the monitors named in `enabled`, a tuple that
`parse_monitor_list` reads and validates; `reporting.audited_texts` is
where a command runs them.  The four per-record bounds (positivity, mass,
field, riemann) are one table of (monitor, violated, value, bound) rows
per record, in that order, so violations.json is record-major; only the
mass row splits, by boundary.  `_violation` builds every entry of
violations.json, the plateau and entropy checks' included.  The entropy
audit is one `entropy_sweep` over the snapshots: each snapshot's
mechanical energy, flux and source term are evaluated once and shared by
every test function and by the tolerance scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .field import doping_mass, mass_field_bound, solve_field
from .model import (Boundary, ConfigurationError, GasModel,
                    PressureConvention, total_integral)
from .solver import Trajectory, source

ALL_MONITORS = ("positivity", "mass", "field", "riemann", "uniform", "entropy")


def parse_monitor_list(spec: str) -> tuple:
    body = spec.strip().lower()
    if body in ("all", ""):
        return ALL_MONITORS
    if body == "none":
        return ()
    names = tuple(s.strip() for s in body.split(",") if s.strip())
    unknown = set(names) - set(ALL_MONITORS)
    if unknown:
        raise ConfigurationError(
            f"unknown monitors {sorted(unknown)}; choose from {list(ALL_MONITORS)}")
    return names


# relative slack on excess mass (per 1000 steps under periodic boundaries)
MASS_TOL = 1e-12
# relative and absolute slack on the field sup-bound
FIELD_TOL = 1e-12
# absolute slack on the Riemann-invariant growth bound
RIEMANN_TOL = 1e-6
# allowed late-over-early growth of a plateaued sup-norm
PLATEAU_TOL = 0.01
# random test functions per entropy spot check
N_PHI = 3


MONITOR_COLUMNS = (
    "step", "time", "mass", "min_rho", "sup_rho", "sup_abs_u",
    "sup_abs_field", "field_bound", "z_max", "w_max", "riemann_bound",
)


@dataclass
class MonitorReport:
    rows: list        # one list of MONITOR_COLUMNS values per record
    violations: list  # `_violation` entries, the file violations.json
    summary: dict = field(default_factory=dict)


def _violation(monitor: str, time, value, bound, **extra) -> dict:
    """One entry of violations.json, uniform's `series` an `extra` key."""
    return {"monitor": monitor, "time": time, "value": value, "bound": bound,
            **extra}


def _records(traj: Trajectory):
    """(step, time, rho, m, E) of each record, E solved from its rho."""
    floor, grid, profile = traj.model.rho_floor, traj.grid, traj.profile
    for step, t, rho, mom in zip(traj.steps.tolist(), traj.times.tolist(),
                                 traj.rho, traj.mom):
        yield step, t, rho, mom, solve_field(rho - floor, profile, grid)


def evaluate_trajectory(traj: Trajectory,
                        enabled: tuple = ALL_MONITORS) -> MonitorReport:
    """Recompute each monitor named in `enabled` over the recorded
    snapshots; the monitor series are computed whatever is enabled."""
    model, grid, profile = traj.model, traj.grid, traj.profile
    rows, violations = [], []

    mass0 = total_integral(traj.rho[0] - model.rho_floor, grid.dx)
    doping = doping_mass(profile, grid)
    z0, w0 = model.riemann_invariants(
        np.maximum(traj.rho[0], model.rho_floor), traj.mom[0])
    m2 = float(max(np.max(z0), np.max(w0)))

    mass_scale = max(1.0, abs(mass0))
    floor = model.admissible_floor
    prev_mass = mass0
    m1_running = 0.0

    for step, t, rho, mom, e_vals in _records(traj):
        # derived columns use a floored density so that one positivity
        # failure does not abort the rest of the audit; the positivity
        # monitor itself always sees the raw minimum
        rho_safe = np.maximum(rho, model.rho_floor)
        u = mom / rho_safe
        mass = total_integral(rho - model.rho_floor, grid.dx)
        min_rho = float(np.min(rho))
        sup_rho = float(np.max(rho))
        sup_u = float(np.max(np.abs(u)))
        sup_field = float(np.max(np.abs(e_vals)))
        dyn_bound = mass_field_bound(mass, doping, profile.e_minus)
        m1_running = max(m1_running, dyn_bound)
        z, w = model.riemann_invariants(rho_safe, mom)
        z_max, w_max = float(np.max(z)), float(np.max(w))
        r_bound = m2 + m1_running * t
        r_top = max(z_max, w_max)

        rows.append([step, t, mass, min_rho, sup_rho, sup_u,
                     sup_field, dyn_bound, z_max, w_max, r_bound])

        # mass is constant (periodic, slack per 1000 steps) or non-increasing
        if grid.boundary is Boundary.PERIODIC:
            slack = MASS_TOL * mass_scale * max(1.0, step / 1000.0)
            mass_row = ("mass", abs(mass - mass0) > slack, mass, mass0)
        else:
            slack = MASS_TOL * mass_scale
            mass_row = ("mass", mass > prev_mass + slack
                        or mass > mass0 + slack, mass, prev_mass)
        bounds = (
            ("positivity", min_rho < floor, min_rho, floor),
            mass_row,
            ("field", sup_field > dyn_bound * (1.0 + FIELD_TOL) + FIELD_TOL,
             sup_field, dyn_bound),
            ("riemann", r_bound - r_top < -RIEMANN_TOL, r_top, r_bound))
        violations += [_violation(name, t, value, bound)
                       for name, violated, value, bound in bounds
                       if violated and name in enabled]
        prev_mass = mass

    summary = {"min_rho_ever": float(np.min(traj.min_rho)),
               "n_steps": traj.n_steps, "completed": traj.completed}

    if "uniform" in enabled and len(rows) >= 4:
        times = traj.times
        for name in ("sup_rho", "sup_abs_u"):
            col = MONITOR_COLUMNS.index(name)
            series = np.array([r[col] for r in rows])
            ok, early, late = plateau_check(times, series, PLATEAU_TOL)
            summary[f"plateau_{name}_early"] = early
            summary[f"plateau_{name}_late"] = late
            summary[f"plateau_{name}_ok"] = ok
            if profile.check.ok and not ok:
                violations.append(_violation(
                    "uniform", times[-1], late, early * (1.0 + PLATEAU_TOL),
                    series=name))

    return MonitorReport(rows=rows, violations=violations, summary=summary)


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

def _mechanical_energy(model: GasModel, rho, mom):
    """Kinetic plus internal energy, the canonical convex entropy, at
    (rho, m): its density eta, its flux q and the source multiplier
    eta_m = u.  The internal energy int_{2*delta}^{rho} P(s)/s^2 ds is the
    gas law's `_tail`, the term P1 reads too, divided by gamma under the
    1/gamma convention: one expm1 form for every gamma >= 1, evaluated once
    for eta and q both."""
    rho = np.asarray(rho, dtype=float)
    mom = np.asarray(mom, dtype=float)
    internal = model._tail(rho)
    if model.convention is PressureConvention.ONE_OVER_GAMMA:
        internal = internal / model.gamma
    eta = 0.5 * mom ** 2 / rho + rho * internal
    enthalpy = model.pressure(rho) / rho + internal
    return eta, 0.5 * mom ** 3 / rho ** 2 + enthalpy * mom, mom / rho


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported smooth bump phi(x,t) = g((x-xc)/wx) g((t-tc)/wt)."""

    x_center: float
    x_width: float
    t_center: float
    t_width: float

    @staticmethod
    def _bump(xi):
        """(g, g') at xi, g(xi) = exp(-1/(1 - xi^2)) inside |xi| < 1 and 0
        outside, g' = g * (-2 xi / (1 - xi^2)^2); the exponential is
        evaluated once for both."""
        xi = np.asarray(xi, dtype=float)
        g, dg = np.zeros_like(xi), np.zeros_like(xi)
        inside = np.abs(xi) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            xin = xi[inside]
            gap = 1.0 - xin ** 2
            g_in = np.exp(-1.0 / gap)
            g[inside] = g_in
            dg[inside] = g_in * (-2.0 * xin / gap ** 2)
        return g, dg

    def space_factors(self, x):
        """(g(xi_x), g'(xi_x) / wx): the spatial half of phi and phi_x."""
        g, dg = self._bump((x - self.x_center) / self.x_width)
        return g, dg / self.x_width

    def time_factors(self, t):
        """(g(xi_t), g'(xi_t)); phi_t divides by wt after the product."""
        return self._bump((t - self.t_center) / self.t_width)

    def combine(self, space, time):
        """(phi, phi_x, phi_t) from the two factor pairs, in the one
        operation order every caller shares."""
        (gx, dgx), (gt, dgt) = space, time
        return gx * gt, dgx * gt, gx * dgt / self.t_width


def random_test_function(rng: np.random.Generator, x_lo: float, x_hi: float,
                         t_lo: float, t_hi: float) -> TestFunction:
    """Bump with support strictly inside (x_lo, x_hi) x (t_lo, t_hi)."""
    wx = rng.uniform(0.15, 0.35) * (x_hi - x_lo)
    xc = rng.uniform(x_lo + wx, x_hi - wx)
    wt = rng.uniform(0.15, 0.35) * (t_hi - t_lo)
    tc = rng.uniform(t_lo + wt, t_hi - wt)
    return TestFunction(x_center=xc, x_width=wx, t_center=tc, t_width=wt)


def entropy_sweep(traj: Trajectory, phis: list):
    """One pass over the snapshots: each snapshot's mechanical energy eta,
    its flux q and source * eta_m, the source of the run's own coupling,
    tau and profile, are evaluated once and folded into the discrete
    weak-form residual of every test function in `phis`,

        int int  eta phi_t + q phi_x + source * eta_m * phi  dx dt

    (cell sums in space, trapezoid in time), and into the tolerance scale,
    the largest magnitude any of the three densities reaches, each at the
    monitor columns' floored density max(rho, 2 delta).  Returns
    (residuals, scale); each residual is nonnegative up to O(dx + eps) for
    admissible runs.  Extra memory is O(n_cells) per test function.
    """
    model, grid, cfg = traj.model, traj.grid, traj.cfg
    dx = grid.dx
    space = [phi.space_factors(grid.centers) for phi in phis]
    vals = np.empty((len(phis), len(traj.times)))
    scale = 0.0
    for k, (_, t, rho, mom, e_vals) in enumerate(_records(traj)):
        rho = np.maximum(rho, model.rho_floor)
        src = source(cfg.source_variant, model, rho, mom, e_vals,
                     traj.profile.a_vals, cfg.tau)
        eta, q, eta_m = _mechanical_energy(model, rho, mom)
        src_eta = src * eta_m
        scale = max(scale, float(np.max(np.abs(eta))),
                    float(np.max(np.abs(q))), float(np.max(np.abs(src_eta))))
        for i, phi in enumerate(phis):
            p, p_x, p_t = phi.combine(space[i], phi.time_factors(t))
            vals[i, k] = dx * float(np.sum(eta * p_t + q * p_x + src_eta * p))
    return [float(np.trapezoid(v, traj.times)) for v in vals], scale


def entropy_spot_check(traj: Trajectory, seed: int):
    """Weak entropy inequality against `N_PHI` random test functions.

    Deterministic in the seed, so an offline re-audit reproduces the same
    residuals.  All test functions are drawn first and audited in one
    `entropy_sweep`.  Returns (results, violations); a residual below
    -(dx + eps + mean recording gap) * scale is a violation.
    """
    grid, times = traj.grid, traj.times
    results, violations = [], []
    if len(times) < 4 or times[-1] <= times[0]:
        return results, violations
    rng = np.random.default_rng(seed)
    span = times[-1] - times[0]
    phis = [random_test_function(rng, grid.x_min, grid.x_max,
                                 times[0] + 0.05 * span,
                                 times[-1] - 0.05 * span)
            for _ in range(N_PHI)]
    residuals, scale = entropy_sweep(traj, phis)
    # the recording gap enters the tolerance: the time quadrature of the
    # residual is only as fine as the stored snapshots
    mean_gap = (times[-1] - times[0]) / (len(times) - 1)
    tol = (grid.dx + traj.cfg.epsilon + mean_gap) * max(scale, 1e-30)
    for phi, res in zip(phis, residuals):
        results.append({"x_center": phi.x_center, "x_width": phi.x_width,
                        "t_center": phi.t_center, "t_width": phi.t_width,
                        "residual": res, "tolerance": tol})
        if res < -tol:
            violations.append(_violation("entropy", phi.t_center, res, -tol))
    return results, violations
