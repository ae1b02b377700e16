"""Executable forms of the a-priori estimates.

Each monitor is a pure function of recorded snapshots, so a finished run can
be re-audited offline and must reproduce the original report bit for bit.
A run records only (rho, m); the field E is derived here.  The audit runs
over `_blocks` of consecutive records, each at most `BLOCK_CELLS` cells or
one record, with one `solve_field` call per block.  `_record_columns`
builds the one monitor table, an array per name of `MONITOR_COLUMNS` (a
new column is one entry there): excess mass, sup rho and sup |u| (the
quantities of the uniform bound rho, |u| <= M), the field sup and its
bound, and max z, max w of the Riemann invariants (z, w = int_1^rho
sqrt(P'(s))/s ds -+ u) with their growth bound M2 + M1*t.  It is
`MonitorReport.columns` and monitors.csv, and every check reads it by
name.  Every audit reads the device profile and the SolverConfig (eps,
tau, source coupling) from the Trajectory itself.
Every verdict is one `Check` row (check, value, bound, passed), here and
in `picard` and `relaxation`, a monitor's passed by `value <op> bound`,
which a nan fails; `Check.entry` builds every entry of violations.json,
the failed rows of a `MonitorReport`.
`evaluate_trajectory` audits the monitors named in `enabled`
(`parse_monitor_list`); `reporting.audited_texts` is where a command runs
them.  The four per-record bounds (positivity, mass, field, riemann) are
one array rule each over the table, emitted record-major; only mass
splits, by boundary: non-increasing under outflow, constant periodic.
The whole-run monitors, `uniform` (plateaus of sup rho and sup |u|) and
`entropy` (the weak entropy inequality against compactly supported test
functions, one `entropy_sweep` over the snapshots), judge a run of
`MIN_RECORDS` records or more over a time span, uniform under the
profile's hypotheses too: `_unjudged_reason`, their only reader, says why not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  at start-up, not on first use in a command

from .field import doping_mass, mass_field_bound, solve_field
from .model import Boundary, ConfigurationError, GasModel, PressureConvention
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
# fewest records the whole-run monitors, uniform and entropy, judge
MIN_RECORDS = 4
# random test functions per entropy spot check
N_PHI = 3
# most cells one audit block holds (one record at least): bounds the
# audit's workspace and lets a short run be audited in one block
BLOCK_CELLS = 4096
# the monitor table's names in order: monitors.csv's header, the keys of
# `MonitorReport.columns` (`_record_columns` computes each)
MONITOR_COLUMNS = ("step", "time", "mass", "min_rho", "sup_rho", "sup_abs_u",
                   "sup_abs_field", "field_bound", "z_max", "w_max",
                   "riemann_bound")


@dataclass(frozen=True)
class Check:
    """One verdict: what `check` measured (`value`), against what (`bound`),
    and whether it `passed`; `time` the instant judged, `series` the column
    a `uniform` row judges."""

    check: str
    value: float
    bound: float
    passed: bool
    time: float = math.nan
    series: str | None = None

    def entry(self) -> dict:
        """The row as an entry of violations.json."""
        extra = {} if self.series is None else {"series": self.series}
        return {"monitor": self.check, "time": self.time, "value": self.value,
                "bound": self.bound, **extra}


@dataclass
class MonitorReport:
    columns: dict   # MONITOR_COLUMNS name -> its array, one entry per record
    checks: list    # one `Check` per verdict of an enabled monitor
    summary: dict
    unjudged: dict  # enabled whole-run monitor -> why it did not judge

    @property
    def violations(self) -> list:
        """The file violations.json: the failed checks' entries."""
        return [c.entry() for c in self.checks if not c.passed]


def _blocks(traj: Trajectory):
    """(span, rho, m, E) of consecutive blocks of records, each of at most
    `BLOCK_CELLS` cells or one record: `span` the block's slice of the
    records, rho and m the stacked records' rows in it, E solved from its
    rho in one call."""
    floor, grid, profile = traj.model.rho_floor, traj.grid, traj.profile
    per = max(1, BLOCK_CELLS // grid.n_cells)
    for lo in range(0, len(traj.times), per):
        span = slice(lo, lo + per)
        rho = traj.rho[span]
        yield span, rho, traj.mom[span], solve_field(rho - floor, profile,
                                                     grid)


def _record_columns(traj: Trajectory) -> dict:
    """The monitor table, one array per name of `MONITOR_COLUMNS`: each
    column of the records one axis=-1 reduction per block (u, z and w at
    the floored density), `field_bound` from the excess mass, and
    `riemann_bound` M2 + M1 * t, M1 the field bound's running maximum from
    0 (past a nan) and M2 record 0's top invariant."""
    model, grid, profile = traj.model, traj.grid, traj.profile
    parts = []
    for span, rho, mom, e_vals in _blocks(traj):
        # derived columns use a floored density so that one positivity
        # failure does not abort the rest of the audit; the positivity
        # monitor itself always sees the raw minimum
        rho_safe = np.maximum(rho, model.rho_floor)
        z, w = model.riemann_invariants(rho_safe, mom)
        parts.append((grid.dx * np.sum(rho - model.rho_floor, axis=-1),
                      np.min(rho, axis=-1), np.max(rho, axis=-1),
                      np.max(np.abs(mom / rho_safe), axis=-1),
                      np.max(np.abs(e_vals), axis=-1),
                      np.max(z, axis=-1), np.max(w, axis=-1)))
    mass, min_rho, sup_rho, sup_u, sup_e, z_max, w_max = map(np.concatenate,
                                                            zip(*parts))
    bound = mass_field_bound(mass, doping_mass(profile, grid), profile.e_minus)
    m1 = np.fmax.accumulate(np.concatenate(([0.0], bound)))[1:]
    m2 = max(z_max[0], w_max[0])
    return {"step": traj.steps, "time": traj.times, "mass": mass,
            "min_rho": min_rho, "sup_rho": sup_rho, "sup_abs_u": sup_u,
            "sup_abs_field": sup_e, "field_bound": bound, "z_max": z_max,
            "w_max": w_max, "riemann_bound": m2 + m1 * traj.times}


def _unjudged_reason(traj: Trajectory, monitor: str) -> str | None:
    """Why the whole-run monitor "uniform" or "entropy" does not judge
    `traj`, None when it does: too few records or no time span, for
    uniform also the first hypothesis the profile fails."""
    times = traj.times
    if len(times) < MIN_RECORDS:
        return f"need {MIN_RECORDS} records, got {len(times)}"
    if times[-1] <= times[0]:
        return "no recorded time span"
    return traj.profile.check.first_failure if monitor == "uniform" else None


def evaluate_trajectory(traj: Trajectory,
                        enabled: tuple = ALL_MONITORS) -> MonitorReport:
    """Recompute each monitor named in `enabled` over the recorded
    snapshots: the table whatever is enabled, the enabled monitors' `Check`
    rows, and each enabled whole-run monitor that did not judge, with why."""
    col = _record_columns(traj)
    times, mass, mass0 = col["time"], col["mass"], col["mass"][0]
    # record 0 is the initial state; the excess mass is constant (periodic,
    # slack per 1000 steps) or non-increasing, from the last earlier finite
    # mass and from the start
    slack = MASS_TOL * max(1.0, abs(mass0))
    if traj.grid.boundary is Boundary.PERIODIC:
        slack = slack * np.maximum(1.0, col["step"] / 1000.0)
        mass_rule = (mass, mass0, np.abs(mass - mass0) <= slack)
    else:
        finite = np.where(np.isfinite(mass), np.arange(len(mass)), 0)
        prev = mass[np.concatenate(([0], np.maximum.accumulate(finite)[:-1]))]
        mass_rule = (mass, prev,
                     (mass <= prev + slack) & (mass <= mass0 + slack))
    floor, sup_e, f_bound = (traj.model.admissible_floor,
                             col["sup_abs_field"], col["field_bound"])
    r_top = np.where(col["w_max"] > col["z_max"], col["w_max"], col["z_max"])
    r_bound = col["riemann_bound"]
    # the per-record bounds, each (value, bound, passed) over the records
    rules = {
        "positivity": (col["min_rho"], floor, col["min_rho"] >= floor),
        "mass": mass_rule,
        "field": (sup_e, f_bound,
                  sup_e <= f_bound * (1.0 + FIELD_TOL) + FIELD_TOL),
        "riemann": (r_top, r_bound, r_bound - r_top >= -RIEMANN_TOL)}
    table = [(name, *(np.broadcast_to(a, times.shape).tolist() for a in rule))
             for name, rule in rules.items() if name in enabled]
    checks = [Check(name, value[i], bound[i], passed[i], t)
              for i, t in enumerate(times.tolist())
              for name, value, bound, passed in table]

    summary = {"min_rho_ever": float(np.min(traj.min_rho)),
               "n_steps": traj.n_steps, "completed": traj.completed}
    unjudged = {m: why for m in ("uniform", "entropy") if m in enabled
                and (why := _unjudged_reason(traj, m)) is not None}
    # plateau values of a run entropy would judge; `uniform` rows judge them
    if "uniform" in enabled and _unjudged_reason(traj, "entropy") is None:
        for name in ("sup_rho", "sup_abs_u"):
            early, late = plateau_halves(times, col[name])
            summary.update({f"plateau_{name}_early": early,
                            f"plateau_{name}_late": late})
            if "uniform" not in unjudged:
                checks.append(plateau_check(early, late, times[-1], name))
    return MonitorReport(col, checks, summary, unjudged)


def plateau_halves(times: np.ndarray, series: np.ndarray):
    """(early, late): the series' maxima over the first and the second half
    of the recorded time span, nan both when a half holds no record."""
    t_half = 0.5 * (times[0] + times[-1])
    early, late = series[times <= t_half], series[times > t_half]
    if len(early) == 0 or len(late) == 0:
        return math.nan, math.nan
    return float(np.max(early)), float(np.max(late))


def plateau_check(early: float, late: float, time: float = math.nan,
                  series: str | None = None) -> Check:
    """The `uniform` row of a sup-norm: its late-half maximum against the
    bound early * (1 +- PLATEAU_TOL), + for early >= 0, a rise of
    PLATEAU_TOL * |early| either way, which is its pass rule; a nan split
    fails."""
    bound = early * (1.0 + math.copysign(PLATEAU_TOL, early))
    return Check("uniform", late, bound, late <= bound, time, series)


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
    if model.pressure_convention is PressureConvention.ONE_OVER_GAMMA:
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
    """One pass over the record blocks: each block's mechanical energy eta,
    its flux q and source * eta_m, the source of the run's own coupling,
    tau and profile, are evaluated once and folded into the discrete
    weak-form residual of every test function in `phis`,

        int int  eta phi_t + q phi_x + source * eta_m * phi  dx dt

    (cell sums in space, trapezoid in time), and into the tolerance scale,
    the largest magnitude any of the three densities reaches, each at the
    monitor columns' floored density max(rho, 2 delta).  Each test
    function's time factors are evaluated once, over all record times.
    Returns (residuals, scale); each residual is nonnegative up to
    O(dx + eps) for admissible runs.  Extra memory is O(n_cells) per test
    function plus a few arrays of one block's size.
    """
    model, grid, cfg = traj.model, traj.grid, traj.cfg
    dx = grid.dx
    space = [phi.space_factors(grid.centers) for phi in phis]
    time = [phi.time_factors(traj.times) for phi in phis]
    vals = np.empty((len(phis), len(traj.times)))
    scale = 0.0
    for span, rho, mom, e_vals in _blocks(traj):
        rho = np.maximum(rho, model.rho_floor)
        src = source(cfg.source_variant, model, rho, mom, e_vals,
                     traj.profile.a_vals, cfg.tau)
        eta, q, eta_m = _mechanical_energy(model, rho, mom)
        src_eta = src * eta_m
        scale = max(scale, float(np.max(np.abs(eta))),
                    float(np.max(np.abs(q))), float(np.max(np.abs(src_eta))))
        for i, phi in enumerate(phis):
            g, dg = time[i]
            p, p_x, p_t = phi.combine(space[i],
                                      (g[span, None], dg[span, None]))
            vals[i, span] = dx * np.sum(eta * p_t + q * p_x + src_eta * p,
                                        axis=-1)
    return [float(np.trapezoid(v, traj.times)) for v in vals], scale


def entropy_spot_check(traj: Trajectory, seed: int):
    """Weak entropy inequality against `N_PHI` random test functions.

    Deterministic in the seed, so an offline re-audit reproduces the same
    residuals.  All test functions are drawn first and audited in one
    `entropy_sweep`.  Returns (results, checks), one `entropy` row per test
    function: its residual against the bound
    -(dx + eps + mean recording gap) * scale.  A run the entropy monitor
    does not judge (`_unjudged_reason`) gives two empty lists.
    """
    grid, times = traj.grid, traj.times
    results, checks = [], []
    if _unjudged_reason(traj, "entropy") is not None:
        return results, checks
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
        checks.append(Check("entropy", res, -tol, res >= -tol,
                            phi.t_center))
    return results, checks
