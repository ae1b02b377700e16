"""Relaxation scaling and the drift-diffusion comparison solver.

In the slow time s = tau * t with J = m / tau, the damped system formally
limits onto

    N_s + J_x = 0,     a(x) J = N Upsilon - P(N)_x,     Upsilon_x = N - b,

as tau -> 0 with delta = tau and eps shrinking like o(sqrt(P'(2*delta)) tau).
This module integrates the limit system (vacuum offset set to zero) with a
conservative, linearly implicit midpoint scheme: two tridiagonal solves per
step, each by a numpy-only Thomas sweep (Sherman-Morrison on a periodic
grid), so the step is bounded by the drift alone, not by dx^2.  It also
drives the tau-ladder study on a scenario's RunSetup, the same one `solve`
and `picard` build: each rung is that scenario built again by `make_setup`
with the rung's keys (delta and the solver coefficients) over its
parameters, and the reference starts from the first rung's excess density.
The rungs march through `solver.march_rungs`, the one rung loop that the
Picard cross-check shares, which checks that each reaches its end and
records exactly its instants and restricts it by exact cell averages (the
identity here, where every rung is on the study's grid).  The
reference and every hydro run take their record instants, slack and end
from one rule, a `solver.RecordClock`, so each run records exactly at
t = s/tau where the reference records s, and the late records are chosen
with the same slack.  The run's stacked records are
read as N = rho and J = m/tau, and the L1 gap to the reference is reported
twice, on N (l1_error) and on N - 2 delta (l1_net, free of the vacuum
offset the reference lacks).  Like a hydro Trajectory, the reference keeps
only its density, stacked over records; its field Upsilon is derived data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import RELAX_KEYS, SCENARIO_KEYS
from .field import solve_field
from .model import (Boundary, ConfigurationError, DeviceProfile, GasModel,
                    Grid1D, PressureConvention)
from .monitors import Check
from .scenarios import RunSetup, make_setup
from . import solver
from .solver import RecordClock, SourceVariant, march_rungs


# --- drift-diffusion limit solver ------------------------------------------

class PositivityError(RuntimeError):
    pass


def _dd_faces(n_vals, n_lin, upsilon, profile: DeviceProfile,
              model: GasModel, grid: Grid1D):
    """One pass over the n_cells+1 faces of a J = N Upsilon - P(N)_x
    (centered averages, pressure gradient split onto faces).  Returns the
    residual N_s = -J_x at `n_vals` and the derivatives of each face flux
    with respect to the density of the cell on its left and on its right,
    Upsilon frozen and P' taken at `n_lin`."""
    n_e, lin_e, up_e, a_e = grid.extend(
        np.stack((n_vals, n_lin, upsilon, profile.a_vals), dtype=float))
    drift_e = n_e * up_e
    p_e = model.pressure(n_e)
    drift_face = 0.5 * (drift_e[:-1] + drift_e[1:])
    grad_face = (p_e[1:] - p_e[:-1]) / grid.dx
    a_face = 0.5 * (a_e[:-1] + a_e[1:])
    j_face = (drift_face - grad_face) / a_face
    dp_e = model.dpressure(lin_e)
    left = (0.5 * up_e[:-1] + dp_e[:-1] / grid.dx) / a_face
    right = (0.5 * up_e[1:] - dp_e[1:] / grid.dx) / a_face
    return (j_face[:-1] - j_face[1:]) / grid.dx, left, right


def _thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonal rows
    `lower`, `diag`, `upper` (lower[0] and upper[-1] unused) by one forward
    and one backward sweep."""
    lo, up, r = lower.tolist(), upper.tolist(), rhs.tolist()
    c_prime = [0.0] * len(r)
    x = list(r)
    prev_c, prev_x = 0.0, 0.0
    for i, d in enumerate(diag.tolist()):
        denom = d - lo[i] * prev_c
        prev_c = c_prime[i] = up[i] / denom
        prev_x = x[i] = (r[i] - lo[i] * prev_x) / denom
    for i in range(len(r) - 2, -1, -1):
        prev_x = x[i] = x[i] - c_prime[i] * prev_x
    return np.array(x)


def _dd_increment(faces, grid: Grid1D, half_dt: float) -> np.ndarray:
    """The increment d of one linearised backward-Euler step,
    (I - half_dt * A) d = half_dt * residual, from the (residual, left,
    right) triple of `_dd_faces`: A is the Jacobian of the flux divergence
    its slopes give.  Outflow ghosts copy the edge cell; a periodic system
    is cyclic and is solved by Sherman-Morrison."""
    residual, left, right = faces
    r = half_dt / grid.dx
    lower = -r * left[:-1]
    upper = r * right[1:]
    diag = 1.0 + r * (left[1:] - right[:-1])
    rhs = half_dt * residual
    if grid.boundary is Boundary.OUTFLOW:
        diag[0] += lower[0]
        diag[-1] += upper[-1]
        return _thomas(lower, diag, upper, rhs)
    # periodic: lower[0] couples cell 0 to cell n-1, upper[-1] the reverse
    # A = T + u v^T with u = (shift, 0, .., corner_up) and
    # v = (1, 0, .., corner_lo / shift): solve T y = rhs and T z = u
    corner_lo, corner_up = lower[0], upper[-1]
    shift = -diag[0]
    diag[0] -= shift
    diag[-1] -= corner_up * corner_lo / shift
    y = _thomas(lower, diag, upper, rhs)
    u = np.zeros_like(rhs)
    u[0], u[-1] = shift, corner_up
    z = _thomas(lower, diag, upper, u)
    ratio = corner_lo / shift
    return y - (y[0] + ratio * y[-1]) / (1.0 + z[0] + ratio * z[-1]) * z


def dd_stable_dt(upsilon, profile: DeviceProfile, grid: Grid1D,
                 cfl: float) -> float:
    """The drift limit cfl * dx * min a / max |Upsilon|; inf where the field
    vanishes.  The implicit diffusion sets no limit."""
    drift = float(np.max(np.abs(upsilon)))
    if drift == 0.0:
        return math.inf
    return cfl * grid.dx * float(np.min(profile.a_vals)) / drift


def drift_diffusion_step(n_vals, upsilon, profile: DeviceProfile,
                         model: GasModel, grid: Grid1D, dt_s: float):
    """Linearly implicit midpoint step from N with its field Upsilon.

    A linearised backward-Euler half step with the coefficients at N gives
    N*; a second half step from N, with Upsilon and P' at N*, gives the
    midpoint M, and the new density is 2 M - N = N + 2 (M - N).  Both half
    steps are in increment form, so a state with zero residual does not
    move.  Halves dt when N* or the new density goes negative and gives up
    after 40 halvings; the first half step's faces do not depend on dt and
    are built once.  Returns (n_new, upsilon_new, dt_used, halvings)."""
    first = _dd_faces(n_vals, n_vals, upsilon, profile, model, grid)
    dt = dt_s
    for halvings in range(41):
        half = 0.5 * dt
        n_star = n_vals + _dd_increment(first, grid, half)
        if np.all(n_star >= 0.0):
            ups_star = solve_field(n_star, profile, grid)
            second = _dd_faces(n_vals, n_star, ups_star, profile, model, grid)
            n_new = n_vals + 2.0 * _dd_increment(second, grid, half)
            if np.all(n_new >= 0.0):
                return (n_new, solve_field(n_new, profile, grid), dt,
                        halvings)
        dt = half
    raise PositivityError(
        "drift-diffusion density stayed negative after 40 dt halvings")


@dataclass
class DDTrajectory:
    """Recorded slow times (k,) and densities N (k, n_cells); no field.
    `n_steps` counts the steps taken, `halvings` the dt halvings that
    positivity forced along the way."""
    s_values: np.ndarray
    n_vals: np.ndarray
    n_steps: int
    halvings: int


def drift_diffusion_run(n0, profile: DeviceProfile, model: GasModel,
                        grid: Grid1D, s_end: float, record_times=None,
                        cfl: float = 0.45) -> DDTrajectory:
    """March N from s = 0 to s_end, recording s = 0, s_end and, as `run`
    does, the instants of the `RecordClock` of `record_times`.  Raises
    PositivityError, naming the s reached, if a step cannot keep N >= 0,
    and RuntimeError if `solver.MAX_STEPS`, the cap of every march, stops
    it short of s_end.  The field is `solve_field`'s: on a periodic grid it
    is periodic only at zero net charge, which `scenarios.make_setup`
    demands of every device it builds."""
    n0 = np.asarray(n0, dtype=float)
    if np.any(n0 < 0.0):
        raise ValueError("initial density must be non-negative")
    n_vals, upsilon, s = n0.copy(), solve_field(n0, profile, grid), 0.0
    clock = RecordClock(s_end, record_times)
    s_out, n_out = [0.0], [n_vals]
    k = halvings = 0
    while not clock.at_end(s) and k < solver.MAX_STEPS:
        target = clock.target()
        dt = dd_stable_dt(upsilon, profile, grid, cfl)
        gap = target - s
        try:
            n_vals, upsilon, dt_used, halved = drift_diffusion_step(
                n_vals, upsilon, profile, model, grid, min(dt, gap))
        except PositivityError as err:
            raise PositivityError("the drift-diffusion reference cannot "
                                  f"march this device: {err} at s = {s!r}"
                                  ) from None
        s = target if dt_used >= gap - clock.slack else s + dt_used
        k += 1
        halvings += halved
        if clock.due(s) or clock.at_end(s):
            s_out.append(s)
            n_out.append(n_vals)
    if not clock.at_end(s):
        raise RuntimeError(
            f"drift-diffusion reference stopped by solver.MAX_STEPS = "
            f"{solver.MAX_STEPS} at s = {s!r}, before s_end = {s_end!r}")
    return DDTrajectory(s_values=np.array(s_out), n_vals=np.array(n_out),
                        n_steps=k, halvings=halvings)


# --- the tau-ladder study ----------------------------------------------------

@dataclass(frozen=True)
class CouplingRule:
    """eps and delta as functions of tau.  Defaults keep the viscosity well
    inside the o(sqrt(P'(2 delta)) tau) regime; eps_fixed breaks the coupling
    on purpose for the expected-failure fixture."""

    eps_coeff: float = 0.1
    eps_power: float = 2.0
    eps_fixed: float | None = None
    delta_coeff: float = 1.0

    def delta(self, tau: float) -> float:
        return self.delta_coeff * tau

    def epsilon(self, tau: float, gamma: float,
                convention: PressureConvention) -> float:
        if self.eps_fixed is not None:
            return self.eps_fixed
        d = self.delta(tau)
        model = GasModel(gamma=gamma, delta=d, convention=convention)
        return self.eps_coeff * math.sqrt(model.dpressure(2.0 * d)) \
            * tau ** self.eps_power


@dataclass
class StudyRow:
    tau: float
    epsilon: float
    delta: float
    l1_error: float
    dissipation: float
    l1_net: float


@dataclass
class StudyResult:
    rows: list
    monotone: Check  # the largest successive change of l1_error, below 0
    reference: DDTrajectory
    manifest: dict = field(default_factory=dict)


def validate_tau_ladder(tau_list) -> list:
    try:
        taus = [float(t) for t in tau_list]
    except ValueError as err:
        raise ConfigurationError(f"tau ladder: {err}") from None
    if len(taus) < 3:
        raise ConfigurationError("tau ladder needs at least 3 entries")
    if not all(0.0 < t < math.inf for t in taus):
        raise ConfigurationError("each tau must be positive and finite")
    for a, b in zip(taus, taus[1:]):
        if not math.isclose(b, 0.5 * a, rel_tol=1e-9):
            raise ConfigurationError("each tau must halve the previous one")
    return taus


def scaled_l1_gap(s_values, n_vals, n_ref, dx: float) -> float:
    """L1 norm of N - N_ref: cell sums in space, trapezoid in s over the
    rows given."""
    per_s = dx * np.sum(np.abs(n_vals - n_ref), axis=1)
    return float(np.trapezoid(per_s, s_values))


def dissipation_integral(s_values, n_vals, j_vals, rho_floor: float,
                         dx: float) -> float:
    """int_0^L int (N - 2*delta) (J/N)^2 dx ds over (k, n_cells) arrays of
    N and J recorded at the k slow times `s_values`."""
    per_s = dx * np.sum((n_vals - rho_floor) * (j_vals / n_vals) ** 2, axis=1)
    return float(np.trapezoid(per_s, s_values))


def relaxation_study(setup: RunSetup, tau_list,
                     coupling: CouplingRule = CouplingRule(),
                     horizon: float = 0.25, window_lo: float | None = None,
                     window_hi: float | None = None, n_s_records: int = 21,
                     s0_frac: float = 0.05) -> StudyResult:
    """Run the hydro solver along the tau ladder on `setup`'s scenario, each
    rung rebuilt by `make_setup` with its delta, eps, tau and the
    excess-density source over the scenario's parameters and marched by
    `solver.march_rungs` to t = s/tau on the study's grid, read each run's
    rows as N = rho and J = m/tau, and compare with one drift-diffusion
    reference on the same grid from the first rung's excess density, over
    the cell centres in [window_lo, window_hi] (both or neither, the whole
    grid).  A device whose reference cannot keep N >= 0 raises the
    reference's PositivityError, and a rung that stops early
    `march_rungs`' IntegrationError, each naming where it stopped, the
    rung by its tau."""
    grid, profile = setup.grid, setup.profile
    gamma, convention = setup.model.gamma, setup.model.convention
    taus = validate_tau_ladder(tau_list)
    if not horizon > 0.0 or n_s_records < 2:
        raise ConfigurationError("need horizon > 0 and n_s_records >= 2")
    if (window_lo is None) != (window_hi is None):
        raise ConfigurationError(
            "window_lo and window_hi must be given together")
    if window_lo is None:
        window_lo, window_hi = grid.x_min, grid.x_max
    s_records = np.linspace(0.0, horizon, n_s_records)
    late = s_records >= s0_frac * horizon - RecordClock(horizon).slack
    cols = (grid.centers >= window_lo) & (grid.centers <= window_hi)
    if np.count_nonzero(late) < 2:
        raise ConfigurationError(
            f"s0_frac = {s0_frac!r} leaves fewer than two s records")
    if not cols.any():
        raise ConfigurationError(
            f"window [{window_lo!r}, {window_hi!r}] holds no cell centre")

    # each rung: the scenario, its keys over it; the reference starts from
    # rung 0's excess density
    name, params = setup.scenario.name, setup.scenario.params
    rungs = [make_setup(name, {
        **params, "delta": coupling.delta(tau),
        "epsilon": coupling.epsilon(tau, gamma, convention), "tau": tau,
        "source_variant": SourceVariant.EXCESS_DENSITY}) for tau in taus]
    first = rungs[0]
    reference = drift_diffusion_run(
        first.initial.rho - first.model.rho_floor, profile, first.model, grid,
        s_end=horizon, record_times=s_records[1:], cfl=setup.cfg.cfl)
    if not np.array_equal(reference.s_values, s_records):
        raise RuntimeError("reference recording misaligned with the s ladder")
    n_ref = reference.n_vals[late][:, cols]

    trajs = march_rungs([(rung, rung.initial, s_records[1:] / rung.cfg.tau)
                         for rung in rungs], grid,
                        [f"the tau = {tau!r} rung" for tau in taus])
    rows = []
    for rung, traj in zip(rungs, trajs):
        tau, floor = rung.cfg.tau, rung.model.rho_floor
        n_win = traj.rho[late][:, cols]
        rows.append(StudyRow(
            tau=tau, epsilon=rung.cfg.epsilon, delta=rung.model.delta,
            l1_error=scaled_l1_gap(s_records[late], n_win, n_ref, grid.dx),
            dissipation=dissipation_integral(s_records, traj.rho,
                                             traj.mom / tau, floor, grid.dx),
            l1_net=scaled_l1_gap(s_records[late], n_win - floor, n_ref,
                                 grid.dx)))

    # strictly decreasing: the largest successive change is negative (a
    # nan error fails)
    rise = float(np.max(np.diff([r.l1_error for r in rows])))
    monotone = Check("monotone", rise, 0.0, rise < 0.0)
    manifest = {
        # every scenario key relax reads; the ladder sets delta, epsilon,
        # tau and t_end per rung (relax_table.csv holds them), the source
        **{k: params[k] for k in RELAX_KEYS if k in SCENARIO_KEYS},
        # and every study setting, each under its config key
        **asdict(coupling),
        "scenario": setup.scenario.name, "tau_list": taus,
        "horizon": horizon, "window_lo": window_lo, "window_hi": window_hi,
        "s0_frac": s0_frac, "n_s_records": n_s_records,
    }
    return StudyResult(rows=rows, monotone=monotone, reference=reference,
                       manifest=manifest)
