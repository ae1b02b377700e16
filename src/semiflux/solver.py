"""Viscous finite-volume solver for the offset-vacuum Euler-Poisson system.

State is (rho, m) on a uniform grid, evolved by

    rho_t + ((rho - 2*delta) u)_x            = eps * rho_xx
    m_t   + (rho u^2 - delta u^2 + P1)_x     = eps * m_xx + S(rho, m, E)

with S either rho*E - a(x) m / tau (full-density coupling) or the
excess-density variant (rho - 2*delta) (E - a(x) u / tau).  Fluxes use a
local Lax-Friedrichs interface dissipation with the exact characteristic
speeds, the artificial viscosity is a centered second difference, and the
stiff damping is applied pointwise through its exact exponential factor so
the update stays stable for tau much smaller than dt.  A step tests the
density floor once, pads (rho, m, fluxes, wave speed) in one ghost-cell call
and updates (rho, m) as one stacked array; only the source acts on m alone.
A recorded run keeps only (step, time, rho, m) per record, as stacked arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .field import solve_field
from .model import (ConfigurationError, DeviceProfile, GasModel, Grid1D,
                    HydroState)


class SourceVariant(enum.Enum):
    FULL_DENSITY = "full-density"       # rho*E - a*m/tau
    EXCESS_DENSITY = "excess-density"   # (rho-2*delta)*E - a*(rho-2*delta)*u/tau


def source(variant: SourceVariant, model: GasModel, rho, mom, e_vals, a_vals,
           tau: float):
    """Momentum source S(rho, m, E) of the chosen coupling variant."""
    if variant is SourceVariant.FULL_DENSITY:
        return rho * e_vals - a_vals * mom / tau
    ex = rho - model.rho_floor
    return ex * e_vals - a_vals * ex * (mom / rho) / tau


class IntegrationError(RuntimeError):
    """Non-finite values appeared; carries the last valid state."""

    def __init__(self, message: str, state: HydroState, time: float):
        super().__init__(message)
        self.state = state
        self.time = time


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-3
    tau: float = 1.0
    cfl: float = 0.45
    t_end: float = 1.0
    source_variant: SourceVariant = SourceVariant.FULL_DENSITY
    smoothing_width: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ConfigurationError("epsilon must be positive")
        if not self.tau > 0.0:
            raise ConfigurationError("tau must be positive")
        if not 0.0 < self.cfl <= 0.9:
            raise ConfigurationError("cfl must lie in (0, 0.9]")
        if self.t_end < 0.0:
            raise ConfigurationError("t_end must be non-negative")
        if self.smoothing_width < 0.0:
            raise ConfigurationError("smoothing_width must be non-negative")


@dataclass(frozen=True)
class StepReport:
    dt_used: float
    max_wave_speed: float
    post_step_min_rho: float


def gaussian_kernel(width: float, dx: float) -> np.ndarray:
    """Discrete Gaussian of standard deviation `width`, normalized to sum 1."""
    half = max(int(math.ceil(4.0 * width / dx)), 1)
    xs = np.arange(-half, half + 1) * dx
    k = np.exp(-0.5 * (xs / width) ** 2)
    return k / k.sum()


def prepare_initial(raw_rho, raw_u, model: GasModel, cfg: SolverConfig,
                    grid: Grid1D) -> HydroState:
    """Offset and mollify raw initial data.

    The raw density is the excess over vacuum (must be >= 0 and decay before
    the domain edges); both it and the velocity are smoothed with a discrete
    Gaussian, then the vacuum offset is added so the far field is exactly
    2*delta.  Zero smoothing width skips the convolution.
    """
    raw_rho = np.asarray(raw_rho, dtype=float)
    raw_u = np.asarray(raw_u, dtype=float)
    if raw_rho.shape != (grid.n_cells,) or raw_u.shape != (grid.n_cells,):
        raise ConfigurationError("raw initial data must match the grid")
    if np.any(raw_rho < 0.0):
        raise ConfigurationError("raw excess density must be non-negative")
    if cfg.smoothing_width > 0.0:
        k = gaussian_kernel(cfg.smoothing_width, grid.dx)
        sm_rho = np.convolve(raw_rho, k, mode="same")
        sm_u = np.convolve(raw_u, k, mode="same")
    else:
        sm_rho, sm_u = raw_rho, raw_u
    rho = sm_rho + model.rho_floor
    return HydroState(rho=rho, mom=rho * sm_u, time=0.0)


def flux(model: GasModel, rho, mom, u=None):
    """Physical flux ((rho-2d) u, m u - delta u^2 + P1) of admissible float
    arrays (P1 is read unchecked); `u` is m/rho when the caller has it."""
    if u is None:
        u = mom / rho
    f1 = (rho - model.rho_floor) * u
    f2 = mom * u - model.delta * u * u + model._p1(rho)
    return f1, f2


def step(state: HydroState, profile: DeviceProfile, model: GasModel,
         cfg: SolverConfig, grid: Grid1D, t_stop: float | None = None):
    """One explicit flux/viscosity update followed by the exact damping decay.

    Returns (new_state, StepReport).  The step is the stable one unless it
    would pass t_stop; then it ends on t_stop exactly, so output instants are
    hit without rounding drift.
    """
    rho, mom = state.rho, state.mom
    dx = grid.dx

    if float(np.min(rho)) < model.admissible_floor:
        raise IntegrationError("density fell below the vacuum offset",
                               state, state.time)
    # cellwise largest characteristic speed |u| + ((rho-2d)/rho) sqrt(P') and
    # the stable step cfl / (max|lambda|/dx + 2 eps/dx^2): one budget shared
    # by advection and viscosity, so the explicit update stays a convex
    # combination
    u = mom / rho
    excess = rho - model.rho_floor
    speed = np.abs(u) + excess / rho * np.sqrt(model._dp(rho))
    max_speed = float(np.max(speed))
    dt = cfg.cfl / (max_speed / dx + 2.0 * cfg.epsilon / dx ** 2)
    t_new = state.time + dt
    if t_stop is not None and dt >= t_stop - state.time:
        dt = t_stop - state.time
        t_new = t_stop

    # ghost cells copy interior cells, so their fluxes are copies too
    f1, f2 = flux(model, rho, mom, u)
    ext = grid.extend(np.stack((rho, mom, f1, f2, speed)))
    q_e, f_e, speed_e = ext[:2], ext[2:4], ext[4]
    q = ext[:2, 1:-1]

    alpha = np.maximum(speed_e[:-1], speed_e[1:])
    face = 0.5 * (f_e[:, :-1] + f_e[:, 1:]) \
        - 0.5 * alpha * (q_e[:, 1:] - q_e[:, :-1])
    visc = cfg.epsilon * (q_e[:, 2:] - 2.0 * q + q_e[:, :-2]) / dx ** 2
    q_new = q - (dt / dx) * (face[:, 1:] - face[:, :-1]) + dt * visc
    rho_new, mom_star = q_new

    # explicit field force, then the damping through its exact decay factor
    e_vals = solve_field(excess, profile, grid)
    if cfg.source_variant is SourceVariant.FULL_DENSITY:
        mom_star += dt * rho * e_vals
        rate = profile.a_vals / cfg.tau
    else:
        mom_star += dt * excess * e_vals
        rate = profile.a_vals * (rho_new - model.rho_floor) / rho_new / cfg.tau
    mom_star *= np.exp(-rate * dt)

    if not np.all(np.isfinite(q_new)):
        raise IntegrationError("non-finite state", state, state.time)

    report = StepReport(dt_used=dt, max_wave_speed=max_speed,
                        post_step_min_rho=float(np.min(rho_new)))
    return HydroState(rho=rho_new, mom=mom_star, time=t_new), report


@dataclass
class Trajectory:
    """Recorded history of one run: the step index, time and conserved
    variables (rho, m) of each record, stacked over records (`rho` and `mom`
    are (k, n_cells)), plus step-level diagnostics.  The field is derived
    data; the monitors solve it from `rho` when they need it."""

    grid: Grid1D
    model: GasModel
    steps: np.ndarray
    times: np.ndarray
    rho: np.ndarray
    mom: np.ndarray
    dts: list = field(default_factory=list)
    n_steps: int = 0
    min_rho_ever: float = math.inf
    completed: bool = True
    failure_time: float | None = None


def run(initial: HydroState, profile: DeviceProfile, model: GasModel,
        cfg: SolverConfig, grid: Grid1D, record_every: int = 50,
        record_times=None, max_steps: int = 10 ** 7,
        raise_on_failure: bool = False) -> Trajectory:
    """March to cfg.t_end, recording every `record_every` steps or exactly at
    the sorted instants `record_times` (the step is clamped to land on them).
    The initial and final states are always recorded; a march stopped early,
    by a failed step or by `max_steps`, is marked incomplete.  The records
    are stacked once, into the returned Trajectory's arrays.
    """
    if record_every < 1:
        raise ConfigurationError("record_every must be >= 1")
    rec_times = None
    if record_times is not None:
        rec_times = [float(t) for t in record_times if 0.0 < t <= cfg.t_end]
        if sorted(rec_times) != rec_times:
            raise ConfigurationError("record_times must be sorted")

    state = initial
    # (step, time, rho, m) per record; each step returns fresh arrays, so
    # rows are kept without a copy and stacked once at the end
    records = [(0, state.time, state.rho, state.mom)]
    dts = []
    min_rho_ever = float(np.min(state.rho))
    completed, failure_time = True, None

    tiny = 1e-12 * max(cfg.t_end, 1.0)
    next_rec = 0
    k = 0
    while state.time < cfg.t_end - tiny and k < max_steps:
        targets = [cfg.t_end]
        if rec_times is not None and next_rec < len(rec_times):
            targets.append(rec_times[next_rec])
        target = min(t for t in targets if t > state.time + tiny)
        try:
            state, rep = step(state, profile, model, cfg, grid, t_stop=target)
        except IntegrationError as err:
            completed, failure_time = False, err.time
            if raise_on_failure:
                raise
            break
        k += 1
        dts.append(rep.dt_used)
        min_rho_ever = min(min_rho_ever, rep.post_step_min_rho)

        if rec_times is None:
            due = k % record_every == 0
        else:
            due = (next_rec < len(rec_times)
                   and state.time >= rec_times[next_rec] - tiny)
            next_rec += int(due)
        if due or state.time >= cfg.t_end - tiny:
            records.append((k, state.time, state.rho, state.mom))
    if completed and state.time < cfg.t_end - tiny:  # max_steps hit
        completed, failure_time = False, state.time
    steps, times, rhos, moms = zip(*records)
    return Trajectory(grid=grid, model=model, steps=np.array(steps),
                      times=np.array(times), rho=np.stack(rhos),
                      mom=np.stack(moms), dts=dts, n_steps=k,
                      min_rho_ever=min_rho_ever, completed=completed,
                      failure_time=failure_time)
