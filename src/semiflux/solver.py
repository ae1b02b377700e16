"""Viscous finite-volume solver for the offset-vacuum Euler-Poisson system.

State is (rho, m) on a uniform grid, evolved by

    rho_t + ((rho - 2*delta) u)_x            = eps * rho_xx
    m_t   + (rho u^2 - delta u^2 + P1)_x     = eps * m_xx + S(rho, m, E)

with S either rho*E - a(x) m / tau (full-density coupling) or the
excess-density variant (rho - 2*delta) (E - a(x) u / tau).  The scheme is
a viscosity-flux approximation: the artificial viscosity eps q_xx is a flux
too, so each face carries one viscous face flux

    G = (f_l + f_r) - (alpha + 2 eps/dx) (q_r - q_l),

the local Lax-Friedrichs (Rusanov) flux, with alpha the larger exact
characteristic speed of the two cells, plus eps's conservative face
term, and a cell moves by (0.5 dt/dx) (G_{i+1/2} - G_{i-1/2}).  The face
viscosity is 0.5 dx alpha + eps: the scheme's own share next to the eps
it names.  The stiff damping is applied pointwise through its exact
exponential factor so the update stays stable for tau much smaller than
dt.

The march state is resident in one workspace: two padded (2, n+2) blocks of
(rho, m), one ghost cell per side, each with a HydroState over its interior
rows built once.  A step reads the current block and writes the new (rho,
m) into the idle one, then flips them and returns the idle block's state,
its time set, allocating no array and copying no state.  A returned state
is therefore overwritten by the step after next, and `run` copies a state
out only where it records one.  The step that writes a state also computes
what the next step starts from: its lowest density, for the floor test, and
its excess rho - 2d, velocity u, cellwise wave speed and that speed's
maximum, in workspace rows that record which block they describe.  So a
step on the resident state starts at dt; an input that is not the resident
state is copied into the current block and reduced and described afresh,
and after a step that raised, the state it was given is described again.
The finiteness test reads the new state's maximum wave speed, which a NaN
or an infinity in rho or m makes non-finite.  Only then does the step look
at the state itself: a finite state below zero density or whose P' or u
overflows has a non-finite speed too, and is passed on, as before, to the
next step's floor test or its zero-length step, which refuse it.  The
fluxes (f1, f2) and the wave speed (twice) take four more padded rows of
the same array, whose ghost cells one `Grid1D.fill_ghosts` call sets.  Each
pair of rows is one flat run of 2(n+2) values, so every face, jump and
update operation is one ufunc call over a contiguous run; the two seam
cells where the rows of a pair meet are computed too and read by no
interior cell.  The wave speeds, the fluxes with P1 and the field are
written into workspace rows through the `out=` paths of `GasModel`, `flux`
and `solve_field`.  Every scalar a step hands to numpy is a 0-d float64
array (the gas law's on `GasModel`, dx on `Grid1D`, e_minus on
`DeviceProfile`, the run's in the workspace, dt and 0.5 dt/dx in two 0-d
buffers), since a step on a few hundred cells is mostly per-call overhead
and numpy takes a 0-d operand faster than a Python float, with the same
bits.  On march-sparse's path (gamma = 2, plain pressure, full-density
source) a step makes 53 numpy calls, counting each ufunc call (in-place
operators included), reduction, accumulation, `copyto`, ghost-cell
assignment and 0-d buffer fill; on the excess-density path one fewer again,
since its damping rate reads the new state's excess.  A step that raises
has written only the idle block and the rows, which it leaves marked stale,
so the state it was given stays valid.  A run records every `cadence` steps
or at given instants; one `RecordClock` holds the instants, the slack of
every time comparison and the end test, for the drift-diffusion reference
too.  A recorded run keeps only (step, time, rho, m, lowest rho since the
last record) per record, as stacked arrays, plus every dt and what limited
each step, and the device and SolverConfig it was marched with.  Marches
that are compared with each other (the tau-ladder, the convergence tests)
or with the Picard slab go through `march_rungs`, the one rung loop, which
restricts each to a common grid by exact cell averages, for the Picard
cross-check the Picard grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .field import solve_field
from .model import (ConfigurationError, DeviceProfile, GasModel, Grid1D,
                    HydroState, _const)


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
    """A step met a state below the density floor or made a non-finite
    one; `run` stops there, its last record the last valid state."""


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


# what bounded a step: the advective or the viscous term of the stable-step
# budget, or a record time or t_end that cut the step short
LIMITS = ("advection", "viscosity", "clamp")
MAX_STEPS = 10 ** 7  # most steps one `run` takes; a cut run is incomplete


@dataclass(frozen=True)
class StepReport:
    dt_used: float
    post_step_min_rho: float
    limit: str


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
    2*delta.  Zero smoothing width skips the convolution.  The smoothed
    values are the centred window of the full convolution, so a kernel wider
    than the grid still gives one value per cell.
    """
    raw_rho = np.asarray(raw_rho, dtype=float)
    raw_u = np.asarray(raw_u, dtype=float)
    if raw_rho.shape != (grid.n_cells,) or raw_u.shape != (grid.n_cells,):
        raise ConfigurationError("raw initial data must match the grid")
    if np.any(raw_rho < 0.0):
        raise ConfigurationError("raw excess density must be non-negative")
    if cfg.smoothing_width > 0.0:
        k = gaussian_kernel(cfg.smoothing_width, grid.dx)
        h, n = (len(k) - 1) // 2, grid.n_cells
        sm_rho = np.convolve(raw_rho, k, mode="full")[h:h + n]
        sm_u = np.convolve(raw_u, k, mode="full")[h:h + n]
    else:
        sm_rho, sm_u = raw_rho, raw_u
    rho = sm_rho + model.rho_floor
    return HydroState(rho=rho, mom=rho * sm_u, time=0.0)


def flux(model: GasModel, rho, mom, u=None, excess=None, out=None,
         tmp=None):
    """Physical flux ((rho-2d) u, m u - delta u^2 + P1) of admissible float
    arrays (P1 is read unchecked), the second component formed from the
    first as ((rho-2d) u + delta u) u + P1; `u` and `excess` are m/rho and
    rho - 2d when the caller has them, `out` a pair of arrays to write the
    two components into and `tmp` a scratch array of their shape."""
    if u is None:
        u = mom / rho
    f1, f2 = (None, None) if out is None else out
    f2 = model._p1(rho, out=f2, tmp=tmp)
    f1 = np.multiply(rho - model.rho_floor if excess is None else excess, u,
                     out=f1)
    s = np.multiply(u, model._d, out=tmp)
    s += f1
    s *= u
    f2 += s
    return f1, f2


class _Block:
    """One padded (2, n+2) state block of a workspace: rows rho and m, one
    ghost cell per side.  `rho`/`mom` are its interior rows and `state` the
    HydroState over them, built once; `q` and its face sides
    `q_left`/`q_right` are cut from the block read flat as one run of
    2(n+2) values, like the flux and speed runs of `_Workspace`.  `low` is
    the lowest density of the state the block holds, set where the block
    is written; its u, excess and wave speed are kept in the workspace's
    rows, which say which block they describe."""

    def __init__(self, pad: np.ndarray):
        self.rho, self.mom = pad[:, 1:-1]
        self.state = HydroState(rho=self.rho, mom=self.mom)
        q = pad.reshape(-1)
        self.q = q[1:-1]
        self.q_left, self.q_right = q[:-1], q[1:]
        self.low = math.nan


class _Workspace:
    """The resident march state, buffers and per-run constants of `step` on
    one grid.

    `pad` holds eight rows of n + 2 cells, one ghost cell per side: two
    state blocks of (rho, m), then f1, f2 and the wave speed twice.
    `blocks` is (current, idle): a step reads the current block and writes
    the idle one, then swaps them, so the state it returns lives until the
    step after next writes its block again.  Read flat, each pair of rows
    is one contiguous run of 2(n+2) values, and the face, jump and update
    arithmetic runs once over each run, on the views cut below and in
    `_Block`: `q` the cells between the run's two ends and
    `*_left`/`*_right` the two sides of each of the run's 2n+3 faces.
    Where the rows meet, the first row's right ghost and the second row's
    left ghost are neighbours: the face between them (the seam
    face) and the update of those two seam cells are computed like any
    other and read by no interior cell.  The remaining rows (u, the excess,
    the field and a scratch row) are n cells long.  The rows u, the excess
    and the first wave-speed row, with `peak` the speed's maximum, describe
    the state of the block `described`, None while they are being rewritten
    or after a new input: the step that writes a block's state computes
    them for the next step.  The per-run constants are read-only: eps's
    face coefficient 2 eps/dx and tau as 0-d arrays, the damping rate
    -a/tau as a row; `dt` and `half_dt_dx` (0.5 dt/dx) are 0-d buffers each
    step fills, so every scalar a step hands to numpy is a 0-d array.
    """

    def __init__(self, profile: DeviceProfile, cfg: SolverConfig,
                 grid: Grid1D):
        n, dx = grid.n_cells, grid.dx
        self.pad = pad = np.empty((8, n + 2))
        self.blocks = (_Block(pad[0:2]), _Block(pad[2:4]))
        self.f1, self.f2, self.speed, self.speed_copy = pad[4:, 1:-1]
        f, s = (pad[r:r + 2].reshape(-1) for r in (4, 6))
        self.f_left, self.f_right = f[:-1], f[1:]
        self.s_left, self.s_right = s[:-1], s[1:]

        self.alpha, self.face, self.jump = np.empty((3, 2 * n + 3))
        self.face_lo, self.face_hi = self.face[:-1], self.face[1:]
        self.u, self.excess, self.e, self.tmp = np.empty((4, n))
        self.peak, self.described = math.nan, None
        self.dt, self.half_dt_dx = np.empty(()), np.empty(())

        self.dx = dx
        self.visc_rate = 2.0 * cfg.epsilon / dx ** 2
        self.two_eps_dx = _const(2.0 * cfg.epsilon / dx)
        self.tau = _const(cfg.tau)
        self.neg_rate = -(profile.a_vals / cfg.tau)   # full-density damping
        self.neg_rate.flags.writeable = False


def _wave_speeds(w: _Workspace, model: GasModel, rho, mom) -> float:
    """Write u = m/rho and the cellwise largest characteristic speed
    |u| + ((rho-2d)/rho) sqrt(P') of (rho, m) into `w.u` and `w.speed`,
    the excess rho - 2d read from `w.excess`; return the speed's maximum,
    NaN if some cell's is."""
    u = np.divide(mom, rho, out=w.u)
    speed = model._spread(rho, w.excess, out=w.speed, tmp=w.tmp)
    speed += np.abs(u, out=w.tmp)
    return float(np.maximum.reduce(speed))


def step(state: HydroState, profile: DeviceProfile, model: GasModel,
         cfg: SolverConfig, grid: Grid1D, t_stop: float | None = None, *,
         _work: _Workspace | None = None):
    """One explicit viscous-flux update followed by the exact damping decay.

    Returns (new_state, StepReport).  The step is the stable one unless it
    would pass t_stop; then it ends on t_stop exactly, so output instants are
    hit without rounding drift; a t_stop not after the state's time is a
    ConfigurationError.  `_work` is the workspace `run` reuses from step to
    step; a step called alone builds its own, so it never writes into the
    caller's arrays.  The new state is the workspace's idle block, returned
    as its one HydroState: the step after next overwrites it, arrays and
    time.  Given the state the last step returned, the step reads it in
    place; any other input is first copied into the current block, over
    that state.  A step that raises has written only the idle block and
    the workspace rows, which it leaves marked stale, so the state it was
    given stays valid and a step called on it again recomputes them.
    """
    if t_stop is not None and not t_stop > state.time:
        raise ConfigurationError(
            f"t_stop {t_stop!r} is not after the state's time {state.time!r}")
    w = _work if _work is not None else _Workspace(profile, cfg, grid)
    cur, new = w.blocks
    rho, mom = cur.rho, cur.mom
    if state is not cur.state:
        np.copyto(rho, state.rho)
        np.copyto(mom, state.mom)
        cur.low = float(np.minimum.reduce(rho))
        w.described = None
    if cur.low < model.admissible_floor:
        raise IntegrationError("density fell below the vacuum offset")
    # the state's excess, u and cellwise largest characteristic speed, which
    # the step that wrote it computed unless the rows describe another
    # block, and the stable step cfl / (max|lambda|/dx + 2 eps/dx^2): one
    # budget shared by advection and viscosity, so the explicit update
    # stays a convex combination
    u, excess, speed = w.u, w.excess, w.speed
    if w.described is not cur:
        np.subtract(rho, model._d2, out=excess)
        w.peak = _wave_speeds(w, model, rho, mom)
        w.described = cur
    adv_rate = w.peak / w.dx
    dt = cfg.cfl / (adv_rate + w.visc_rate)
    limit = "advection" if adv_rate >= w.visc_rate else "viscosity"
    t_new = state.time + dt
    if t_stop is not None and dt >= t_stop - state.time:
        dt = t_stop - state.time
        t_new = t_stop
        limit = "clamp"
    w.dt[()], w.half_dt_dx[()] = dt, 0.5 * dt / w.dx

    np.copyto(w.speed_copy, speed)
    flux(model, rho, mom, u, excess, out=(w.f1, w.f2), tmp=w.tmp)
    # ghost cells copy interior cells, so their fluxes are copies too
    grid.fill_ghosts(w.pad)

    # the viscous face flux G = (f_l + f_r) - (alpha + 2 eps/dx) (q_r - q_l):
    # Rusanov's dissipation and eps's second difference as one face
    # coefficient, the factor 0.5 of both moved into 0.5 dt/dx.  Each
    # in-place sequence below makes its formula's operations in the
    # formula's order (+ and * commute exactly), so the bits are the
    # formula's at every face
    alpha = np.maximum(w.s_left, w.s_right, out=w.alpha)
    alpha += w.two_eps_dx
    face = np.add(w.f_left, w.f_right, out=w.face)
    jump = np.subtract(cur.q_right, cur.q_left, out=w.jump)
    jump *= alpha
    face -= jump
    # q - (0.5 dt/dx) (G_{i+1/2} - G_{i-1/2}), into the idle block's cells
    q_new = np.subtract(w.face_hi, w.face_lo, out=new.q)
    q_new *= w.half_dt_dx
    np.subtract(cur.q, q_new, out=q_new)
    rho_new, mom_star = new.rho, new.mom

    # explicit field force, then the damping through its exact decay factor
    # exp((-rate) dt)
    e_vals = solve_field(excess, profile, grid, out=w.e, tmp=w.tmp)
    tmp = w.tmp
    # from here the rows are rewritten for the new state
    w.described = None
    if cfg.source_variant is SourceVariant.FULL_DENSITY:
        np.multiply(rho, w.dt, out=tmp)
        tmp *= e_vals
        mom_star += tmp
        np.multiply(w.neg_rate, w.dt, out=tmp)
        np.subtract(rho_new, model._d2, out=excess)
    else:
        np.multiply(excess, w.dt, out=tmp)
        tmp *= e_vals
        mom_star += tmp
        # rate = a (rho_new - 2d) / rho_new / tau, on the new excess
        np.subtract(rho_new, model._d2, out=excess)
        np.multiply(excess, profile.a_vals, out=tmp)
        tmp /= rho_new
        tmp /= w.tau
        np.negative(tmp, out=tmp)
        tmp *= w.dt
    mom_star *= np.exp(tmp, out=tmp)

    # a NaN or an infinity in rho or m makes the peak speed non-finite; so
    # do a density below zero and an overflowing P' or u, and such a finite
    # state is passed on as before, for the next step's floor test or its
    # zero-length step to refuse.  The seam cells, which no cell reads, are
    # tested only with the state
    peak = _wave_speeds(w, model, rho_new, mom_star)
    if not math.isfinite(peak) and not np.isfinite(new.q).all():
        raise IntegrationError("non-finite state")

    new.low = float(np.minimum.reduce(rho_new))
    w.peak, w.described = peak, new
    w.blocks = new, cur
    out = new.state
    out.time = t_new
    return out, StepReport(dt_used=dt, post_step_min_rho=new.low,
                           limit=limit)


class RecordClock:
    """The record instants and the end of one march, `run`'s or the
    drift-diffusion reference's.  Times meet the `end` and the `instants`
    up to `slack` = 1e-12 max(end, 1): the instants are the `record_times`
    in (slack, end], as floats (one within the slack of the start is the
    start's own record), each more than the slack after the one before, or
    a ConfigurationError.  A march steps to `target()` and asks `due(t)`
    after each step, so the step that lands on an instant records it once.
    """

    def __init__(self, end: float, record_times=None):
        self.end, self.slack = end, 1e-12 * max(end, 1.0)
        rec = () if record_times is None else record_times
        self.instants = rec = [float(t) for t in rec if self.slack < t <= end]
        if not all(b - a > self.slack for a, b in zip(rec, rec[1:])):
            raise ConfigurationError("record_times must be sorted, each once "
                                     "and more than the slack apart")
        self._next = 0

    def target(self) -> float:
        """The next record instant, else the end."""
        rec, i = self.instants, self._next
        return rec[i] if i < len(rec) else self.end

    def due(self, t: float) -> bool:
        """Whether time t has reached the next instant, which it passes."""
        rec, i = self.instants, self._next
        hit = i < len(rec) and t >= rec[i] - self.slack
        self._next += hit
        return hit

    def at_end(self, t: float) -> bool:
        return t >= self.end - self.slack


@dataclass
class Trajectory:
    """Recorded history of one run: the grid, gas law, device profile and
    SolverConfig it was marched with; each record's step index, time,
    conserved variables (rho, m) and `min_rho`, the lowest density over the
    steps since the record before it, stacked over records (`rho` and `mom`
    are (k, n_cells)); every dt and how many steps each of `LIMITS` bounded.
    The last record is the last state, so the step count and completion
    are read off it.  The field is derived data."""

    grid: Grid1D
    model: GasModel
    profile: DeviceProfile
    cfg: SolverConfig
    steps: np.ndarray
    times: np.ndarray
    rho: np.ndarray
    mom: np.ndarray
    min_rho: np.ndarray
    dts: list = field(default_factory=list)
    limits: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return int(self.steps[-1])

    @property
    def completed(self) -> bool:  # else it stopped early, at times[-1]
        return RecordClock(self.cfg.t_end).at_end(float(self.times[-1]))


def run(initial: HydroState, profile: DeviceProfile, model: GasModel,
        cfg: SolverConfig, grid: Grid1D, cadence: int = 50,
        record_times=None) -> Trajectory:
    """March to cfg.t_end, recording every `cadence` steps or, given
    `record_times`, at the instants of their `RecordClock`, each step
    clamped to land on the next (one not after the initial state's time is
    a ConfigurationError).  The initial and final states are always
    recorded, also when a failed step or `MAX_STEPS` stops the march early,
    incomplete.  The march state stays in one workspace; each record is
    copied out of it once, as one (2, n) block, and the blocks are stacked
    once into the returned Trajectory's arrays.
    """
    if cadence < 1:
        raise ConfigurationError("cadence must be >= 1")
    clock = RecordClock(cfg.t_end, record_times)

    state = initial
    # (step, time, min_rho) and a copy of (rho, m) per record
    steps, times, lows, blocks = [], [], [], []

    def record(k, state, low):
        blocks.append(np.stack((state.rho, state.mom)))
        steps.append(k)
        times.append(state.time)
        lows.append(low)

    record(0, state, float(np.min(state.rho)))
    dts = []
    limits = dict.fromkeys(LIMITS, 0)
    low = math.inf
    work = _Workspace(profile, cfg, grid)

    k = 0
    done = clock.at_end(state.time)
    # an overflowing step is caught by its own finiteness test, which stops
    # the march; numpy's warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while not done and k < MAX_STEPS:
            try:
                state, rep = step(state, profile, model, cfg, grid,
                                  t_stop=clock.target(), _work=work)
            except IntegrationError:
                break
            k += 1
            dts.append(rep.dt_used)
            limits[rep.limit] += 1
            low = min(low, rep.post_step_min_rho)

            due = (k % cadence == 0 if record_times is None
                   else clock.due(state.time))
            done = clock.at_end(state.time)
            if due or done:
                record(k, state, low)
                low = math.inf
    if steps[-1] != k:  # stopped early: the last state is a record too
        record(k, state, low)
    rho, mom = np.stack(blocks, axis=1)
    return Trajectory(grid=grid, model=model, profile=profile, cfg=cfg,
                      steps=np.array(steps), times=np.array(times),
                      rho=rho, mom=mom, min_rho=np.array(lows), dts=dts,
                      limits=limits)


def cell_averages(vals, grid: Grid1D, onto: Grid1D) -> np.ndarray:
    """Exact averages over the cells of `onto` of values (last axis) on
    `grid`, which must nest in `onto`: the same extent and n_cells a
    multiple of onto's, else a ConfigurationError.  A factor of 1 returns
    the values bit for bit."""
    k, rest = divmod(grid.n_cells, onto.n_cells)
    if rest or (grid.x_min, grid.x_max) != (onto.x_min, onto.x_max):
        raise ConfigurationError(f"{grid} does not nest in {onto}")
    vals = np.asarray(vals)
    return vals.reshape(vals.shape[:-1] + (onto.n_cells, k)).mean(axis=-1)


def march_rungs(rungs, onto: Grid1D, names=None) -> list:
    """March each rung (parts, initial state, record times) through `run`
    to its times, t_end its last, and return its Trajectory with `rho` and
    `mom` restricted to `onto` by `cell_averages`, the rest the march's own.
    The parts are a RunSetup or a Trajectory (grid, model, profile, cfg).
    Every grid must nest in `onto`, checked before any march.  A rung that
    stops early raises an IntegrationError, and one whose records miss its
    times a RuntimeError, each naming the rung by its entry in `names`
    ("rung i" without them)."""
    for parts, _, _ in rungs:
        cell_averages(parts.grid.centers, parts.grid, onto)
    if names is None:
        names = [f"rung {i}" for i in range(len(rungs))]
    out = []
    for name, (parts, initial, times) in zip(names, rungs):
        end = float(times[-1])
        traj = run(initial, parts.profile, parts.model,
                   replace(parts.cfg, t_end=end), parts.grid,
                   record_times=times)
        if not traj.completed:
            raise IntegrationError(f"{name} stopped at t = "
                                   f"{float(traj.times[-1])!r}, before {end!r}")
        if not np.array_equal(traj.times[1:], times):
            raise RuntimeError(f"{name} misaligned with its record times")
        out.append(replace(traj, rho=cell_averages(traj.rho, parts.grid, onto),
                           mom=cell_averages(traj.mom, parts.grid, onto)))
    return out
