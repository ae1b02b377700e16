"""Short-time integral-equation solver built on the heat kernel.

The viscous system is equivalent, on a short slab [0, t1], to the fixed
point of

    rho = G * rho0 - int_0^t G_xi * ((rho-2d) u) ds
    m   = G * m0  - int_0^t G_xi * f(rho, m) ds + int_0^t G * S(rho, m, E) ds

with G the mass-one heat kernel of d_t - eps d_xx, f the momentum flux and S
the field/damping source.  Iterating the right-hand side from the constant
first guess contracts for t1 small, which is measured here rather than
assumed.  Spatial convolutions use exact kernel integrals over cells (erfc
differences for G, point values of G at cell faces for G_xi), so they stay
accurate even when the kernel is narrower than the grid; the time integral
uses the midpoint of each slab interval.

At level t_k = k ds that midpoint rule is the lag sum
sum_{m=1..k} ds conv_x(H[k-m], K_m) of the interval midpoints H of a term
against its kernel K_m at lag (m - 1/2) ds: a causal convolution in time of
convolutions in space.  A sweep evaluates each lag sum as one product of
2-D real FFTs, zero-padded to at least 2 n_intervals levels, so the
circular wrap never reaches a kept level.  In space a periodic slab is
circular: its axis is exactly n_cells wide, and weights that wrap onto one
cell, for a kernel wider than the grid, add up there.  An outflow slab is
padded to at least n_cells + 2h cells for the widest kernel half-width h,
so values outside the grid count as zero on the real line, also when a
kernel is wider than the grid: it takes vacuum beyond its edges, so
`check_edges` refuses an outflow device whose initial data do not vanish
there (charge-neutral-rest, say).  The padded axes
are rounded up from their wrap-free length to the next 2^a 3^b 5^c, a
length the FFT transforms fast (n_cells + 2h = 2036 is 4 * 509, a fifth as
fast as 2048).  The kernel spectra and the initial-data
terms G(t_k) * rho0 and G(t_k) * m0 do not depend on the iterate:
`picard_solve` builds them once per slab, each kernel table in one
evaluation over (times x offsets).  Eps, tau and the source coupling come
from one SolverConfig, as in the march.  `cross_check` compares the slab's
last level with the march on the Picard grid, by exact cell averages
(`solver.march_rungs`), in one `monitors.Check` row.
A distance sup|P(x) - x| is the exact residual of the iterate x its sweep
started from, so the solve returns that iterate and measures nothing
twice.  Each iterate meets the band 2d <= rho <= M, |m| <= M in one check
per side, `_admissibility_violation` (which also refuses a non-finite
momentum) and `_band_check`; a contraction ratio is the quotient of two
successive distances.  The sweeps run under the np.errstate of the march,
so an overflowing one is refused with no numpy warning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.fft  # noqa: F401  at start-up, not on first use in a command

from .field import solve_field
from .model import (Boundary, ConfigurationError, DeviceProfile, GasModel,
                    Grid1D, HydroState, total_integral)
from .monitors import Check
from .solver import SolverConfig, flux, march_rungs, source

# math.erfc point by point, on a scalar and on an array alike; about 0.1 us
# a point, where importing scipy.special for its erf costs about 0.25 s
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class HeatKernel:
    """Fundamental solution G(x,t) of d_t u = eps d_xx u with unit mass."""

    epsilon: float

    # `values`, `cdf`, `_half_width`, `_cells` and `_faces` take t as a
    # scalar or as an array broadcasting against x, element by element the
    # same arithmetic either way: a table row is bit-identical to the
    # weights of its own time.  `circular_table` is the one layout of the
    # weights, the smoothing `_cells` and the gradient `_faces`.

    def values(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.exp(-x ** 2 / (4.0 * self.epsilon * t)) \
            / np.sqrt(4.0 * math.pi * self.epsilon * t)

    def cdf(self, x, t):
        """The kernel's mass left of x, as erfc(-z) / 2: where 1 + erf(z)
        rounds to 0 (z below about -6) this keeps its relative precision."""
        x = np.asarray(x, dtype=float)
        return 0.5 * _erfc(-x / (2.0 * np.sqrt(self.epsilon * t)))

    def _half_width(self, dx: float, t):
        """Cells each side that the weights at time t cover: eight standard
        deviations and two cells, at least three."""
        h = np.ceil(8.0 * np.sqrt(self.epsilon * t) / dx)
        return np.maximum(h.astype(int) + 2, 3)

    def _cells(self, r, dx: float, t):
        """The integral of G over the cell at offset r."""
        return self.cdf(r + 0.5 * dx, t) - self.cdf(r - 0.5 * dx, t)

    def _faces(self, r, dx: float, t):
        """G at the right face of the cell at offset r minus G at its left:
        the convolution with d_xi G, exact on piecewise-constant data."""
        return self.values(r + 0.5 * dx, t) - self.values(r - 0.5 * dx, t)

    def circular_table(self, weights, dx: float, times,
                       width: int) -> np.ndarray:
        """Row i holds `weights` (`_cells` or `_faces`) at times[i], zero
        beyond that time's half-width and laid out for a circular
        convolution of length `width`: offset r goes to column r mod width,
        and offsets that wrap onto one column (2h + 1 > width) sum there."""
        t = np.asarray(times, dtype=float)[:, None]
        h = self._half_width(dx, t)
        offsets = np.arange(-h.max(), h.max() + 1)
        rows = weights(offsets * dx, dx, t)
        rows[np.abs(offsets) > h] = 0.0
        out = np.zeros((len(t), width))
        np.add.at(out.T, offsets % width, rows.T)
        return out


@dataclass
class PicardIterate:
    """Fields on the whole space-time slab: shape (n_levels, n_cells)."""

    times: np.ndarray
    rho: np.ndarray
    mom: np.ndarray


def constant_first_guess(initial: HydroState, t1: float,
                         n_intervals: int) -> PicardIterate:
    times = np.linspace(0.0, t1, n_intervals + 1)
    rho = np.tile(initial.rho, (n_intervals + 1, 1))
    mom = np.tile(initial.mom, (n_intervals + 1, 1))
    return PicardIterate(times=times, rho=rho, mom=mom)


def sup_distance(a: PicardIterate, b: PicardIterate) -> float:
    return float(np.max(np.abs(a.rho - b.rho)) + np.max(np.abs(a.mom - b.mom)))


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c at least n (n >= 1): an FFT length made of
    the radices the FFT transforms fastest.  Written out because importing
    scipy.fft for its next_fast_len costs about 0.3 s on every command."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class _SlabTables:
    """The parts of a sweep that the iterate does not change.

    `shape` is the zero-padded (time, space) FFT shape, each axis its
    wrap-free length rounded up by `_fast_len`; `grad_hat` and
    `smooth_hat` are ds times the 2-D spectra of the gradient and smoothing
    weights stacked by lag, row j holding lag (j + 1/2) ds, so that row k-1
    of a product's inverse is level k; `rho_init` and `mom_init` are the
    initial-data terms 2d + G(t_k) * (rho0 - 2d) and G(t_k) * m0 at levels
    k = 1..n_intervals.
    """

    shape: tuple
    grad_hat: np.ndarray
    smooth_hat: np.ndarray
    rho_init: np.ndarray
    mom_init: np.ndarray

    @classmethod
    def build(cls, times: np.ndarray, initial: HydroState, model: GasModel,
              kernel: HeatKernel, grid: Grid1D) -> "_SlabTables":
        n_int = len(times) - 1
        n = grid.n_cells
        dx = grid.dx
        ds = float(times[1] - times[0])
        # 2 n_int levels keep the causal time convolution unwrapped; on an
        # outflow grid the widest kernel is the initial-data one at t1, and
        # n + 2h columns keep the real-line (zero outside the grid)
        # convolution unwrapped, while a periodic grid wraps on its n cells
        if grid.boundary is Boundary.PERIODIC:
            width = n
        else:
            width = _fast_len(n + 2 * int(kernel._half_width(dx, times[-1])))
        shape = (_fast_len(2 * n_int), width)
        lags = (np.arange(1, n_int + 1) - 0.5) * ds
        grad = kernel.circular_table(kernel._faces, dx, lags, width)
        smooth = kernel.circular_table(kernel._cells, dx, lags, width)
        base = np.fft.rfft(kernel.circular_table(kernel._cells, dx,
                                                 times[1:], width))

        def smoothed(vals):
            return np.fft.irfft(base * np.fft.rfft(vals, width), width)[:, :n]

        d2 = model.rho_floor
        return cls(shape=shape,
                   grad_hat=ds * np.fft.rfft2(grad, s=shape),
                   smooth_hat=ds * np.fft.rfft2(smooth, s=shape),
                   rho_init=d2 + smoothed(initial.rho - d2),
                   mom_init=smoothed(initial.mom))

    def spectrum(self, levels: np.ndarray) -> np.ndarray:
        """Padded spectrum of a term's interval midpoints."""
        return np.fft.rfft2(0.5 * (levels[:-1] + levels[1:]), s=self.shape)

    def lag_sum(self, spec: np.ndarray) -> np.ndarray:
        """Levels 1..n_intervals of the inverse transform; the rows past
        them, which hold the circular wrap, are dropped before the spatial
        inverse."""
        n_int, n = self.rho_init.shape
        rows = np.fft.ifft(spec, axis=0)[:n_int]
        return np.fft.irfft(rows, self.shape[1])[:, :n]


def picard_step(prev: PicardIterate, initial: HydroState,
                profile: DeviceProfile, model: GasModel, cfg: SolverConfig,
                grid: Grid1D, tables: _SlabTables) -> PicardIterate:
    """Apply the integral right-hand side of `cfg` once to the previous
    iterate.

    `tables` are the slab's kernel spectra and initial-data terms, which
    `picard_solve` builds once per slab.  The iterate must be admissible
    (`picard_solve` checks every one).
    """
    # flux and source terms of the previous iterate, all levels at once
    h_lvl, f_lvl = flux(model, prev.rho, prev.mom)
    e_vals = solve_field(prev.rho - model.rho_floor, profile, grid)
    s_lvl = source(cfg.source_variant, model, prev.rho, prev.mom, e_vals,
                   profile.a_vals, cfg.tau)

    # one spectrum at a time keeps the sweep's memory near two slab spectra
    rho_lag = tables.lag_sum(tables.spectrum(h_lvl) * tables.grad_hat)
    mom_lag = tables.lag_sum(tables.spectrum(s_lvl) * tables.smooth_hat
                             - tables.spectrum(f_lvl) * tables.grad_hat)

    rho_new = np.vstack((initial.rho, tables.rho_init - rho_lag))
    mom_new = np.vstack((initial.mom, tables.mom_init + mom_lag))
    return PicardIterate(times=prev.times.copy(), rho=rho_new, mom=mom_new)


@dataclass
class ContractionReport:
    # distances[k] is the residual of the iterate sweep k started from
    distances: list = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    band_violations: list = field(default_factory=list)
    # wall seconds per iteration, beside `distances`; a diagnostic only,
    # never written to the run's output files
    iteration_s: list = field(default_factory=list)


@dataclass
class PicardResult:
    iterate: PicardIterate
    report: ContractionReport


def iterate_band_bound(initial: HydroState, model: GasModel,
                       grid: Grid1D) -> float:
    """Reference magnitude for the a-priori iterate band."""
    return max(float(np.max(initial.rho)), float(np.max(np.abs(initial.mom))),
               total_integral(initial.rho - model.rho_floor, grid.dx))


def _band_check(it: PicardIterate, bound: float) -> list:
    """The 'upper' violations: rho or |m| above twice the band bound."""
    out = []
    for name, vals in (("rho", it.rho), ("mom", np.abs(it.mom))):
        top = float(np.max(vals))
        if top > 2.0 * bound:
            out.append({"field": name, "value": top, "bound": 2.0 * bound,
                        "kind": "upper"})
    return out


def _admissibility_violation(it: PicardIterate, model: GasModel):
    """The 'inadmissible' band violation when some level's density is NaN
    or below the floor on which the pressure is defined, or its momentum
    is not finite (its bound is then inf), else None."""
    rho_min = float(np.min(it.rho))
    if not rho_min >= model.admissible_floor:
        return {"field": "rho", "value": rho_min,
                "bound": model.admissible_floor, "kind": "inadmissible"}
    mom_top = float(np.max(np.abs(it.mom)))
    if not mom_top < math.inf:
        return {"field": "mom", "value": mom_top, "bound": math.inf,
                "kind": "inadmissible"}
    return None


# the short-time cross-check of `verify --picard` and `picard`: the default
# horizon, and the endpoint tolerance's factor on dx + mean dt
CROSS_CHECK_T1 = 0.01
CROSS_TOL_FACTOR = 5.0


def check_t1(t1: float, name: str = "t1"):
    """The slab rule of `picard_solve`: a ConfigurationError naming `name`
    unless 0 < t1 < inf (nan fails it)."""
    if not 0.0 < t1 < math.inf:
        raise ConfigurationError(f"{name}: need 0 < t1 < inf, got t1 = "
                                 f"{t1!r}")


# the largest share of their sup the initial data may keep at an outflow edge
EDGE_TOL = 1e-12


def check_edges(initial: HydroState, model: GasModel, grid: Grid1D):
    """ConfigurationError when, on an outflow grid, |rho0 - 2d| or |m0| at
    an edge cell exceeds EDGE_TOL of their sup: beyond the edges the slab
    takes vacuum while the march's ghost cells copy the edge cells."""
    data = np.abs(np.stack((initial.rho - model.rho_floor, initial.mom)))
    edge, top = float(np.max(data[:, [0, -1]])), float(np.max(data))
    if grid.boundary is Boundary.OUTFLOW and edge > EDGE_TOL * top:
        raise ConfigurationError(
            "the Picard slab takes vacuum beyond an outflow grid's edges, so "
            "its initial |rho0 - 2 delta| and |m0| must vanish there (at "
            f"most {EDGE_TOL:g} of their sup {top!r}); got {edge!r} at an "
            "edge cell")


def cross_check(result: PicardResult, picard_grid: Grid1D, t1: float, march,
                initial: HydroState) -> Check:
    """March `initial` to t1 on the grid, gas law, profile and SolverConfig
    of `march` (a RunSetup or a Trajectory) through `solver.march_rungs`,
    which restricts the march onto the Picard grid by exact cell averages,
    and judge the Picard result against it.

    Returns the `picard` row at t1: its value the `sup_distance` between
    the last level of the Picard iterate and the restricted march, its
    bound CROSS_TOL_FACTOR * (dx + mean dt); it passes when the gap is
    within the bound and the iteration converged with no band violation.
    A march that stops before t1 raises `march_rungs`' IntegrationError,
    naming the march and the time.
    """
    (traj,) = march_rungs([(march, initial, [t1])], picard_grid,
                          ["the Picard cross-check march to t1"])
    it = result.iterate
    last = PicardIterate(times=it.times[-1:], rho=it.rho[-1], mom=it.mom[-1])
    gap = sup_distance(last, replace(last, rho=traj.rho[-1],
                                     mom=traj.mom[-1]))
    dt_mean = float(np.mean(traj.dts)) if traj.dts else 0.0
    tol_cross = CROSS_TOL_FACTOR * (picard_grid.dx + dt_mean)
    rep = result.report
    return Check("picard", gap, tol_cross, rep.converged
                 and not rep.band_violations and gap <= tol_cross, t1)


def picard_solve(initial: HydroState, profile: DeviceProfile, model: GasModel,
                 cfg: SolverConfig, grid: Grid1D, t1: float,
                 n_intervals: int = 8, tol: float = 1e-10,
                 max_iters: int = 30) -> PicardResult:
    """Iterate the integral map of `cfg` on [0, t1] until a sweep moves its
    iterate by less than tol in the sup distance, and return the iterate
    the last sweep started from: the last distance is its exact residual.

    Each iterate, the first guess included, is tested once for
    admissibility: one whose density lies below the admissible floor or
    whose momentum is not finite is listed as 'inadmissible' and stops the
    iteration as diverged, as do three consecutive non-contracting ratios.
    Either way the solve returns its last admissible iterate, and the
    advice is to halve the slab.  Otherwise the solve stops unconverged at
    max_iters distances.
    """
    check_t1(t1)
    if not 0.0 < tol < math.inf:
        raise ConfigurationError(f"tol: need 0 < tol < inf, got {tol!r}")
    for key, val in (("n_intervals", n_intervals), ("max_iters", max_iters)):
        if val < 1:
            raise ConfigurationError(f"{key}: need {key} >= 1, got {val!r}")
    bound = iterate_band_bound(initial, model, grid)
    report = ContractionReport()
    current = constant_first_guess(initial, t1, n_intervals)
    tables = _SlabTables.build(current.times, initial, model,
                               HeatKernel(cfg.epsilon), grid)
    # the pressure is not defined on an inadmissible iterate, so no sweep
    # starts from one: divergence
    violation = _admissibility_violation(current, model)
    bad = 0
    # an overflowing sweep is listed inadmissible, which stops the
    # iteration; numpy's warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while violation is None:
            start = time.perf_counter()
            sweep = picard_step(current, initial, profile, model, cfg, grid,
                                tables)
            d = sup_distance(sweep, current)
            report.distances.append(d)
            report.iteration_s.append(time.perf_counter() - start)
            if d < tol:
                report.converged = True
                break
            report.band_violations.extend(_band_check(sweep, bound))
            violation = _admissibility_violation(sweep, model)
            if len(report.distances) >= 2:
                bad = bad + 1 if d / report.distances[-2] >= 1.0 else 0
            if violation is not None or bad >= 3 \
                    or len(report.distances) == max_iters:
                break
            current = sweep
    if violation is not None:
        report.band_violations.append(violation)
    report.diverged = violation is not None or bad >= 3
    return PicardResult(iterate=current, report=report)
