"""Short-time integral-equation solver built on the heat kernel.

The viscous system is equivalent, on a short slab [0, t1], to the fixed
point of

    rho = G * rho0 - int_0^t G_xi * ((rho-2d) u) ds
    m   = G * m0  - int_0^t G_xi * f(rho, m) ds + int_0^t G * S(rho, m, E) ds

with G the mass-one heat kernel of d_t - eps d_xx, f the momentum flux and S
the field/damping source.  Iterating the right-hand side from the constant
first guess contracts for t1 small, which is measured here rather than
assumed.  Spatial convolutions use exact kernel integrals over cells (erf
differences for G, point values of G at cell faces for G_xi), so they stay
accurate even when the kernel is narrower than the grid; the time integral
uses the midpoint of each slab interval.

At level t_k = k ds that midpoint rule is the lag sum
sum_{m=1..k} ds conv_x(H[k-m], K_m) of the interval midpoints H of a term
against its kernel K_m at lag (m - 1/2) ds: a causal convolution in time of
convolutions in space.  A sweep evaluates each lag sum as one product of
2-D real FFTs, zero-padded to 2 n_intervals levels, so the circular wrap
never reaches a kept level, and to n_cells + 2h cells for the widest kernel
half-width h, so values outside the grid count as zero on the real line,
also on a periodic grid and also when a kernel is wider than the grid.  The
kernel spectra and the initial-data terms G(t_k) * rho0 and G(t_k) * m0 do
not depend on the iterate: `picard_solve` builds them once per slab.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .field import solve_field
from .model import (ConfigurationError, DeviceProfile, GasModel, Grid1D,
                    HydroState, total_integral)
from .solver import SourceVariant, flux, source


@dataclass(frozen=True)
class HeatKernel:
    """Fundamental solution G(x,t) of d_t u = eps d_xx u with unit mass."""

    epsilon: float

    def values(self, x, t: float):
        x = np.asarray(x, dtype=float)
        return np.exp(-x ** 2 / (4.0 * self.epsilon * t)) \
            / math.sqrt(4.0 * math.pi * self.epsilon * t)

    def cdf(self, x, t: float):
        x = np.asarray(x, dtype=float)
        return 0.5 * (1.0 + erf(x / (2.0 * math.sqrt(self.epsilon * t))))

    def discrete_mass(self, dx: float, t: float, half_cells: int) -> float:
        """Sampled-kernel mass sum(G(j dx, t)) dx over |j| <= half_cells."""
        xs = np.arange(-half_cells, half_cells + 1) * dx
        return float(np.sum(self.values(xs, t)) * dx)

    def _half_width(self, dx: float, t: float) -> int:
        return max(int(math.ceil(8.0 * math.sqrt(self.epsilon * t) / dx)) + 2, 3)

    def cell_weights(self, dx: float, t: float) -> np.ndarray:
        """w[r] = int over cell at offset r of G: exact smoothing weights."""
        h = self._half_width(dx, t)
        r = np.arange(-h, h + 1) * dx
        return self.cdf(r + 0.5 * dx, t) - self.cdf(r - 0.5 * dx, t)

    def gradient_weights(self, dx: float, t: float) -> np.ndarray:
        """Weights reproducing the convolution with d_xi G exactly on
        piecewise-constant data: G at the right face minus G at the left."""
        h = self._half_width(dx, t)
        r = np.arange(-h, h + 1) * dx
        return self.values(r + 0.5 * dx, t) - self.values(r - 0.5 * dx, t)


@dataclass
class PicardIterate:
    """Fields on the whole space-time slab: shape (n_levels, n_cells)."""

    times: np.ndarray
    rho: np.ndarray
    mom: np.ndarray

    def endpoint(self) -> HydroState:
        return HydroState(rho=self.rho[-1].copy(), mom=self.mom[-1].copy(),
                          time=float(self.times[-1]))


def constant_first_guess(initial: HydroState, t1: float,
                         n_intervals: int) -> PicardIterate:
    times = np.linspace(0.0, t1, n_intervals + 1)
    rho = np.tile(initial.rho, (n_intervals + 1, 1))
    mom = np.tile(initial.mom, (n_intervals + 1, 1))
    return PicardIterate(times=times, rho=rho, mom=mom)


def sup_distance(a: PicardIterate, b: PicardIterate) -> float:
    return float(np.max(np.abs(a.rho - b.rho)) + np.max(np.abs(a.mom - b.mom)))


def _circular(rows, width: int) -> np.ndarray:
    """Centred odd-length weight rows laid out for a circular convolution of
    length `width`: the weight at offset r goes to column r mod width."""
    out = np.zeros((len(rows), width))
    for i, w in enumerate(rows):
        h = (len(w) - 1) // 2
        out[i, :h + 1] = w[h:]
        out[i, width - h:] = w[:h]
    return out


@dataclass(frozen=True)
class _SlabTables:
    """The parts of a sweep that the iterate does not change.

    `shape` is the zero-padded (time, space) FFT shape; `grad_hat` and
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
        # the widest kernel is the initial-data one at t1; n + 2h columns
        # keep the real-line (zero outside the grid) convolution unwrapped
        width = n + 2 * kernel._half_width(dx, float(times[-1]))
        shape = (2 * n_int, width)
        lags = [(m - 0.5) * ds for m in range(1, n_int + 1)]
        grad = _circular([kernel.gradient_weights(dx, s) for s in lags], width)
        smooth = _circular([kernel.cell_weights(dx, s) for s in lags], width)
        base = np.fft.rfft(_circular(
            [kernel.cell_weights(dx, float(t)) for t in times[1:]], width))

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
                profile: DeviceProfile, model: GasModel, kernel: HeatKernel,
                grid: Grid1D, tau: float,
                source_variant: SourceVariant = SourceVariant.FULL_DENSITY,
                tables: _SlabTables | None = None) -> PicardIterate:
    """Apply the integral right-hand side once to the previous iterate.

    `tables` are the slab's kernel spectra and initial-data terms; they are
    built here when not given (`picard_solve` builds them once per slab).
    """
    if tables is None:
        tables = _SlabTables.build(prev.times, initial, model, kernel, grid)
    d2 = model.rho_floor

    # level-wise flux and source terms of the previous iterate
    h_lvl = np.empty_like(prev.rho)
    f_lvl = np.empty_like(prev.rho)
    s_lvl = np.empty_like(prev.rho)
    for j, (rho, mom) in enumerate(zip(prev.rho, prev.mom)):
        h_lvl[j], f_lvl[j] = flux(model, rho, mom)
        e_vals = solve_field(rho - d2, profile, grid)
        s_lvl[j] = source(source_variant, model, rho, mom, e_vals,
                          profile.a_vals, tau)

    # one spectrum at a time keeps the sweep's memory near two slab spectra
    rho_lag = tables.lag_sum(tables.spectrum(h_lvl) * tables.grad_hat)
    mom_lag = tables.lag_sum(tables.spectrum(s_lvl) * tables.smooth_hat
                             - tables.spectrum(f_lvl) * tables.grad_hat)

    rho_new = np.vstack((initial.rho, tables.rho_init - rho_lag))
    mom_new = np.vstack((initial.mom, tables.mom_init + mom_lag))
    return PicardIterate(times=prev.times.copy(), rho=rho_new, mom=mom_new)


@dataclass
class ContractionReport:
    tol: float                  # the stopping tolerance the solve was given
    distances: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    halve_suggestion: float | None = None
    band_violations: list = field(default_factory=list)
    fixed_point_residual: float | None = None
    # wall seconds per iteration, beside `distances`; a diagnostic only,
    # never written to the run's output files
    iteration_s: list = field(default_factory=list)


@dataclass
class PicardResult:
    iterate: PicardIterate
    endpoint: HydroState
    report: ContractionReport


def iterate_band_bound(initial: HydroState, model: GasModel,
                       grid: Grid1D) -> float:
    """Reference magnitude for the a-priori iterate band."""
    return max(float(np.max(initial.rho)), float(np.max(np.abs(initial.mom))),
               total_integral(initial.rho - model.rho_floor, grid.dx))


def _band_check(it: PicardIterate, model: GasModel, bound: float) -> list:
    out = []
    rho_min = float(np.min(it.rho))
    if rho_min < model.delta:
        out.append({"field": "rho", "value": rho_min, "bound": model.delta,
                    "kind": "lower"})
    rho_max = float(np.max(it.rho))
    if rho_max > 2.0 * bound:
        out.append({"field": "rho", "value": rho_max, "bound": 2.0 * bound,
                    "kind": "upper"})
    mom_max = float(np.max(np.abs(it.mom)))
    if mom_max > 2.0 * bound:
        out.append({"field": "mom", "value": mom_max, "bound": 2.0 * bound,
                    "kind": "upper"})
    return out


def _admissibility_violation(it: PicardIterate, model: GasModel):
    """The 'inadmissible' band violation when some level's density lies
    below the floor on which the pressure is defined, else None."""
    rho_min = float(np.min(it.rho))
    if rho_min < model.admissible_floor:
        return {"field": "rho", "value": rho_min,
                "bound": model.admissible_floor, "kind": "inadmissible"}
    return None


def picard_solve(initial: HydroState, profile: DeviceProfile, model: GasModel,
                 kernel: HeatKernel, grid: Grid1D, tau: float, t1: float,
                 n_intervals: int = 8, tol: float = 1e-10,
                 max_iters: int = 30,
                 source_variant: SourceVariant = SourceVariant.FULL_DENSITY) -> PicardResult:
    """Iterate the integral map until the sup distance between successive
    iterates drops below tol.  Three consecutive non-contracting ratios, or
    an iterate whose density leaves the admissible band, stop the iteration
    with a suggestion to halve the slab.
    """
    if t1 <= 0.0 or n_intervals < 1:
        raise ConfigurationError("need t1 > 0 and at least one slab interval")
    bound = iterate_band_bound(initial, model, grid)
    report = ContractionReport(tol=tol)
    prev = constant_first_guess(initial, t1, n_intervals)
    tables = _SlabTables.build(prev.times, initial, model, kernel, grid)
    current = prev
    bad = 0
    for _ in range(max_iters):
        start = time.perf_counter()
        violation = _admissibility_violation(prev, model)
        if violation is not None:
            # the pressure is not defined on this iterate: divergence
            report.band_violations.append(violation)
            report.diverged = True
            break
        current = picard_step(prev, initial, profile, model, kernel,
                              grid, tau, source_variant, tables=tables)
        report.band_violations.extend(_band_check(current, model, bound))
        d = sup_distance(current, prev)
        report.distances.append(d)
        report.iteration_s.append(time.perf_counter() - start)
        if len(report.distances) >= 2 and report.distances[-2] > 0.0:
            ratio = d / report.distances[-2]
            report.ratios.append(ratio)
            bad = bad + 1 if ratio >= 1.0 else 0
            if bad >= 3:
                report.diverged = True
                break
        prev = current
        if d < tol:
            report.converged = True
            break
    if not report.diverged:
        violation = _admissibility_violation(current, model)
        if violation is None:
            once_more = picard_step(current, initial, profile, model, kernel,
                                    grid, tau, source_variant, tables=tables)
            report.fixed_point_residual = sup_distance(once_more, current)
        else:
            report.band_violations.append(violation)
            report.diverged = True
    if report.diverged:
        report.halve_suggestion = 0.5 * t1
    return PicardResult(iterate=current, endpoint=current.endpoint(),
                        report=report)
