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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .field import solve_field
from .model import (DeviceProfile, GasModel, Grid1D, HydroState,
                    total_integral)
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


def _conv(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.convolve(vals, weights, mode="same")


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


def picard_step(prev: PicardIterate, initial: HydroState,
                profile: DeviceProfile, model: GasModel, kernel: HeatKernel,
                grid: Grid1D, tau: float,
                source_variant: SourceVariant = SourceVariant.FULL_DENSITY) -> PicardIterate:
    """Apply the integral right-hand side once to the previous iterate."""
    times = prev.times
    n_lev = len(times)
    ds = float(times[1] - times[0])
    dx = grid.dx
    d2 = model.rho_floor

    # level-wise flux and source terms of the previous iterate
    h_lvl = np.empty_like(prev.rho)
    f_lvl = np.empty_like(prev.rho)
    s_lvl = np.empty_like(prev.rho)
    for j in range(n_lev):
        rho, mom = prev.rho[j], prev.mom[j]
        h_lvl[j], f_lvl[j] = flux(model, rho, mom)
        e_vals = solve_field(rho - d2, profile, grid)
        s_lvl[j] = source(source_variant, model, rho, mom, e_vals,
                          profile.a_vals, tau)

    # kernel tables at the midpoint lags (m - 1/2) ds, m = 1..n_intervals
    smooth_w = [None]
    grad_w = [None]
    for m in range(1, n_lev):
        lag = (m - 0.5) * ds
        smooth_w.append(kernel.cell_weights(dx, lag))
        grad_w.append(kernel.gradient_weights(dx, lag))

    rho_new = np.empty_like(prev.rho)
    mom_new = np.empty_like(prev.mom)
    rho_new[0] = initial.rho
    mom_new[0] = initial.mom
    excess0 = initial.rho - d2

    for k in range(1, n_lev):
        t_k = float(times[k])
        base_w = kernel.cell_weights(dx, t_k)
        r_acc = d2 + _conv(excess0, base_w)
        m_acc = _conv(initial.mom, base_w)
        for j in range(k):
            m = k - j
            h_mid = 0.5 * (h_lvl[j] + h_lvl[j + 1])
            f_mid = 0.5 * (f_lvl[j] + f_lvl[j + 1])
            s_mid = 0.5 * (s_lvl[j] + s_lvl[j + 1])
            r_acc = r_acc - ds * _conv(h_mid, grad_w[m])
            m_acc = m_acc - ds * _conv(f_mid, grad_w[m]) \
                + ds * _conv(s_mid, smooth_w[m])
        rho_new[k] = r_acc
        mom_new[k] = m_acc

    return PicardIterate(times=times.copy(), rho=rho_new, mom=mom_new)


@dataclass
class ContractionReport:
    distances: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    halve_suggestion: float | None = None
    band_violations: list = field(default_factory=list)
    fixed_point_residual: float | None = None


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


def picard_solve(initial: HydroState, profile: DeviceProfile, model: GasModel,
                 kernel: HeatKernel, grid: Grid1D, tau: float, t1: float,
                 n_intervals: int = 8, tol: float = 1e-10,
                 max_iters: int = 30,
                 source_variant: SourceVariant = SourceVariant.FULL_DENSITY) -> PicardResult:
    """Iterate the integral map until the sup distance between successive
    iterates drops below tol.  Three consecutive non-contracting ratios stop
    the iteration with a suggestion to halve the slab.
    """
    if t1 <= 0.0 or n_intervals < 1:
        raise ValueError("need t1 > 0 and at least one slab interval")
    bound = iterate_band_bound(initial, model, grid)
    report = ContractionReport()
    prev = constant_first_guess(initial, t1, n_intervals)
    current = prev
    bad = 0
    for _ in range(max_iters):
        try:
            current = picard_step(prev, initial, profile, model, kernel,
                                  grid, tau, source_variant)
        except ValueError:
            # the iterate left the admissible density band so far that the
            # pressure is no longer defined on it: unambiguous divergence
            report.band_violations.append(
                {"field": "rho", "value": float(np.min(prev.rho)),
                 "bound": model.delta, "kind": "inadmissible"})
            report.diverged = True
            report.halve_suggestion = 0.5 * t1
            current = prev
            break
        report.band_violations.extend(_band_check(current, model, bound))
        d = sup_distance(current, prev)
        report.distances.append(d)
        if len(report.distances) >= 2 and report.distances[-2] > 0.0:
            ratio = d / report.distances[-2]
            report.ratios.append(ratio)
            bad = bad + 1 if ratio >= 1.0 else 0
            if bad >= 3:
                report.diverged = True
                report.halve_suggestion = 0.5 * t1
                break
        prev = current
        if d < tol:
            report.converged = True
            break
    if not report.diverged:
        try:
            once_more = picard_step(current, initial, profile, model, kernel,
                                    grid, tau, source_variant)
            report.fixed_point_residual = sup_distance(once_more, current)
        except ValueError:
            report.diverged = True
            report.halve_suggestion = 0.5 * t1
    return PicardResult(iterate=current, endpoint=current.endpoint(),
                        report=report)
