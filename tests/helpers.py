"""Shared oracles for the test suite.

The quadrature oracles deliberately avoid the closed forms in the package:
they integrate the defining integrands with scipy's adaptive routines so a
bug in the closed form cannot hide in its own test.
"""

import numpy as np
from scipy.integrate import quad

from semiflux.field import solve_field
from semiflux.model import GasModel, PressureConvention
from semiflux.picard import PicardIterate
from semiflux.solver import SourceVariant, flux, source


def p1_quadrature(gamma: float, delta: float, rho: float,
                  convention: PressureConvention) -> float:
    """Adaptive quadrature of the perturbed-pressure integrand
    (t - 2*delta)/t * P'(t) over [2*delta, rho]."""
    model = GasModel(gamma=gamma, delta=delta, convention=convention)
    lo = 2.0 * delta

    def integrand(t):
        return (t - lo) / t * float(model.dpressure(t))

    val, err = quad(integrand, lo, rho, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def sound_integral_quadrature(model: GasModel, rho: float) -> float:
    """Adaptive quadrature of sqrt(P'(s))/s from the gamma-dependent lower
    reference to rho.  The 1 < gamma < 3 case has an integrable endpoint
    singularity at 0 which quad handles adaptively."""
    lo = model.canonical_lower_ref()

    def integrand(s):
        return float(np.sqrt(model.dpressure(s))) / s

    val, err = quad(integrand, lo, rho, epsabs=1e-12, epsrel=1e-11, limit=400)
    return val


def l1_gap(x_coarse, v_coarse, x_fine, v_fine) -> float:
    """L1 distance between two cell-center profiles, the finer one
    interpolated onto the coarse centers."""
    x_coarse = np.asarray(x_coarse, dtype=float)
    on_coarse = np.interp(x_coarse, np.asarray(x_fine, dtype=float),
                          np.asarray(v_fine, dtype=float))
    dx = x_coarse[1] - x_coarse[0]
    return float(dx * np.sum(np.abs(np.asarray(v_coarse) - on_coarse)))


def conv_same(vals, weights):
    """np.convolve's centred 'same' mode: the real-line convolution on the
    grid while the kernel is no longer than the data."""
    return np.convolve(vals, weights, mode="same")


def conv_full_sliced(vals, weights):
    """The centred window of the full convolution: the same real-line
    convolution for a kernel of any width (mode 'same' returns the longer
    input's length once the kernel outgrows the grid)."""
    h = (len(weights) - 1) // 2
    return np.convolve(vals, weights, mode="full")[h:h + len(vals)]


def picard_step_reference(prev, initial, profile, model, kernel, grid, tau,
                          source_variant=SourceVariant.FULL_DENSITY,
                          conv=conv_same):
    """The integral right-hand side as an explicit O(n_levels^2) lag sum of
    direct spatial convolutions, kernel tables rebuilt on every call."""
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
        r_acc = d2 + conv(excess0, base_w)
        m_acc = conv(initial.mom, base_w)
        for j in range(k):
            m = k - j
            h_mid = 0.5 * (h_lvl[j] + h_lvl[j + 1])
            f_mid = 0.5 * (f_lvl[j] + f_lvl[j + 1])
            s_mid = 0.5 * (s_lvl[j] + s_lvl[j + 1])
            r_acc = r_acc - ds * conv(h_mid, grad_w[m])
            m_acc = m_acc - ds * conv(f_mid, grad_w[m]) \
                + ds * conv(s_mid, smooth_w[m])
        rho_new[k] = r_acc
        mom_new[k] = m_acc

    return PicardIterate(times=times.copy(), rho=rho_new, mom=mom_new)
