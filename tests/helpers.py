"""Shared oracles for the test suite.

The quadrature oracles deliberately avoid the closed forms in the package:
they integrate the defining integrands with scipy's adaptive routines so a
bug in the closed form cannot hide in its own test.
"""

import numpy as np
from scipy.integrate import quad

from semiflux.field import solve_field
from semiflux.model import (GasModel, HydroState, PressureConvention,
                            _powm1_over)
from semiflux.monitors import (TestFunction, mechanical_energy_pair,
                               random_test_function)
from semiflux.picard import PicardIterate
from semiflux.relaxation import PositivityError, _dd_face_flux
from semiflux.reporting import fmt
from semiflux.solver import (IntegrationError, SourceVariant, StepReport,
                             flux, source)


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


def perturbed_pressure_reference(model, rho):
    """P1 with its rho-free terms recomputed on every call."""
    rho = np.asarray(rho, dtype=float)
    d2 = model.rho_floor
    g = model.gamma
    if g == 1.0:
        return (rho - d2 * np.log(rho)) - (d2 - d2 * np.log(d2))
    tail = _powm1_over(rho, g - 1.0) - _powm1_over(d2, g - 1.0)
    if model.convention is PressureConvention.PLAIN:
        tail = g * tail
    return (model.pressure(rho) - model.pressure(d2)) - d2 * tail


def step_reference(state, profile, model, cfg, grid, t_stop=None):
    """The march step as five separate ghost-cell pads and row-wise updates,
    with the checked pressure methods; `step` must reproduce it bit for
    bit."""
    rho, mom = state.rho, state.mom
    dx = grid.dx

    if float(np.min(rho)) < model.admissible_floor:
        raise IntegrationError("density fell below the vacuum offset",
                               state, state.time)
    speed = np.abs(mom / rho) + (rho - model.rho_floor) / rho \
        * model.sound_speed(rho)
    max_speed = float(np.max(speed))
    dt = cfg.cfl / (max_speed / dx + 2.0 * cfg.epsilon / dx ** 2)
    t_new = state.time + dt
    if t_stop is not None and dt >= t_stop - state.time:
        dt = t_stop - state.time
        t_new = t_stop

    u = mom / rho
    f1 = (rho - model.rho_floor) * u
    f2 = mom * u - model.delta * u * u + perturbed_pressure_reference(model,
                                                                      rho)
    rho_e, mom_e = grid.extend(rho), grid.extend(mom)
    f1_e, f2_e = grid.extend(f1), grid.extend(f2)
    speed_e = grid.extend(speed)

    alpha = np.maximum(speed_e[:-1], speed_e[1:])
    flux1 = 0.5 * (f1_e[:-1] + f1_e[1:]) - 0.5 * alpha * (rho_e[1:] - rho_e[:-1])
    flux2 = 0.5 * (f2_e[:-1] + f2_e[1:]) - 0.5 * alpha * (mom_e[1:] - mom_e[:-1])

    visc_rho = cfg.epsilon * (rho_e[2:] - 2.0 * rho + rho_e[:-2]) / dx ** 2
    visc_mom = cfg.epsilon * (mom_e[2:] - 2.0 * mom + mom_e[:-2]) / dx ** 2

    rho_new = rho - (dt / dx) * (flux1[1:] - flux1[:-1]) + dt * visc_rho
    mom_star = mom - (dt / dx) * (flux2[1:] - flux2[:-1]) + dt * visc_mom

    excess = state.excess(model)
    e_vals = solve_field(excess, profile, grid)
    if cfg.source_variant is SourceVariant.FULL_DENSITY:
        mom_star = mom_star + dt * rho * e_vals
        rate = profile.a_vals / cfg.tau
    else:
        mom_star = mom_star + dt * excess * e_vals
        rate = profile.a_vals * (rho_new - model.rho_floor) / rho_new / cfg.tau
    mom_new = mom_star * np.exp(-rate * dt)

    if not (np.all(np.isfinite(rho_new)) and np.all(np.isfinite(mom_new))):
        raise IntegrationError("non-finite state", state, state.time)

    report = StepReport(dt_used=dt, max_wave_speed=max_speed,
                        post_step_min_rho=float(np.min(rho_new)))
    return HydroState(rho=rho_new, mom=mom_new, time=t_new), report


def table_text_reference(meta, columns):
    """A stored table with every value formatted by its own `fmt` call and
    one join per row; `_table_text` must reproduce it byte for byte."""
    lines = [f"# {key} = {fmt(val)}" for key, val in meta.items()]
    lines.append("# columns: " + " ".join(columns))
    for row in zip(*(c.tolist() for c in columns.values())):
        lines.append(" ".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def phi_reference(phi, x, t):
    """(phi, phi_x, phi_t) of a bump, each from its own bump evaluations."""
    bump, dbump = TestFunction._bump, TestFunction._dbump
    xi_x = (x - phi.x_center) / phi.x_width
    xi_t = (t - phi.t_center) / phi.t_width
    return (bump(xi_x) * bump(xi_t),
            dbump(xi_x) / phi.x_width * bump(xi_t),
            bump(xi_x) * dbump(xi_t) / phi.t_width)


def entropy_residual_reference(traj, profile, pair, phi, tau,
                               source_variant=SourceVariant.FULL_DENSITY):
    """The weak-form residual as one walk over the trajectory per test
    function, every density and each record's field re-evaluated on each
    walk."""
    model, grid = traj.model, traj.grid
    x = grid.centers
    vals = np.empty(len(traj.times))
    for k, (t, rho, mom) in enumerate(zip(traj.times, traj.rho, traj.mom)):
        e_vals = solve_field(rho - model.rho_floor, profile, grid)
        src = source(source_variant, model, rho, mom, e_vals,
                     profile.a_vals, tau)
        p, p_x, p_t = phi_reference(phi, x, t)
        integrand = (pair.eta(rho, mom) * p_t + pair.q(rho, mom) * p_x
                     + src * pair.eta_m(rho, mom) * p)
        vals[k] = grid.dx * float(np.sum(integrand))
    return float(np.trapezoid(vals, traj.times))


def entropy_scale_reference(traj, profile, pair, tau,
                            source_variant=SourceVariant.FULL_DENSITY):
    """The tolerance scale as its own walk over the trajectory, each
    record's field solved on its own."""
    scale = 0.0
    for rho, mom in zip(traj.rho, traj.mom):
        e_vals = solve_field(rho - traj.model.rho_floor, profile, traj.grid)
        src = source(source_variant, traj.model, rho, mom, e_vals,
                     profile.a_vals, tau)
        scale = max(scale,
                    float(np.max(np.abs(pair.eta(rho, mom)))),
                    float(np.max(np.abs(pair.q(rho, mom)))),
                    float(np.max(np.abs(src * pair.eta_m(rho, mom)))))
    return scale


def entropy_spot_check_pairs_reference(traj, profile, tau, epsilon, seed,
                                       n_phi=3,
                                       source_variant=SourceVariant.FULL_DENSITY):
    """(residual, tolerance) per test function from the per-function
    walks, drawing the test functions as `entropy_spot_check` does."""
    times, grid = traj.times, traj.grid
    pair = mechanical_energy_pair(traj.model)
    scale = entropy_scale_reference(traj, profile, pair, tau, source_variant)
    mean_gap = (times[-1] - times[0]) / (len(times) - 1)
    tol = (grid.dx + epsilon + mean_gap) * max(scale, 1e-30)
    rng = np.random.default_rng(seed)
    span = times[-1] - times[0]
    out = []
    for _ in range(n_phi):
        phi = random_test_function(rng, grid.x_min, grid.x_max,
                                   times[0] + 0.05 * span,
                                   times[-1] - 0.05 * span)
        out.append((entropy_residual_reference(traj, profile, pair, phi, tau,
                                               source_variant), tol))
    return out


def explicit_dd_dt(n_vals, upsilon, profile, model, grid, cfl):
    """The explicit drift-diffusion step limit: the dx^2 diffusion limit
    cfl dx^2 min a / (2 max P') and the drift limit
    cfl dx min a / max |Upsilon|."""
    a_min = float(np.min(profile.a_vals))
    diff = float(np.max(model.dpressure(np.maximum(n_vals, 0.0))))
    drift = float(np.max(np.abs(upsilon)))
    dt = cfl * grid.dx ** 2 * a_min / (2.0 * diff) if diff > 0.0 else np.inf
    if drift > 0.0:
        dt = min(dt, cfl * grid.dx * a_min / drift)
    return dt


def explicit_dd_step(n_vals, upsilon, profile, model, grid, dt_s):
    """Forward-Euler conservative update of N, dt halved on a positivity
    violation up to 40 times; returns (n_new, dt_used)."""
    j_face = _dd_face_flux(n_vals, upsilon, profile, model, grid)
    dt = dt_s
    for _ in range(41):
        n_new = n_vals - (dt / grid.dx) * (j_face[1:] - j_face[:-1])
        if np.all(n_new >= 0.0):
            return n_new, dt
        dt *= 0.5
    raise PositivityError("explicit reference stayed negative")


def explicit_dd_run(n0, profile, model, grid, s_records, cfl=0.45):
    """The explicit drift-diffusion reference: N (k, n_cells) at each of the
    increasing slow times `s_records`, the first of which is 0."""
    n_vals = np.asarray(n0, dtype=float)
    upsilon = solve_field(n_vals, profile, grid)
    out, s = [n_vals], 0.0
    for target in s_records[1:]:
        while s < target:
            gap = target - s
            dt = min(explicit_dd_dt(n_vals, upsilon, profile, model, grid,
                                    cfl), gap)
            n_vals, dt_used = explicit_dd_step(n_vals, upsilon, profile,
                                               model, grid, dt)
            upsilon = solve_field(n_vals, profile, grid)
            s = target if dt_used == gap else s + dt_used
        out.append(n_vals)
    return np.array(out)
