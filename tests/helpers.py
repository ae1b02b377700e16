"""Shared oracles for the test suite.

The quadrature oracles deliberately avoid the closed forms in the package:
they integrate the defining integrands with scipy's adaptive routines so a
bug in the closed form cannot hide in its own test.
"""

import math

import numpy as np
from scipy.integrate import quad

from semiflux.field import doping_mass, mass_field_bound, solve_field
from semiflux.model import (Boundary, DeviceProfile, GasModel, HydroState,
                            PressureConvention, _powm1_over)
from semiflux.monitors import (ALL_MONITORS, FIELD_TOL, MASS_TOL,
                               MONITOR_COLUMNS, N_PHI, RIEMANN_TOL, Check,
                               _mechanical_energy, random_test_function)
from semiflux.picard import PicardIterate
from semiflux.relaxation import PositivityError, _dd_faces
from semiflux.solver import (IntegrationError, SourceVariant, StepReport,
                             flux, source)

# overrides of charge-neutral-rest for a periodic bump whose doping carries
# its charge: the 0.8-high, 0.5-wide bump over the 0.5 level, and a doping
# bump of the same mass, so the device is neutral to round-off
NEUTRAL_PERIODIC = {"boundary": "periodic", "bump_amplitude": 0.8,
                    "doping_mass": 0.8 * 0.5 * math.sqrt(math.pi)}


def uniform_profile(grid, a: float = 1.0, b: float = 0.0,
                    e_minus: float = 0.0) -> DeviceProfile:
    """Constant damping `a` and doping `b` on `grid`."""
    n = grid.n_cells
    return DeviceProfile.build(grid, np.full(n, float(a)),
                               np.full(n, float(b)), e_minus)


def p1_quadrature(gamma: float, delta: float, rho: float,
                  convention: PressureConvention) -> float:
    """Adaptive quadrature of the perturbed-pressure integrand
    (t - 2*delta)/t * P'(t) over [2*delta, rho]."""
    model = GasModel(gamma=gamma, delta=delta, pressure_convention=convention)
    lo = 2.0 * delta

    def integrand(t):
        return (t - lo) / t * float(model.dpressure(t))

    val, err = quad(integrand, lo, rho, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def sound_integral_quadrature(model: GasModel, rho: float) -> float:
    """Adaptive quadrature of sqrt(P'(s))/s from 1 to rho."""

    def integrand(s):
        return float(np.sqrt(model.dpressure(s))) / s

    val, err = quad(integrand, 1.0, rho, epsabs=1e-12, epsrel=1e-11, limit=400)
    return val


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


def conv_circular(vals, weights):
    """The circular convolution of period len(vals), a periodic grid's: the
    weight at offset r acts on the cell r cells away mod n, so weights that
    wrap onto one cell, for a kernel wider than the grid, add up there."""
    h = (len(weights) - 1) // 2
    return sum(w * np.roll(vals, r) for r, w in zip(range(-h, h + 1), weights))


def centred_weights(kernel, weights, dx: float, t: float) -> np.ndarray:
    """`weights` (the kernel's `_cells` or `_faces`) at time t on the
    offsets -h dx .. h dx of its half-width h, centred for np.convolve."""
    h = kernel._half_width(dx, t)
    return weights(np.arange(-h, h + 1) * dx, dx, t)


def circular_reference(rows, width: int) -> np.ndarray:
    """Centred odd-length weight rows laid out one at a time for a circular
    convolution of length `width`: the weight at offset r goes to column
    r mod width."""
    out = np.zeros((len(rows), width))
    for i, w in enumerate(rows):
        h = (len(w) - 1) // 2
        out[i, :h + 1] = w[h:]
        out[i, width - h:] = w[:h]
    return out


def picard_step_reference(prev, t1, initial, profile, model, kernel, grid,
                          tau, source_variant=SourceVariant.FULL_DENSITY,
                          conv=conv_same):
    """The integral right-hand side on the slab [0, t1] as an explicit
    O(n_levels^2) lag sum of direct spatial convolutions, kernel tables
    rebuilt on every call."""
    n_lev = len(prev.rho)
    times = np.linspace(0.0, t1, n_lev)
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
        smooth_w.append(centred_weights(kernel, kernel._cells, dx, lag))
        grad_w.append(centred_weights(kernel, kernel._faces, dx, lag))

    rho_new = np.empty_like(prev.rho)
    mom_new = np.empty_like(prev.mom)
    rho_new[0] = initial.rho
    mom_new[0] = initial.mom
    excess0 = initial.rho - d2

    for k in range(1, n_lev):
        t_k = float(times[k])
        base_w = centred_weights(kernel, kernel._cells, dx, t_k)
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

    return PicardIterate(rho=rho_new, mom=mom_new)


def cell_flux(model, rho, mom, u=None, excess=None):
    """`flux` of one cell given as Python floats or 0-d arrays, evaluated
    on one-cell rows (a ufunc on 0-d operands returns a numpy scalar, which
    cannot be the `out` of the next call): a pair of floats."""
    cell = [None if v is None else np.full(1, v, dtype=float)
            for v in (rho, mom, u, excess)]
    return tuple(float(f[0]) for f in flux(model, *cell))


def step_reference(state, profile, model, cfg, grid, t_stop=None):
    """The march step as five separate ghost-cell pads and row-wise updates
    through the viscous face flux
    G = (f_l + f_r) - (alpha + 2 eps/dx) (q_r - q_l), with the checked
    pressure methods; `step` must reproduce it bit for bit."""
    rho, mom = state.rho, state.mom
    dx = grid.dx

    if float(np.min(rho)) < model.admissible_floor:
        raise IntegrationError("density fell below the vacuum offset")
    speed = np.abs(mom / rho) + (rho - model.rho_floor) / rho \
        * np.sqrt(model.dpressure(rho))
    max_speed = float(np.max(speed))
    dt = cfg.cfl / (max_speed / dx + 2.0 * cfg.epsilon / dx ** 2)
    limit = ("advection" if max_speed / dx >= 2.0 * cfg.epsilon / dx ** 2
             else "viscosity")
    t_new = state.time + dt
    if t_stop is not None and dt >= t_stop - state.time:
        dt = t_stop - state.time
        t_new = t_stop
        limit = "clamp"

    # P1 with its rho-free terms recomputed on every call, one formula for
    # every gamma (the tail is log(rho) - log(d2) at gamma = 1)
    d2, g = model.rho_floor, model.gamma
    tail = _powm1_over(rho, g - 1.0) - _powm1_over(d2, g - 1.0)
    if model.pressure_convention is PressureConvention.PLAIN:
        tail = g * tail
    p1 = (model.pressure(rho) - model.pressure(d2)) - d2 * tail

    u = mom / rho
    f1 = (rho - model.rho_floor) * u
    f2 = p1 + (f1 + model.delta * u) * u
    rho_e, mom_e = grid.extend(rho), grid.extend(mom)
    f1_e, f2_e = grid.extend(f1), grid.extend(f2)
    speed_e = grid.extend(speed)

    coeff = np.maximum(speed_e[:-1], speed_e[1:]) + 2.0 * cfg.epsilon / dx
    g1 = (f1_e[:-1] + f1_e[1:]) - coeff * (rho_e[1:] - rho_e[:-1])
    g2 = (f2_e[:-1] + f2_e[1:]) - coeff * (mom_e[1:] - mom_e[:-1])

    rho_new = rho - (0.5 * dt / dx) * (g1[1:] - g1[:-1])
    mom_star = mom - (0.5 * dt / dx) * (g2[1:] - g2[:-1])

    excess = rho - model.rho_floor
    e_vals = solve_field(excess, profile, grid)
    if cfg.source_variant is SourceVariant.FULL_DENSITY:
        mom_star = mom_star + dt * rho * e_vals
        rate = profile.a_vals / cfg.tau
    else:
        mom_star = mom_star + dt * excess * e_vals
        rate = profile.a_vals * (rho_new - model.rho_floor) / rho_new / cfg.tau
    mom_new = mom_star * np.exp(-rate * dt)

    if not (np.all(np.isfinite(rho_new)) and np.all(np.isfinite(mom_new))):
        raise IntegrationError("non-finite state")

    report = StepReport(dt_used=dt, post_step_min_rho=float(np.min(rho_new)),
                        limit=limit)
    return HydroState(rho=rho_new, mom=mom_new, time=t_new), report


def run_reference(initial, profile, model, cfg, grid, cadence=50,
                  record_times=None, max_steps=None):
    """The march as a plain loop of `step_reference`, each step clamped to
    t_end or the next record instant as `run` clamps it, cut after
    `max_steps` steps (None: never) with the last state recorded; returns
    (steps, times, rho, mom, min_rho, dts, limits), every record a copy,
    `min_rho` each record's lowest density over the steps since the record
    before it (the first record's own minimum) and `limits` the step count
    per `StepReport.limit`."""
    tiny = 1e-12 * max(cfg.t_end, 1.0)
    pending = [float(t) for t in record_times or () if 0.0 < t <= cfg.t_end]
    state, k, nxt, dts = initial, 0, 0, []
    limits = dict.fromkeys(("advection", "viscosity", "clamp"), 0)
    records = [(0, state.time, state.rho.copy(), state.mom.copy())]
    lows, since = [float(np.min(state.rho))], []
    while state.time < cfg.t_end - tiny and k != max_steps:
        target = min(t for t in [cfg.t_end, *pending[nxt:nxt + 1]]
                     if t > state.time + tiny)
        state, rep = step_reference(state, profile, model, cfg, grid,
                                    t_stop=target)
        k += 1
        dts.append(rep.dt_used)
        limits[rep.limit] += 1
        since.append(rep.post_step_min_rho)
        if record_times is None:
            due = k % cadence == 0
        else:
            due = nxt < len(pending) and state.time >= pending[nxt] - tiny
            nxt += int(due)
        if due or state.time >= cfg.t_end - tiny:
            records.append((k, state.time, state.rho.copy(), state.mom.copy()))
            lows.append(min(since))
            since = []
    if since:  # cut short: the last state is a record too
        records.append((k, state.time, state.rho.copy(), state.mom.copy()))
        lows.append(min(since))
    steps, times, rhos, moms = zip(*records)
    return (np.array(steps), np.array(times), np.stack(rhos), np.stack(moms),
            np.array(lows), dts, limits)


def monitor_table_reference(traj, enabled=ALL_MONITORS):
    """The monitor table and the per-record `Check` rows, one record at a
    time: the field solved per record, Python `max` for M2 and a record's
    top invariant, a running maximum of the field bound from 0.0, and the
    last earlier finite mass.  Returns ({column name: array}, checks);
    `evaluate_trajectory` must reproduce both bit for bit."""
    model, grid, profile = traj.model, traj.grid, traj.profile
    floor, doping = model.rho_floor, doping_mass(profile, grid)
    table = {name: [] for name in MONITOR_COLUMNS}
    checks, m1_running = [], 0.0
    for step, t, rho, mom in zip(traj.steps.tolist(), traj.times.tolist(),
                                 traj.rho, traj.mom):
        rho_safe = np.maximum(rho, floor)
        z, w = model.riemann_invariants(rho_safe, mom)
        mass = float(grid.dx * np.sum(rho - floor))
        z_max, w_max = float(np.max(z)), float(np.max(w))
        if not table["step"]:  # record 0: the initial mass and M2
            mass0 = prev_mass = mass
            m2 = max(z_max, w_max)
        dyn_bound = mass_field_bound(mass, doping, profile.e_minus)
        m1_running = max(m1_running, dyn_bound)
        r_bound = m2 + m1_running * t
        r_top = max(z_max, w_max)
        min_rho = float(np.min(rho))
        sup_field = float(np.max(np.abs(solve_field(rho - floor, profile,
                                                    grid))))
        row = {"step": step, "time": t, "mass": mass, "min_rho": min_rho,
               "sup_rho": float(np.max(rho)),
               "sup_abs_u": float(np.max(np.abs(mom / rho_safe))),
               "sup_abs_field": sup_field, "field_bound": dyn_bound,
               "z_max": z_max, "w_max": w_max, "riemann_bound": r_bound}
        for name, value in row.items():
            table[name].append(value)

        mass_scale = max(1.0, abs(mass0))
        if grid.boundary is Boundary.PERIODIC:
            slack = MASS_TOL * mass_scale * max(1.0, step / 1000.0)
            mass_row = ("mass", mass, mass0, abs(mass - mass0) <= slack)
        else:
            slack = MASS_TOL * mass_scale
            mass_row = ("mass", mass, prev_mass,
                        mass <= prev_mass + slack and mass <= mass0 + slack)
        # each pass rule `value <op> bound`, which a nan fails
        bounds = (
            ("positivity", min_rho, model.admissible_floor,
             min_rho >= model.admissible_floor),
            mass_row,
            ("field", sup_field, dyn_bound,
             sup_field <= dyn_bound * (1.0 + FIELD_TOL) + FIELD_TOL),
            ("riemann", r_top, r_bound, r_bound - r_top >= -RIEMANN_TOL))
        checks += [Check(*rule, t) for rule in bounds if rule[0] in enabled]
        if math.isfinite(mass):  # the last finite mass judges the next
            prev_mass = mass
    return {name: np.array(values) for name, values in table.items()}, checks


def fmt(x) -> str:
    """One value as the run store renders it, 17 significant digits."""
    return format(float(x), ".17g")


def table_text_reference(meta, columns):
    """A stored table with every value formatted by its own `fmt` call and
    one join per row; `_table_text` must reproduce it byte for byte."""
    lines = [f"# {key} = {fmt(val)}" for key, val in meta.items()]
    lines.append("# columns: " + " ".join(columns))
    for row in zip(*(c.tolist() for c in columns.values())):
        lines.append(" ".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def csv_text_reference(columns, rows):
    """A CSV with every value formatted by its own `fmt` call and one join
    per row; `csv_text` must reproduce it byte for byte."""
    lines = [",".join(columns)] + [",".join(fmt(v) for v in row)
                                   for row in rows]
    return "\n".join(lines) + "\n"


def convexity_check(eta, rho_samples, mom_samples, h: float = 1e-4) -> float:
    """Smallest eigenvalue of the finite-difference Hessian of the entropy
    eta(rho, m) over the sampled states (should be >= 0 for a convex
    entropy)."""
    worst = math.inf
    for rho, mom in zip(np.atleast_1d(rho_samples), np.atleast_1d(mom_samples)):
        hr = h * max(1.0, abs(rho))
        hm = h * max(1.0, abs(mom))
        e = eta
        h11 = (e(rho + hr, mom) - 2.0 * e(rho, mom) + e(rho - hr, mom)) / hr ** 2
        h22 = (e(rho, mom + hm) - 2.0 * e(rho, mom) + e(rho, mom - hm)) / hm ** 2
        h12 = (e(rho + hr, mom + hm) - e(rho + hr, mom - hm)
               - e(rho - hr, mom + hm) + e(rho - hr, mom - hm)) / (4.0 * hr * hm)
        tr, det_d = h11 + h22, h11 - h22
        lam_min = 0.5 * (tr - math.sqrt(det_d ** 2 + 4.0 * h12 ** 2))
        worst = min(worst, float(lam_min))
    return worst


def bump_reference(xi):
    """(g, g') at xi, each written out on its own: g = exp(-1/(1 - xi^2))
    inside |xi| < 1 and 0 outside, g' = g * (-2 xi / (1 - xi^2)^2)."""
    xi = np.asarray(xi, dtype=float)
    g, dg = np.zeros_like(xi), np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    xin = xi[inside]
    with np.errstate(divide="ignore", over="ignore"):
        g[inside] = np.exp(-1.0 / (1.0 - xin ** 2))
        dg[inside] = np.exp(-1.0 / (1.0 - xin ** 2)) \
            * (-2.0 * xin / (1.0 - xin ** 2) ** 2)
    return g, dg


def phi_reference(phi, x, t):
    """(phi, phi_x, phi_t) of a bump, each from its own bump evaluations."""
    gx, dgx = bump_reference((x - phi.x_center) / phi.x_width)
    gt, dgt = bump_reference((t - phi.t_center) / phi.t_width)
    return gx * gt, dgx / phi.x_width * gt, gx * dgt / phi.t_width


def entropy_residual_reference(traj, profile, phi, tau,
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
        eta, q, eta_m = _mechanical_energy(model, rho, mom)
        integrand = eta * p_t + q * p_x + src * eta_m * p
        vals[k] = grid.dx * float(np.sum(integrand))
    return float(np.trapezoid(vals, traj.times))


def entropy_scale_reference(traj, profile, tau,
                            source_variant=SourceVariant.FULL_DENSITY):
    """The tolerance scale as its own walk over the trajectory, each
    record's field solved on its own."""
    scale = 0.0
    for rho, mom in zip(traj.rho, traj.mom):
        e_vals = solve_field(rho - traj.model.rho_floor, profile, traj.grid)
        src = source(source_variant, traj.model, rho, mom, e_vals,
                     profile.a_vals, tau)
        eta, q, eta_m = _mechanical_energy(traj.model, rho, mom)
        scale = max(scale,
                    float(np.max(np.abs(eta))),
                    float(np.max(np.abs(q))),
                    float(np.max(np.abs(src * eta_m))))
    return scale


def entropy_spot_check_pairs_reference(traj, profile, tau, epsilon, seed,
                                       source_variant=SourceVariant.FULL_DENSITY):
    """(residual, tolerance) per test function from the per-function
    walks, drawing the test functions as `entropy_spot_check` does."""
    times, grid = traj.times, traj.grid
    scale = entropy_scale_reference(traj, profile, tau, source_variant)
    mean_gap = (times[-1] - times[0]) / (len(times) - 1)
    tol = (grid.dx + epsilon + mean_gap) * max(scale, 1e-30)
    rng = np.random.default_rng(seed)
    span = times[-1] - times[0]
    out = []
    for _ in range(N_PHI):
        phi = random_test_function(rng, grid.x_min, grid.x_max,
                                   times[0] + 0.05 * span,
                                   times[-1] - 0.05 * span)
        out.append((entropy_residual_reference(traj, profile, phi, tau,
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
    residual, _, _ = _dd_faces(n_vals, n_vals, upsilon, profile, model, grid)
    dt = dt_s
    for _ in range(41):
        n_new = n_vals + dt * residual
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
