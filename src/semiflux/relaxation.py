"""Relaxation scaling and the drift-diffusion comparison solver.

In the slow time s = tau * t with J = m / tau, the damped system formally
limits onto

    N_s + J_x = 0,     a(x) J = N Upsilon - P(N)_x,     Upsilon_x = N - b,

as tau -> 0 with delta = tau and eps shrinking like o(sqrt(P'(2*delta)) tau).
This module rescales recorded hydro runs, integrates the limit system with an
explicit conservative scheme (vacuum offset set to zero), and drives the
tau-ladder study measuring the L1 gap between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import trapezoid

from .field import solve_field
from .model import (ConfigurationError, DeviceProfile, GasModel, Grid1D,
                    PressureConvention)
from .monitors import dissipation_integral
from .solver import SolverConfig, SourceVariant, Trajectory, prepare_initial, run


@dataclass
class ScaledTrajectory:
    """Hydro run re-read in slow time: N = rho, J = m/tau."""

    tau: float
    s_values: np.ndarray
    n_vals: np.ndarray        # (n_samples, n_cells)
    j_vals: np.ndarray
    grid: Grid1D
    rho_floor: float


def rescale(traj: Trajectory, tau: float, s_values) -> ScaledTrajectory:
    """Sample the recorded trajectory at t = s/tau (nearest recorded time)."""
    s_values = np.asarray(s_values, dtype=float)
    times = traj.times
    horizon = times[-1] * tau
    tiny = 1e-9 * max(1.0, horizon)
    if np.any(s_values < 0.0) or np.any(s_values > horizon + tiny):
        raise ValueError(
            f"scaled instants must lie in [0, {horizon!r}]; got "
            f"[{s_values.min()!r}, {s_values.max()!r}]")
    n_rows, j_rows = [], []
    for s in s_values:
        idx = int(np.argmin(np.abs(times - s / tau)))
        snap = traj.snapshots[idx]
        n_rows.append(snap.rho)
        j_rows.append(snap.mom / tau)
    return ScaledTrajectory(tau=tau, s_values=s_values,
                            n_vals=np.array(n_rows), j_vals=np.array(j_rows),
                            grid=traj.grid, rho_floor=traj.model.rho_floor)


# --- drift-diffusion limit solver ------------------------------------------

class PositivityError(RuntimeError):
    pass


@dataclass
class DriftDiffusionState:
    n_vals: np.ndarray
    upsilon: np.ndarray
    time: float = 0.0


def _dd_face_flux(n_vals, upsilon, profile: DeviceProfile, model: GasModel,
                  grid: Grid1D) -> np.ndarray:
    """a J = N Upsilon - P(N)_x on the n_cells+1 faces (centered averages,
    pressure gradient split onto faces)."""
    n_e = grid.extend(np.asarray(n_vals, dtype=float))
    up_e = grid.extend(np.asarray(upsilon, dtype=float))
    a_e = grid.extend(profile.a_vals)
    drift_e = n_e * up_e
    p_e = model.pressure(n_e)
    drift_face = 0.5 * (drift_e[:-1] + drift_e[1:])
    grad_face = (p_e[1:] - p_e[:-1]) / grid.dx
    a_face = 0.5 * (a_e[:-1] + a_e[1:])
    return (drift_face - grad_face) / a_face


def dd_stable_dt(n_vals, upsilon, profile: DeviceProfile, model: GasModel,
                 grid: Grid1D, cfl: float) -> float:
    a_min = float(np.min(profile.a_vals))
    diff = float(np.max(model.dpressure(np.maximum(n_vals, 0.0))))
    drift = float(np.max(np.abs(upsilon)))
    dt = cfl * grid.dx ** 2 * a_min / (2.0 * diff) if diff > 0.0 else math.inf
    if drift > 0.0:
        dt = min(dt, cfl * grid.dx * a_min / drift)
    return dt


def drift_diffusion_step(state: DriftDiffusionState, profile: DeviceProfile,
                         model: GasModel, grid: Grid1D, dt_s: float):
    """Conservative explicit update; halves dt on a positivity violation and
    gives up after 40 halvings.  Returns (new_state, dt_used)."""
    n_vals = state.n_vals
    upsilon = solve_field(n_vals, profile, grid)
    j_face = _dd_face_flux(n_vals, upsilon, profile, model, grid)
    dt = dt_s
    for _ in range(41):
        n_new = n_vals - (dt / grid.dx) * (j_face[1:] - j_face[:-1])
        if np.all(n_new >= 0.0):
            up_new = solve_field(n_new, profile, grid)
            return (DriftDiffusionState(n_vals=n_new, upsilon=up_new,
                                        time=state.time + dt), dt)
        dt *= 0.5
    raise PositivityError(
        f"drift-diffusion density stayed negative after 40 dt halvings "
        f"at s = {state.time!r}")


@dataclass
class DDTrajectory:
    s_values: np.ndarray
    n_vals: np.ndarray
    upsilon_vals: np.ndarray
    grid: Grid1D


def drift_diffusion_run(n0, profile: DeviceProfile, model: GasModel,
                        grid: Grid1D, s_end: float, record_times=None,
                        cfl: float = 0.45, max_steps: int = 10 ** 7) -> DDTrajectory:
    n0 = np.asarray(n0, dtype=float)
    if np.any(n0 < 0.0):
        raise ValueError("initial density must be non-negative")
    state = DriftDiffusionState(n_vals=n0.copy(),
                                upsilon=solve_field(n0, profile, grid),
                                time=0.0)
    rec = sorted(float(t) for t in (record_times if record_times is not None else [])
                 if 0.0 < t <= s_end)
    s_out, n_out, u_out = [0.0], [state.n_vals.copy()], [state.upsilon.copy()]
    tiny = 1e-12 * max(s_end, 1.0)
    next_rec = 0
    k = 0
    while state.time < s_end - tiny and k < max_steps:
        target = s_end
        if next_rec < len(rec) and rec[next_rec] > state.time + tiny:
            target = min(target, rec[next_rec])
        dt = dd_stable_dt(state.n_vals, state.upsilon, profile, model, grid, cfl)
        dt = min(dt, target - state.time)
        gap = target - state.time
        state, dt_used = drift_diffusion_step(state, profile, model, grid, dt)
        if dt_used >= gap - tiny:
            state.time = target
        k += 1
        due = False
        while next_rec < len(rec) and state.time >= rec[next_rec] - tiny:
            next_rec += 1
            due = True
        if due or state.time >= s_end - tiny:
            s_out.append(state.time)
            n_out.append(state.n_vals.copy())
            u_out.append(state.upsilon.copy())
    return DDTrajectory(s_values=np.array(s_out), n_vals=np.array(n_out),
                        upsilon_vals=np.array(u_out), grid=grid)


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


@dataclass
class StudyResult:
    rows: list
    monotone: bool
    s_values: np.ndarray
    reference: DDTrajectory
    scaled: list
    manifest: dict = field(default_factory=dict)


def validate_tau_ladder(tau_list) -> list:
    taus = [float(t) for t in tau_list]
    if len(taus) < 3:
        raise ConfigurationError("tau ladder needs at least 3 entries")
    for a, b in zip(taus, taus[1:]):
        if not math.isclose(b, 0.5 * a, rel_tol=1e-9):
            raise ConfigurationError("each tau must halve the previous one")
    return taus


def scaled_l1_gap(scaled: ScaledTrajectory, reference: DDTrajectory,
                  window, s_min: float) -> float:
    """L1 norm of N^tau - N_ref over the spatial window and s >= s_min."""
    x = scaled.grid.centers
    mask = (x >= window[0]) & (x <= window[1])
    keep = scaled.s_values >= s_min - 1e-12
    diff = np.abs(scaled.n_vals[:, mask] - reference.n_vals[:, mask])
    per_s = scaled.grid.dx * np.sum(diff, axis=1)
    return float(trapezoid(per_s[keep], scaled.s_values[keep]))


def relaxation_study(raw_rho, raw_u, a_vals, b_vals, e_minus: float,
                     grid: Grid1D, gamma: float,
                     convention: PressureConvention, tau_list,
                     coupling: CouplingRule = CouplingRule(),
                     horizon: float = 0.25, window=None,
                     n_s_records: int = 21, s0_frac: float = 0.05,
                     cfl: float = 0.45, smoothing_width: float = 0.0) -> StudyResult:
    """Run the hydro solver along the tau ladder, rescale, and compare with
    one drift-diffusion reference computed on the same grid."""
    taus = validate_tau_ladder(tau_list)
    if window is None:
        window = (grid.x_min, grid.x_max)
    s_records = np.linspace(0.0, horizon, n_s_records)
    s_min = s0_frac * horizon

    # mollify exactly as the hydro initial data, minus the vacuum offset
    probe_model = GasModel(gamma=gamma, delta=taus[0],
                           convention=convention)
    probe_cfg = SolverConfig(epsilon=1.0, tau=1.0, t_end=0.0,
                             smoothing_width=smoothing_width)
    n0 = prepare_initial(raw_rho, raw_u, probe_model, probe_cfg, grid).rho \
        - probe_model.rho_floor
    profile = DeviceProfile.build(grid, a_vals, b_vals, e_minus)
    reference = drift_diffusion_run(n0, profile, probe_model, grid,
                                    s_end=horizon, record_times=s_records[1:],
                                    cfl=cfl)
    if len(reference.s_values) != len(s_records):
        raise RuntimeError("reference recording misaligned with the s ladder")

    rows, scaled_all = [], []
    for tau in taus:
        delta = coupling.delta(tau)
        eps = coupling.epsilon(tau, gamma, convention)
        model = GasModel(gamma=gamma, delta=delta, convention=convention)
        cfg = SolverConfig(epsilon=eps, tau=tau, cfl=cfl,
                           t_end=horizon / tau,
                           source_variant=SourceVariant.EXCESS_DENSITY,
                           smoothing_width=smoothing_width)
        initial = prepare_initial(raw_rho, raw_u, model, cfg, grid)
        traj = run(initial, profile, model, cfg, grid,
                   record_times=s_records[1:] / tau)
        if not traj.completed:
            raise RuntimeError(f"hydro run failed at tau={tau}")
        scaled = rescale(traj, tau, s_records)
        gap = scaled_l1_gap(scaled, reference, window, s_min)
        diss = dissipation_integral(scaled.s_values, scaled.n_vals,
                                    scaled.j_vals, model.rho_floor, grid.dx)
        rows.append(StudyRow(tau=tau, epsilon=eps, delta=delta,
                             l1_error=gap, dissipation=diss))
        scaled_all.append(scaled)

    errors = [r.l1_error for r in rows]
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    manifest = {
        "gamma": gamma,
        "pressure_convention": convention.value,
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max,
                 "n_cells": grid.n_cells, "boundary": grid.boundary.value},
        "tau_list": taus,
        "coupling": {"eps_coeff": coupling.eps_coeff,
                     "eps_power": coupling.eps_power,
                     "eps_fixed": coupling.eps_fixed,
                     "delta_coeff": coupling.delta_coeff},
        "horizon": horizon,
        "window": [window[0], window[1]],
        "s0": s_min,
        "n_s_records": n_s_records,
        "smoothing_width": smoothing_width,
        "e_minus": e_minus,
    }
    return StudyResult(rows=rows, monotone=monotone, s_values=s_records,
                       reference=reference, scaled=scaled_all,
                       manifest=manifest)
