"""Relaxation scaling and the drift-diffusion comparison solver.

In the slow time s = tau * t with J = m / tau, the damped system formally
limits onto

    N_s + J_x = 0,     a(x) J = N Upsilon - P(N)_x,     Upsilon_x = N - b,

as tau -> 0 with delta = tau and eps shrinking like o(sqrt(P'(2*delta)) tau).
This module integrates the limit system with an explicit conservative scheme
(vacuum offset set to zero) and drives the tau-ladder study on a scenario's
RunSetup, the same one `solve` and `picard` build: each rung swaps delta and
the solver coefficients into the setup's model and config, each hydro run
records exactly at t = s/tau, its rows are read as N = rho and J = m/tau,
and the L1 gap to the reference is reported twice, on N (l1_error) and on
N - 2 delta (l1_net, free of the vacuum offset the reference lacks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .field import solve_field
from .model import (ConfigurationError, DeviceProfile, GasModel, Grid1D,
                    PressureConvention)
from .scenarios import RunSetup
from .solver import SourceVariant, prepare_initial, run


# --- drift-diffusion limit solver ------------------------------------------

class PositivityError(RuntimeError):
    pass


def _dd_face_flux(n_vals, upsilon, profile: DeviceProfile, model: GasModel,
                  grid: Grid1D) -> np.ndarray:
    """a J = N Upsilon - P(N)_x on the n_cells+1 faces (centered averages,
    pressure gradient split onto faces)."""
    n_e, up_e, a_e = grid.extend(
        np.stack((n_vals, upsilon, profile.a_vals), dtype=float))
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


def drift_diffusion_step(n_vals, upsilon, profile: DeviceProfile,
                         model: GasModel, grid: Grid1D, dt_s: float):
    """Conservative explicit update from N with its field Upsilon; halves dt
    on a positivity violation and gives up after 40 halvings.  Returns
    (n_new, upsilon_new, dt_used), the new field solved once."""
    j_face = _dd_face_flux(n_vals, upsilon, profile, model, grid)
    dt = dt_s
    for _ in range(41):
        n_new = n_vals - (dt / grid.dx) * (j_face[1:] - j_face[:-1])
        if np.all(n_new >= 0.0):
            return n_new, solve_field(n_new, profile, grid), dt
        dt *= 0.5
    raise PositivityError(
        "drift-diffusion density stayed negative after 40 dt halvings")


@dataclass
class DDTrajectory:
    s_values: np.ndarray
    n_vals: np.ndarray
    upsilon_vals: np.ndarray
    grid: Grid1D


def drift_diffusion_run(n0, profile: DeviceProfile, model: GasModel,
                        grid: Grid1D, s_end: float, record_times=None,
                        cfl: float = 0.45, max_steps: int = 10 ** 7) -> DDTrajectory:
    """March N from s = 0 to s_end, recording s = 0, each of `record_times`
    and s_end.  Raises RuntimeError if `max_steps` stops it short of s_end."""
    n0 = np.asarray(n0, dtype=float)
    if np.any(n0 < 0.0):
        raise ValueError("initial density must be non-negative")
    n_vals, upsilon, s = n0.copy(), solve_field(n0, profile, grid), 0.0
    rec = sorted(float(t) for t in (record_times if record_times is not None else [])
                 if 0.0 < t <= s_end)
    s_out, n_out, u_out = [0.0], [n_vals], [upsilon]
    tiny = 1e-12 * max(s_end, 1.0)
    next_rec = 0
    k = 0
    while s < s_end - tiny and k < max_steps:
        target = s_end
        if next_rec < len(rec) and rec[next_rec] > s + tiny:
            target = min(target, rec[next_rec])
        dt = dd_stable_dt(n_vals, upsilon, profile, model, grid, cfl)
        gap = target - s
        try:
            n_vals, upsilon, dt_used = drift_diffusion_step(
                n_vals, upsilon, profile, model, grid, min(dt, gap))
        except PositivityError as err:
            raise PositivityError(f"{err} at s = {s!r}") from None
        s = target if dt_used >= gap - tiny else s + dt_used
        k += 1
        due = False
        while next_rec < len(rec) and s >= rec[next_rec] - tiny:
            next_rec += 1
            due = True
        if due or s >= s_end - tiny:
            s_out.append(s)
            n_out.append(n_vals)
            u_out.append(upsilon)
    if s < s_end - tiny:
        raise RuntimeError(f"drift-diffusion reference stopped by max_steps = "
                           f"{max_steps} at s = {s!r}, before s_end = {s_end!r}")
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
    l1_net: float


@dataclass
class StudyResult:
    rows: list
    monotone: bool
    s_values: np.ndarray
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
    """int_0^L int (N - 2*delta) (J/N)^2 dx ds over a scaled trajectory."""
    n_vals = np.asarray(n_vals, dtype=float)
    j_vals = np.asarray(j_vals, dtype=float)
    u = j_vals / n_vals
    per_s = dx * np.sum((n_vals - rho_floor) * u ** 2, axis=1)
    return float(np.trapezoid(per_s, np.asarray(s_values, dtype=float)))


def relaxation_study(setup: RunSetup, tau_list,
                     coupling: CouplingRule = CouplingRule(),
                     horizon: float = 0.25, window=None,
                     n_s_records: int = 21,
                     s0_frac: float = 0.05) -> StudyResult:
    """Run the hydro solver along the tau ladder on `setup`'s device (grid,
    profile, raw initial data, gas law, cfl and smoothing width), read each
    run's rows at t = s/tau as N = rho and J = m/tau, and compare with one
    drift-diffusion reference computed on the same grid."""
    grid, profile = setup.grid, setup.profile
    gamma, convention = setup.model.gamma, setup.model.convention
    taus = validate_tau_ladder(tau_list)
    if not horizon > 0.0 or n_s_records < 2:
        raise ConfigurationError("need horizon > 0 and n_s_records >= 2")
    if window is None:
        window = (grid.x_min, grid.x_max)
    s_records = np.linspace(0.0, horizon, n_s_records)
    s_min = s0_frac * horizon
    late = s_records >= s_min - 1e-12
    cols = (grid.centers >= window[0]) & (grid.centers <= window[1])
    if np.count_nonzero(late) < 2:
        raise ConfigurationError(
            f"s0_frac = {s0_frac!r} leaves fewer than two s records")
    if not cols.any():
        raise ConfigurationError(
            f"window [{window[0]!r}, {window[1]!r}] holds no cell centre")

    # mollify exactly as the hydro initial data, minus the vacuum offset
    ref_model = replace(setup.model, delta=taus[0])
    n0 = prepare_initial(setup.raw_rho, setup.raw_u, ref_model, setup.cfg,
                         grid).rho - ref_model.rho_floor
    reference = drift_diffusion_run(n0, profile, ref_model, grid,
                                    s_end=horizon, record_times=s_records[1:],
                                    cfl=setup.cfg.cfl)
    if not np.array_equal(reference.s_values, s_records):
        raise RuntimeError("reference recording misaligned with the s ladder")
    n_ref = reference.n_vals[late][:, cols]

    rows = []
    for tau in taus:
        delta = coupling.delta(tau)
        eps = coupling.epsilon(tau, gamma, convention)
        model = replace(setup.model, delta=delta)
        cfg = replace(setup.cfg, epsilon=eps, tau=tau, t_end=horizon / tau,
                      source_variant=SourceVariant.EXCESS_DENSITY)
        initial = prepare_initial(setup.raw_rho, setup.raw_u, model, cfg,
                                  grid)
        traj = run(initial, profile, model, cfg, grid,
                   record_times=s_records[1:] / tau)
        if not traj.completed:
            raise RuntimeError(f"hydro run failed at tau={tau}")
        if not np.array_equal(traj.times[1:], s_records[1:] / tau):
            raise RuntimeError(
                f"hydro recording at tau={tau} misaligned with the s ladder")
        n_vals = np.array([snap.rho for snap in traj.snapshots])
        j_vals = np.array([snap.mom for snap in traj.snapshots]) / tau
        n_win = n_vals[late][:, cols]
        rows.append(StudyRow(
            tau=tau, epsilon=eps, delta=delta,
            l1_error=scaled_l1_gap(s_records[late], n_win, n_ref, grid.dx),
            dissipation=dissipation_integral(s_records, n_vals, j_vals,
                                             model.rho_floor, grid.dx),
            l1_net=scaled_l1_gap(s_records[late], n_win - model.rho_floor,
                                 n_ref, grid.dx)))

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
        "smoothing_width": setup.cfg.smoothing_width,
        "e_minus": profile.e_minus,
    }
    return StudyResult(rows=rows, monotone=monotone, s_values=s_records,
                       reference=reference, manifest=manifest)
