"""Finite-volume solver checks.

Covers the physical flux on frozen inputs, exact fixed points of the full
update, discrete conservation under periodic wrap, the closed-form friction
decay, and the bookkeeping of run().
"""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflux import (
    Boundary,
    ConfigurationError,
    DeviceProfile,
    GasModel,
    Grid1D,
    HydroState,
    IntegrationError,
    PressureConvention,
    SolverConfig,
    SourceVariant,
    prepare_initial,
    run,
    step,
    total_integral,
)
from semiflux.field import solve_field
from semiflux.scenarios import make_setup
from semiflux.solver import flux, march_rungs

import semiflux.solver as solver_mod
from helpers import run_reference, step_reference, uniform_profile


def uniform_setup(n_cells=64, boundary=Boundary.PERIODIC, gamma=1.4,
                  delta=0.05, a=1.0, b=0.0, e_minus=0.0, **cfg_kw):
    grid = Grid1D(-5.0, 5.0, n_cells, boundary=boundary)
    model = GasModel(gamma=gamma, delta=delta)
    profile = uniform_profile(grid, a=a, b=b, e_minus=e_minus)
    cfg = SolverConfig(**cfg_kw)
    return grid, model, profile, cfg


class TestFlux:
    def test_isothermal_reference_point(self):
        # gamma=1, delta=0.05, rho=1, u=1: first component (rho-2d)*u = 0.9,
        # second is m*u - d*u^2 + P1 with P1 = 1 - 0.1 + 0.1*ln(0.1).
        model = GasModel(gamma=1.0, delta=0.05)
        f1, f2 = flux(model, np.array([1.0]), np.array([1.0]))
        assert f1[0] == pytest.approx(0.9, rel=1e-14)
        p1 = 0.9 + 0.1 * math.log(0.1)
        assert f2[0] == pytest.approx(0.95 + p1, rel=1e-13)

    def test_vacuum_floor_flux_vanishes(self):
        model = GasModel(gamma=1.4, delta=0.05)
        f1, f2 = flux(model, np.array([0.1]), np.array([0.0]))
        assert f1[0] == 0.0
        assert f2[0] == 0.0

    def test_rest_state_flux_is_pure_pressure(self):
        model = GasModel(gamma=2.0, delta=0.05,
                         pressure_convention=PressureConvention.ONE_OVER_GAMMA)
        f1, f2 = flux(model, np.array([1.0]), np.array([0.0]))
        assert f1[0] == 0.0
        assert f2[0] == pytest.approx(0.405, rel=1e-13)

    @given(rho=st.floats(0.2, 5.0), u=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_flux_consistency(self, rho, u):
        model = GasModel(gamma=1.4, delta=0.05)
        f1, _ = flux(model, np.array([rho]), np.array([rho * u]))
        assert f1[0] == pytest.approx((rho - 0.1) * u, rel=1e-12, abs=1e-14)


class TestFixedPoints:
    @pytest.mark.parametrize("boundary", [Boundary.OUTFLOW, Boundary.PERIODIC])
    @pytest.mark.parametrize("variant",
                             [SourceVariant.FULL_DENSITY,
                              SourceVariant.EXCESS_DENSITY])
    def test_vacuum_rest_state_is_stationary(self, boundary, variant):
        grid, model, profile, cfg = uniform_setup(
            boundary=boundary, source_variant=variant, epsilon=1e-2)
        state = HydroState(rho=np.full(grid.n_cells, model.rho_floor),
                           mom=np.zeros(grid.n_cells))
        new, rep = step(state, profile, model, cfg, grid)
        assert np.array_equal(new.rho, state.rho)
        assert np.array_equal(new.mom, state.mom)
        assert rep.post_step_min_rho == model.rho_floor

    def test_charge_neutral_rest_state_is_stationary(self):
        # Uniform density with doping equal to the excess charge: the field
        # integrand vanishes identically, pressure is flat, and zero momentum
        # is untouched by friction.
        grid, model, profile, cfg = uniform_setup(epsilon=5e-3)
        rho0 = 1.2
        profile = DeviceProfile.build(grid, np.ones(grid.n_cells),
                                      np.full(grid.n_cells,
                                              rho0 - model.rho_floor),
                                      e_minus=0.0)
        state = HydroState(rho=np.full(grid.n_cells, rho0),
                           mom=np.zeros(grid.n_cells))
        for _ in range(3):
            state, _ = step(state, profile, model, cfg, grid)
        assert np.all(state.rho == rho0)
        assert np.all(np.abs(state.mom) < 1e-13)


class TestConservation:
    def test_periodic_mass_exact(self):
        grid, model, profile, cfg = uniform_setup(
            n_cells=200, epsilon=1e-3, t_end=3.0, tau=0.5)
        x = grid.centers
        raw = 0.8 * np.exp(-x ** 2)
        state = prepare_initial(raw, np.zeros_like(raw), model, grid, 0.0)
        traj = run(state, profile, model, cfg, grid, cadence=10 ** 6)
        m0 = total_integral(traj.rho[0], grid.dx)
        m1 = total_integral(traj.rho[-1], grid.dx)
        assert traj.completed
        assert traj.n_steps > 100
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_outflow_mass_never_increases(self):
        grid, model, profile, cfg = uniform_setup(
            n_cells=150, boundary=Boundary.OUTFLOW, epsilon=1e-3, t_end=0.8)
        x = grid.centers
        raw = 0.9 * np.exp(-(x / 0.7) ** 2)
        state = prepare_initial(raw, 0.5 * np.ones_like(raw), model, grid,
                                0.0)
        traj = run(state, profile, model, cfg, grid, cadence=20)
        masses = [total_integral(rho, grid.dx) for rho in traj.rho]
        diffs = np.diff(masses)
        assert np.all(diffs <= 1e-12 * masses[0])


class TestFrictionDecay:
    @pytest.mark.parametrize("variant",
                             [SourceVariant.FULL_DENSITY,
                              SourceVariant.EXCESS_DENSITY])
    def test_uniform_state_decays_exponentially(self, variant):
        # Doping equal to the uniform excess makes the charge, hence E,
        # vanish identically; with the flux divergence cancelling too, the
        # momentum obeys m' = -rate*m exactly and the integrator reproduces
        # the closed form to rounding error.
        a, tau = 0.8, 0.3
        rho0, u0 = 1.3, 0.4
        grid, model, profile, cfg = uniform_setup(
            a=a, b=rho0 - 2 * 0.05, tau=tau, t_end=0.5, epsilon=1e-3,
            source_variant=variant)
        state = HydroState(rho=np.full(grid.n_cells, rho0),
                           mom=np.full(grid.n_cells, rho0 * u0))
        traj = run(state, profile, model, cfg, grid, cadence=10 ** 6)
        t = traj.times[-1]
        if variant is SourceVariant.FULL_DENSITY:
            rate = a / tau
        else:
            rate = a * (rho0 - model.rho_floor) / rho0 / tau
        expected = rho0 * u0 * math.exp(-rate * t)
        got = traj.mom[-1]
        assert np.all(got == got[0])
        assert got[0] == pytest.approx(expected, rel=1e-12)
        assert np.all(traj.rho[-1] == rho0)


class TestLinearMode:
    """A small cosine mode on the periodic neutral rest state against the
    exact answer of the linearised equations.

    Around N = 0.5, rho = 0.6 (delta = 0.05, a = 1, gamma = 2, P = rho^2/2)
    the mode rho - 0.6 = R cos(k xi), m = M sin(k xi), xi = x - x_min,
    obeys R' = -eps k^2 R - (N/rho) k M and
    M' = (P1'(rho) k + c/k) R - (d + eps k^2) M, with c = rho and
    d = a/tau under the full-density source, c = N and d = (N/rho) a/tau
    under the excess-density one, P1'(rho) = (N/rho) P'(rho).  The march
    starts from the mode's exact cell averages (the centre values times
    s = sin(k dx/2)/(k dx/2)) and its (R, M) at t = 2 is projected back
    and divided by s.  The relative errors measured at n = 500 and 1000
    are 1.23e-2 and 6.63e-3 (full density), 1.24e-2 and 6.66e-3 (excess
    density); every mislabelled exact answer is at least 0.10 away."""

    N_BAR, RHO_BAR, A, T = 0.5, 0.6, 1e-5, 2.0
    SETUP = {"boundary": "periodic", "neutral_level": 0.5, "delta": 0.05,
             "damping": 1.0, "gamma": 2.0,
             "pressure_convention": "one-over-gamma", "epsilon": 1e-3,
             "t_end": 2.0}

    def march(self, n, variant, tau, law="one-over-gamma"):
        s = make_setup("charge-neutral-rest", {
            **self.SETUP, "n_cells": n, "tau": tau,
            "source_variant": variant, "pressure_convention": law})
        grid = s.grid
        kappa = 2.0 * math.pi * 2 / (grid.x_max - grid.x_min)
        xi = grid.centers - grid.x_min
        avg = math.sin(0.5 * kappa * grid.dx) / (0.5 * kappa * grid.dx)
        assert np.all(s.initial.rho == self.RHO_BAR)
        state = HydroState(
            rho=s.initial.rho + self.A * avg * np.cos(kappa * xi),
            mom=np.zeros(n))
        traj = run(state, s.profile, s.model, s.cfg, grid,
                   record_times=[self.T])
        assert traj.completed and traj.times[-1] == self.T
        project = 2.0 / (n * avg)
        return kappa, np.array([
            project * np.sum((traj.rho[-1] - self.RHO_BAR)
                             * np.cos(kappa * xi)),
            project * np.sum(traj.mom[-1] * np.sin(kappa * xi))])

    def exact(self, kappa, variant, tau, plain=False):
        """expm(Mat T) (A, 0) through numpy's eig, for the labels given."""
        n_bar, rho_bar, eps, a = self.N_BAR, self.RHO_BAR, 1e-3, 1.0
        dp = 2.0 * rho_bar if plain else rho_bar   # P' of rho^2, rho^2/2
        if variant == "full-density":
            c, d = rho_bar, a / tau
        else:
            c, d = n_bar, n_bar / rho_bar * a / tau
        mat = np.array([
            [-eps * kappa ** 2, -n_bar / rho_bar * kappa],
            [n_bar / rho_bar * dp * kappa + c / kappa,
             -(d + eps * kappa ** 2)]])
        w, v = np.linalg.eig(mat)
        return (v @ (np.exp(w * self.T) * np.linalg.solve(v, [self.A, 0.0]))
                ).real

    @staticmethod
    def error(got, want):
        return float(np.linalg.norm(got - want) / np.linalg.norm(want))

    @pytest.mark.parametrize("variant", ["full-density", "excess-density"])
    def test_march_converges_to_the_exact_mode(self, variant):
        kappa, coarse = self.march(500, variant, 1.0)
        _, fine = self.march(1000, variant, 1.0)
        want = self.exact(kappa, variant, 1.0)
        err_coarse, err_fine = (self.error(coarse, want),
                                self.error(fine, want))
        assert err_coarse <= 1.4e-2 and err_fine <= 7.5e-3
        # first order: the error falls by 1.85 per halving of dx
        assert err_coarse / err_fine >= 1.7
        # each mislabel misses by more than 0.08, six times the error
        other = ("excess-density" if variant == "full-density"
                 else "full-density")
        for wrong in (self.exact(kappa, other, 1.0),
                      self.exact(kappa, variant, 0.5),
                      self.exact(kappa, variant, 2.0),
                      self.exact(kappa, variant, 1.0, plain=True)):
            assert self.error(coarse, wrong) > 0.08

    def test_each_mislabelled_march_misses_the_exact_mode(self):
        # a march whose source variant, tau or pressure law is not the one
        # the exact answer is for misses it by as much
        kappa, _ = self.march(500, "full-density", 1.0)
        want = self.exact(kappa, "full-density", 1.0)
        for wrong in (("excess-density", 1.0), ("full-density", 0.5),
                      ("full-density", 2.0),
                      ("full-density", 1.0, "plain")):
            _, got = self.march(500, *wrong)
            assert self.error(got, want) > 0.08


class TestStepMechanics:
    def test_stable_dt_combines_advection_and_viscosity(self):
        grid, model, profile, cfg = uniform_setup(n_cells=100, epsilon=0.02)
        rho = np.full(grid.n_cells, 1.5)
        mom = np.full(grid.n_cells, 0.6)
        state = HydroState(rho=rho, mom=mom)
        u = 0.4
        lam = abs(u) + (1.5 - model.rho_floor) / 1.5 * np.sqrt(
            model.dpressure(1.5))
        expected = cfg.cfl / (lam / grid.dx + 2 * cfg.epsilon / grid.dx ** 2)
        assert step(state, profile, model, cfg, grid)[1].dt_used == \
            pytest.approx(expected, rel=1e-13)

    def test_dt_limit_and_time_stamp(self):
        # a stop time inside the stable step cuts it short and is hit
        # exactly; one beyond it leaves the stable step alone
        grid, model, profile, cfg = uniform_setup(epsilon=1e-3)
        state = HydroState(rho=np.full(grid.n_cells, 1.0),
                           mom=np.zeros(grid.n_cells), time=0.123)
        new, rep = step(state, profile, model, cfg, grid, t_stop=0.123 + 1e-6)
        assert rep.dt_used == (0.123 + 1e-6) - 0.123
        assert new.time == 0.123 + 1e-6
        dt = step(state, profile, model, cfg, grid)[1].dt_used
        new, rep = step(state, profile, model, cfg, grid, t_stop=1.0)
        assert rep.dt_used == dt
        assert new.time == 0.123 + dt

    @pytest.mark.parametrize("t_stop", [0.2, 0.5])
    def test_stop_time_not_after_state_time_rejected(self, t_stop):
        grid, model, profile, cfg = uniform_setup()
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells), time=0.5)
        with pytest.raises(ConfigurationError, match="not after"):
            step(state, profile, model, cfg, grid, t_stop=t_stop)

    def test_limit_names_the_larger_term_or_the_clamp(self):
        # max lambda/dx against 2 eps/dx^2 on a uniform state (dx = 0.1,
        # lambda = 0.4 + 1.4/1.5 sqrt(1.5)): eps = 0.01 leaves advection the
        # larger term, eps = 0.2 viscosity; a stop time inside the step
        # clamps it whichever term is larger
        state = HydroState(rho=np.full(100, 1.5), mom=np.full(100, 0.6))
        for eps, want in ((0.01, "advection"), (0.2, "viscosity")):
            grid, model, profile, cfg = uniform_setup(n_cells=100,
                                                      epsilon=eps)
            assert step(state, profile, model, cfg, grid)[1].limit == want
            assert step(state, profile, model, cfg, grid,
                        t_stop=1e-9)[1].limit == "clamp"

    def test_floor_violation_raises(self):
        grid, model, profile, cfg = uniform_setup()
        rho = np.full(grid.n_cells, 1.0)
        rho[10] = model.rho_floor - 1e-3
        state = HydroState(rho=rho, mom=np.zeros(grid.n_cells), time=0.7)
        with pytest.raises(IntegrationError):
            step(state, profile, model, cfg, grid)

    def test_non_finite_state_raises(self):
        grid, model, profile, cfg = uniform_setup()
        mom = np.zeros(grid.n_cells)
        mom[3] = np.nan
        state = HydroState(rho=np.ones(grid.n_cells), mom=mom)
        with pytest.raises(IntegrationError, match="non-finite"):
            step(state, profile, model, cfg, grid)


class TestStepMatchesReference:
    """The stacked step against the row-wise reference, bit for bit."""

    @staticmethod
    def bumpy_state(grid, model):
        x = grid.centers
        rho = model.rho_floor + 0.8 * np.exp(-x ** 2) \
            + 0.1 * np.exp(-(x - 3.0) ** 2 / 0.5)
        return HydroState(rho=rho, mom=rho * 0.4 * np.sin(x), time=0.2)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("variant", list(SourceVariant))
    @pytest.mark.parametrize("convention", list(PressureConvention))
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    @pytest.mark.parametrize("clamped", [False, True])
    def test_bit_identical(self, boundary, variant, convention, gamma,
                           clamped):
        grid = Grid1D(-5.0, 5.0, 90, boundary=boundary)
        model = GasModel(gamma=gamma, delta=0.05,
                         pressure_convention=convention)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.5 - 0.1 * np.tanh(x),
                                      0.2 * np.exp(-x ** 2), 0.3)
        cfg = SolverConfig(epsilon=2e-3, tau=0.05, source_variant=variant)
        state = self.bumpy_state(grid, model)
        for _ in range(3):
            t_stop = state.time + 1e-4 if clamped else None
            new, rep = step(state, profile, model, cfg, grid, t_stop=t_stop)
            ref, ref_rep = step_reference(state, profile, model, cfg, grid,
                                          t_stop=t_stop)
            assert np.array_equal(new.rho, ref.rho)
            assert np.array_equal(new.mom, ref.mom)
            assert new.time == ref.time
            assert rep.dt_used == ref_rep.dt_used
            assert rep.post_step_min_rho == ref_rep.post_step_min_rho
            if clamped:
                assert rep.dt_used == t_stop - state.time
            state = new



class TestViscousFaceFlux:
    """`step` against the scheme before eps moved into the face
    coefficient, written out here: the Rusanov update with the face
    coefficient 0.5 max lambda, then eps's centred second difference added,
    on steps eps makes viscosity-limited.  A slip made in both `step` and
    `step_reference` still fails here."""

    @staticmethod
    def prefold_step(state, profile, model, cfg, grid):
        rho, mom, dx = state.rho, state.mom, grid.dx
        excess, u = rho - model.rho_floor, mom / rho
        speed = np.abs(u) + excess / rho * np.sqrt(model.dpressure(rho))
        dt = cfg.cfl / (np.max(speed) / dx + 2.0 * cfg.epsilon / dx ** 2)
        se = grid.extend(speed)
        half_alpha = 0.5 * np.maximum(se[:-1], se[1:])
        p1 = flux(model, rho, np.zeros_like(rho))[1]
        rows = []
        for f, q in ((excess * u, rho), (mom * u - model.delta * u ** 2 + p1,
                                         mom)):
            fe, qe = grid.extend(f), grid.extend(q)
            face = 0.5 * (fe[:-1] + fe[1:]) - half_alpha * (qe[1:] - qe[:-1])
            visc = cfg.epsilon * (qe[2:] - 2.0 * q + qe[:-2]) / dx ** 2
            rows.append(q - dt / dx * (face[1:] - face[:-1]) + dt * visc)
        rho_new, mom_star = rows
        e_vals = solve_field(excess, profile, grid)
        if cfg.source_variant is SourceVariant.FULL_DENSITY:
            mom_star = mom_star + dt * rho * e_vals
            rate = profile.a_vals / cfg.tau
        else:
            mom_star = mom_star + dt * excess * e_vals
            rate = profile.a_vals * (rho_new - model.rho_floor) / rho_new \
                / cfg.tau
        return rho_new, mom_star * np.exp(-rate * dt), dt

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("variant", list(SourceVariant))
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_fold_matches_the_second_difference(self, boundary, variant,
                                                gamma):
        grid = Grid1D(-5.0, 5.0, 90, boundary=boundary)
        model = GasModel(gamma=gamma, delta=0.05)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.5 - 0.1 * np.tanh(x),
                                      0.2 * np.exp(-x ** 2), 0.3)
        cfg = SolverConfig(epsilon=0.2, tau=0.05, source_variant=variant)
        state = TestStepMatchesReference.bumpy_state(grid, model)
        new, rep = step(state, profile, model, cfg, grid)
        rho, mom, dt = self.prefold_step(state, profile, model, cfg, grid)
        assert rep.limit == "viscosity"
        assert rep.dt_used == pytest.approx(dt, rel=1e-15)
        for got, want in ((new.rho, rho), (new.mom, mom)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

def workspace_arrays(work):
    """Every array a step workspace holds, its state blocks' included, views
    too."""
    arrays = {name: arr for name, arr in vars(work).items()
              if isinstance(arr, np.ndarray)}
    for i, block in enumerate(work.blocks):
        arrays.update({f"blocks[{i}].{name}": arr
                       for name, arr in vars(block).items()
                       if isinstance(arr, np.ndarray)})
    return arrays


class TestPoisonedWorkspace:
    """A workspace whose every buffer is NaN before each step, the idle
    block and the resident block's ghost and seam cells included, marches
    bit for bit as the reference: no ghost, seam or stale value reaches an
    interior cell.  Spared are the resident state's interior rows and the
    rows that describe it (u, the excess and the wave speed, which the step
    that wrote the state computed, with their maximum); marked stale, those
    rows are poisoned too, and the step recomputes them from rho and m
    alone."""

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("variant", list(SourceVariant))
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_bit_identical(self, boundary, variant, gamma):
        self.march_poisoned(boundary, variant, gamma, stale=False)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("variant", list(SourceVariant))
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_stale_rows_bit_identical(self, boundary, variant, gamma):
        self.march_poisoned(boundary, variant, gamma, stale=True)

    @staticmethod
    def march_poisoned(boundary, variant, gamma, stale):
        grid = Grid1D(-5.0, 5.0, 90, boundary=boundary)
        model = GasModel(gamma=gamma, delta=0.05)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.5 - 0.1 * np.tanh(x),
                                      0.2 * np.exp(-x ** 2), 0.3)
        cfg = SolverConfig(epsilon=2e-3, tau=0.05, source_variant=variant)
        work = solver_mod._Workspace(profile, cfg, grid)
        # the damping rate, eps's face coefficient 2 eps/dx and tau are
        # per-run constants, not buffers: a step must leave them as they
        # were
        constants = ("neg_rate", "two_eps_dx", "tau")
        arrays = workspace_arrays(work)
        buffers = [arr for name, arr in arrays.items()
                   if arr.dtype == np.float64 and name not in constants]
        kept = {name: arrays[name].copy() for name in constants}
        state = ref = TestStepMatchesReference.bumpy_state(grid, model)
        for i in range(4):
            cur = work.blocks[0]
            # the first input is the caller's, every later one resident and
            # described by the rows its step wrote
            assert (state is cur.state) == (i > 0)
            assert (work.described is cur) == (i > 0)
            if stale:
                work.described, work.peak = None, math.nan
            rows = (cur.rho, cur.mom)
            if i > 0 and not stale:
                rows += (work.u, work.excess, work.speed)
            spared = [row.copy() for row in rows]
            for arr in buffers:
                arr.fill(np.nan)
            assert np.isnan(work.pad).all()
            if i > 0:
                for row, val in zip(rows, spared):
                    row[...] = val
            state, rep = step(state, profile, model, cfg, grid, _work=work)
            ref, ref_rep = step_reference(ref, profile, model, cfg, grid)
            assert np.array_equal(state.rho, ref.rho)
            assert np.array_equal(state.mom, ref.mom)
            assert state.time == ref.time
            assert rep == ref_rep
            for name, val in kept.items():
                assert arrays[name].tobytes() == val.tobytes()


class TestStateRows:
    """The rows a step writes for the state it returns (u, the excess, the
    wave speed and its maximum) are read by the next step only while they
    describe its input; otherwise they are recomputed, bit for bit."""

    @staticmethod
    def setup(variant=SourceVariant.FULL_DENSITY):
        grid = Grid1D(-5.0, 5.0, 90)
        model = GasModel(gamma=1.4, delta=0.05)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.5 - 0.1 * np.tanh(x),
                                      0.2 * np.exp(-x ** 2), 0.3)
        cfg = SolverConfig(epsilon=2e-3, tau=0.05, source_variant=variant)
        state = TestStepMatchesReference.bumpy_state(grid, model)
        return state, (profile, model, cfg, grid)

    @staticmethod
    def assert_step_is_the_reference(state, parts, work):
        new, rep = step(state, *parts, _work=work)
        ref, ref_rep = step_reference(state, *parts)
        assert np.array_equal(new.rho, ref.rho)
        assert np.array_equal(new.mom, ref.mom)
        assert new.time == ref.time and rep == ref_rep
        assert work.described is work.blocks[0]
        return new

    @pytest.mark.parametrize("variant", list(SourceVariant))
    def test_input_that_is_not_resident_recomputes_the_rows(self, variant):
        # after two steps the rows describe the resident block; a state of
        # the caller's is copied over it, and its own rows are computed
        state, parts = self.setup(variant)
        profile, _, cfg, grid = parts
        work = solver_mod._Workspace(profile, cfg, grid)
        for _ in range(2):
            state = self.assert_step_is_the_reference(state, parts, work)
        assert work.described is work.blocks[0]
        other = HydroState(rho=state.rho * 1.25, mom=-2.0 * state.mom,
                           time=state.time)
        self.assert_step_is_the_reference(other, parts, work)

    @pytest.mark.parametrize("variant", list(SourceVariant))
    def test_step_called_again_after_it_raised_recomputes_the_rows(
            self, monkeypatch, variant):
        # a NaN field makes the step raise after it rewrote the rows for
        # its idle block: they are left stale, so the step called again on
        # the same resident state recomputes them and matches the reference
        state, parts = self.setup(variant)
        profile, _, cfg, grid = parts
        work = solver_mod._Workspace(profile, cfg, grid)
        state = self.assert_step_is_the_reference(state, parts, work)
        real_field = solver_mod.solve_field
        monkeypatch.setattr(solver_mod, "solve_field", lambda *a, **k: np.full(
            state.rho.shape, np.nan))
        with pytest.raises(IntegrationError, match="^non-finite state$"):
            step(state, *parts, _work=work)
        assert work.described is None and state is work.blocks[0].state
        monkeypatch.setattr(solver_mod, "solve_field", real_field)
        self.assert_step_is_the_reference(state, parts, work)

    def test_finite_state_with_a_non_finite_speed_is_passed_on(self):
        # no damping, a far-field datum of 1e304 and a step of about 5.6e4
        # push m to 5.6e306 on density 0.01, so u = m/rho overflows in a
        # finite state: the step returns it, as the row-wise step does, and
        # the next step, whose speed is infinite, refuses it as non-finite
        grid = Grid1D(0.0, 1e5, 10)
        model = GasModel(gamma=2.0, delta=1e-3)
        profile = DeviceProfile.build(grid, np.zeros(10), np.zeros(10),
                                      1e304)
        cfg = SolverConfig(t_end=1e6)
        state = HydroState(rho=np.full(10, 0.01), mom=np.zeros(10))
        traj = run(state, profile, model, cfg, grid, cadence=1)
        ref, _ = step_reference(state, profile, model, cfg, grid)
        assert traj.steps.tolist() == [0, 1] and not traj.completed
        assert np.array_equal(traj.rho[-1], ref.rho)
        assert np.array_equal(traj.mom[-1], ref.mom)
        assert np.isfinite(traj.mom[-1]).all()
        with np.errstate(over="ignore"):
            assert np.isinf(traj.mom[-1] / traj.rho[-1]).all()


class TestReturnedRows:
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_standalone_step_keeps_caller_arrays(self, boundary):
        # a step called alone marches in a workspace of its own: it never
        # writes into its input, and each returned state is two contiguous
        # float64 rows that share no memory
        grid = Grid1D(-5.0, 5.0, 64, boundary=boundary)
        model = GasModel(gamma=2.0, delta=0.05)
        profile = uniform_profile(grid)
        cfg = SolverConfig()
        state = TestStepMatchesReference.bumpy_state(grid, model)
        given = state.rho.copy(), state.mom.copy()
        new, _ = step(state, profile, model, cfg, grid)
        kept = new.rho.copy(), new.mom.copy(), new.time
        newer, _ = step(new, profile, model, cfg, grid)
        assert np.array_equal(state.rho, given[0])
        assert np.array_equal(state.mom, given[1])
        assert np.array_equal(new.rho, kept[0])
        assert np.array_equal(new.mom, kept[1])
        assert new.time == kept[2]
        rows = (state.rho, state.mom, new.rho, new.mom, newer.rho, newer.mom)
        for row in rows[2:]:
            assert row.dtype == np.float64
            assert row.shape == (grid.n_cells,)
            assert row.flags.c_contiguous
        for i, a in enumerate(rows):
            assert not any(np.shares_memory(a, b) for b in rows[i + 1:])

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_resident_state_lives_until_the_step_after_next(self, boundary):
        # a workspace's steps alternate between its two blocks: a returned
        # state holds until the step after next overwrites it, and a stale
        # state handed back is copied in, not read as resident
        grid = Grid1D(-5.0, 5.0, 64, boundary=boundary)
        model = GasModel(gamma=2.0, delta=0.05)
        profile = uniform_profile(grid)
        cfg = SolverConfig()
        work = solver_mod._Workspace(profile, cfg, grid)
        state = TestStepMatchesReference.bumpy_state(grid, model)
        first, _ = step(state, profile, model, cfg, grid, _work=work)
        held = HydroState(rho=first.rho.copy(), mom=first.mom.copy(),
                          time=first.time)
        second, _ = step(first, profile, model, cfg, grid, _work=work)
        assert second is not first
        assert not np.shares_memory(first.rho, second.rho)
        assert np.array_equal(first.rho, held.rho)
        assert np.array_equal(first.mom, held.mom)
        assert first.time == held.time
        third, _ = step(second, profile, model, cfg, grid, _work=work)
        assert third is first and third.time > second.time
        # `second` is now the idle block's state: stepping it again starts
        # from its own values
        again, rep = step(second, profile, model, cfg, grid, _work=work)
        ref, ref_rep = step_reference(
            step_reference(held, profile, model, cfg, grid)[0], profile,
            model, cfg, grid)
        assert np.array_equal(again.rho, ref.rho)
        assert np.array_equal(again.mom, ref.mom)
        assert again.time == ref.time and rep == ref_rep


class TestRunMatchesReference:
    """A whole run against a loop of the row-wise reference step, bit for
    bit, records included: every record is a copy of its state, made when
    the state was current."""

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("variant", list(SourceVariant))
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("record_times",
                             [None, [0.31, 0.7, 1.234, 2.0, 2.9]])
    def test_bit_identical(self, monkeypatch, boundary, variant, gamma,
                           record_times):
        grid = Grid1D(-5.0, 5.0, 100, boundary=boundary)
        model = GasModel(gamma=gamma, delta=0.05)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.5 - 0.1 * np.tanh(x),
                                      0.2 * np.exp(-x ** 2), 0.3)
        cfg = SolverConfig(epsilon=2e-3, tau=0.05, t_end=3.0,
                           source_variant=variant)
        initial = TestStepMatchesReference.bumpy_state(grid, model)
        initial.time = 0.0
        returned, works = [], set()
        real_step = solver_mod.step

        def kept_step(*args, **kwargs):
            out = real_step(*args, **kwargs)
            returned.append((out[0].rho.copy(), out[0].mom.copy()))
            works.add(kwargs["_work"])
            return out

        monkeypatch.setattr(solver_mod, "step", kept_step)
        traj = run(initial, profile, model, cfg, grid, cadence=7,
                   record_times=record_times)
        steps, times, rho, mom, min_rho, dts, limits = run_reference(
            initial, profile, model, cfg, grid, cadence=7,
            record_times=record_times)
        assert traj.completed and traj.n_steps >= 50
        assert traj.n_steps == len(returned) == len(dts)
        assert np.array_equal(traj.steps, steps)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.rho, rho)
        assert np.array_equal(traj.mom, mom)
        assert np.array_equal(traj.min_rho, min_rho)
        assert traj.dts == dts
        assert traj.limits == limits
        # records are the only copies: no two share memory, none shares the
        # workspace's, and each still holds the state its step returned,
        # unchanged by the steps after it
        (work,) = works
        held = list(workspace_arrays(work).values())
        records = [*traj.rho, *traj.mom]
        for i, a in enumerate(records):
            assert not any(np.shares_memory(a, b) for b in records[i + 1:])
            assert not any(np.shares_memory(a, b) for b in held)
        for i, k in enumerate(traj.steps[1:], start=1):
            assert np.array_equal(traj.rho[i], returned[k - 1][0])
            assert np.array_equal(traj.mom[i], returned[k - 1][1])

    @pytest.mark.parametrize("record_times", [None, [0.05, 0.1, 0.4]])
    def test_failed_step_keeps_the_last_valid_state(self, monkeypatch,
                                                    record_times):
        # the field solve of step k turns NaN, so the real step raises
        # "non-finite state" after writing its idle block: the last record
        # is the state after step k - 1, the run cut there
        grid = Grid1D(-5.0, 5.0, 100)
        model = GasModel(gamma=1.4, delta=0.05)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.5 - 0.1 * np.tanh(x),
                                      0.2 * np.exp(-x ** 2), 0.3)
        cfg = SolverConfig(epsilon=2e-3, tau=0.05, t_end=1.0)
        initial = TestStepMatchesReference.bumpy_state(grid, model)
        initial.time = 0.0
        fail_at, calls, raised = 20, [], []
        real_field, real_step = solver_mod.solve_field, solver_mod.step

        def failing_field(*args, **kwargs):
            calls.append(None)
            e_vals = real_field(*args, **kwargs)
            return np.full_like(e_vals, np.nan) \
                if len(calls) == fail_at else e_vals

        def watched_step(*args, **kwargs):
            try:
                return real_step(*args, **kwargs)
            except IntegrationError as err:
                raised.append(str(err))
                raise

        monkeypatch.setattr(solver_mod, "solve_field", failing_field)
        monkeypatch.setattr(solver_mod, "step", watched_step)
        traj = run(initial, profile, model, cfg, grid, cadence=3,
                   record_times=record_times)
        assert raised == ["non-finite state"]
        assert not traj.completed
        steps, times, rho, mom, min_rho, dts, limits = run_reference(
            initial, profile, model, cfg, grid, cadence=3,
            record_times=record_times, max_steps=fail_at - 1)
        assert traj.steps[-1] == fail_at - 1
        assert np.array_equal(traj.steps, steps)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.rho, rho)
        assert np.array_equal(traj.mom, mom)
        assert np.array_equal(traj.min_rho, min_rho)
        assert traj.dts == dts
        assert traj.limits == limits

    @pytest.mark.parametrize("variant", list(SourceVariant))
    def test_infinite_field_is_refused_by_the_step_that_makes_it(
            self, monkeypatch, variant):
        # +inf in one cell of step k's field makes that cell's momentum
        # +inf: step k itself raises "non-finite state", and the last
        # record is the state after step k - 1
        grid = Grid1D(-5.0, 5.0, 100)
        model = GasModel(gamma=2.0, delta=0.05)
        x = grid.centers
        profile = DeviceProfile.build(grid, 1.5 - 0.1 * np.tanh(x),
                                      0.2 * np.exp(-x ** 2), 0.3)
        cfg = SolverConfig(epsilon=2e-3, tau=0.05, t_end=1.0,
                           source_variant=variant)
        initial = TestStepMatchesReference.bumpy_state(grid, model)
        initial.time = 0.0
        fail_at, calls, raised = 12, [], []
        real_field, real_step = solver_mod.solve_field, solver_mod.step

        def infinite_field(*args, **kwargs):
            calls.append(None)
            e_vals = real_field(*args, **kwargs)
            if len(calls) == fail_at:
                e_vals[37] = np.inf
            return e_vals

        def watched_step(*args, **kwargs):
            try:
                out = real_step(*args, **kwargs)
            except IntegrationError as err:
                raised.append((len(calls), str(err)))
                raise
            assert np.isfinite(out[0].mom).all()
            return out

        monkeypatch.setattr(solver_mod, "solve_field", infinite_field)
        monkeypatch.setattr(solver_mod, "step", watched_step)
        traj = run(initial, profile, model, cfg, grid, cadence=5)
        assert raised == [(fail_at, "non-finite state")]
        steps, times, rho, mom, min_rho, dts, limits = run_reference(
            initial, profile, model, cfg, grid, cadence=5,
            max_steps=fail_at - 1)
        assert traj.steps[-1] == fail_at - 1 and not traj.completed
        assert np.array_equal(traj.steps, steps)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.rho, rho)
        assert np.array_equal(traj.mom, mom)
        assert np.array_equal(traj.min_rho, min_rho)
        assert traj.dts == dts
        assert traj.limits == limits

    def test_march_diagnostics_add_up(self):
        # an outward flow rarefies the centre, so the lowest density comes
        # after the start; every step is recorded to find it
        grid, model, profile, cfg = uniform_setup(
            n_cells=80, boundary=Boundary.OUTFLOW, t_end=1.0, epsilon=2e-3)
        rho = np.ones(grid.n_cells)
        state = HydroState(rho=rho, mom=0.8 * np.tanh(grid.centers))
        traj = run(state, profile, model, cfg, grid, cadence=1)
        assert sum(traj.limits.values()) == traj.n_steps
        assert traj.limits["clamp"] == 1    # the last step lands on t_end
        assert traj.steps.tolist() == list(range(traj.n_steps + 1))
        # every step is a record, so each record's lowest density is its row's
        assert np.array_equal(traj.min_rho, traj.rho.min(axis=1))
        assert float(np.min(traj.min_rho)) < 1.0


class TestBenchmarkHooks:
    def test_run_calls_module_step_and_field_once_per_step(self,
                                                           monkeypatch):
        # the benchmark's per-layer view traces semiflux.solver.step and
        # solve_field and reads the cell count off step's first argument:
        # run must reach both through the module, once per step
        grid, model, profile, cfg = uniform_setup(t_end=0.3)
        calls = {"step": 0, "field": 0}
        firsts = []
        real_step, real_field = solver_mod.step, solver_mod.solve_field

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            firsts.append(args[0])
            return real_step(*args, **kwargs)

        def counted_field(*args, **kwargs):
            calls["field"] += 1
            return real_field(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "step", counted_step)
        monkeypatch.setattr(solver_mod, "solve_field", counted_field)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        traj = run(state, profile, model, cfg, grid)
        assert traj.n_steps > 0
        assert calls == {"step": traj.n_steps, "field": traj.n_steps}
        assert all(a.rho.size == grid.n_cells for a in firsts)


class TestRun:
    def test_zero_horizon_records_initial_only(self):
        grid, model, profile, cfg = uniform_setup(t_end=0.0)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        traj = run(state, profile, model, cfg, grid)
        assert traj.n_steps == 0
        assert traj.steps.tolist() == [0]
        assert traj.times.tolist() == [0.0]
        assert traj.rho.shape == traj.mom.shape == (1, grid.n_cells)
        assert traj.completed

    def test_record_times_land_exactly(self):
        grid, model, profile, cfg = uniform_setup(t_end=0.2, epsilon=1e-3)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        wanted = [0.05, 0.11, 0.2]
        traj = run(state, profile, model, cfg, grid, record_times=wanted)
        times = traj.times
        for t in wanted:
            assert t in times
        assert times[0] == 0.0

    def test_unsorted_record_times_rejected(self):
        grid, model, profile, cfg = uniform_setup(t_end=0.2)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        with pytest.raises(ConfigurationError):
            run(state, profile, model, cfg, grid, record_times=[0.1, 0.05])
        with pytest.raises(ConfigurationError, match="each once"):
            run(state, profile, model, cfg, grid,
                record_times=[0.05, 0.05, 0.1])
        with pytest.raises(ConfigurationError):
            run(state, profile, model, cfg, grid, cadence=0)
        # instants are times, not offsets from a later start
        state.time = 0.1
        with pytest.raises(ConfigurationError, match="not after"):
            run(state, profile, model, cfg, grid, record_times=[0.05, 0.15])

    def test_failure_is_reported_not_raised(self):
        grid, model, profile, cfg = uniform_setup(t_end=1.0)
        rho = np.ones(grid.n_cells)
        rho[0] = model.rho_floor / 2
        state = HydroState(rho=rho, mom=np.zeros(grid.n_cells))
        traj = run(state, profile, model, cfg, grid)
        assert not traj.completed
        assert traj.times[-1] == 0.0
        # the initial record is still stacked into the arrays
        assert traj.steps.tolist() == [0] and traj.times.tolist() == [0.0]
        assert np.array_equal(traj.rho, rho[None, :])

    def test_max_steps_cut_is_incomplete(self, monkeypatch):
        grid, model, profile, cfg = uniform_setup(t_end=1.0)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        monkeypatch.setattr(solver_mod, "MAX_STEPS", 3)
        traj = run(state, profile, model, cfg, grid)
        assert traj.n_steps == 3
        assert not traj.completed
        # the state the cut left is recorded; it stopped at its time
        assert traj.steps.tolist() == [0, 3]
        assert 0.0 < traj.times[-1] < cfg.t_end
        assert traj.times[-1] == sum(traj.dts)
        assert traj.rho.shape == traj.mom.shape == (2, grid.n_cells)

    def test_failed_step_records_the_last_valid_state(self, monkeypatch):
        grid, model, profile, cfg = uniform_setup(t_end=1.0)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        real_step, kept = solver_mod.step, []

        def step_then_fail(state, *args, **kwargs):
            if len(kept) == 4:
                raise IntegrationError("injected")
            out = real_step(state, *args, **kwargs)
            kept.append(out[0])
            return out

        monkeypatch.setattr(solver_mod, "step", step_then_fail)
        traj = run(state, profile, model, cfg, grid, cadence=3)
        assert not traj.completed
        assert traj.steps.tolist() == [0, 3, 4]
        assert traj.times[-1] == kept[-1].time == sum(traj.dts)
        assert np.array_equal(traj.rho[-1], kept[-1].rho)
        # the last record's minimum covers the one step since step 3
        assert traj.min_rho[-1] == float(np.min(kept[-1].rho))

    def test_records_are_stacked_float64_rows(self, bump_setup, bump_traj):
        k, n = len(bump_traj.times), bump_setup.grid.n_cells
        assert bump_traj.steps.shape == (k,)
        assert bump_traj.steps[0] == 0
        assert bump_traj.steps[-1] == bump_traj.n_steps
        assert np.all(bump_traj.steps[:-1] % 20 == 0)
        assert bump_traj.times.dtype == np.float64
        assert bump_traj.times[-1] == bump_setup.cfg.t_end
        for arr in (bump_traj.rho, bump_traj.mom):
            assert arr.shape == (k, n) and arr.dtype == np.float64
        assert np.array_equal(bump_traj.rho[0], bump_setup.initial.rho)
        assert bump_traj.min_rho.shape == (k,)
        assert bump_traj.min_rho.dtype == np.float64
        assert np.all(bump_traj.min_rho <= bump_traj.rho.min(axis=1))
        assert bump_traj.min_rho[0] == float(np.min(bump_traj.rho[0]))

    def test_min_density_tracking(self, bump_setup):
        setup = bump_setup
        traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
                   setup.grid, cadence=10 ** 6)
        assert traj.steps.tolist() == [0, traj.n_steps]
        assert np.all(traj.min_rho >= setup.model.rho_floor)
        assert traj.min_rho[0] == float(np.min(setup.initial.rho))
        # the final record's minimum spans every step, not only its own row
        assert traj.min_rho[1] <= float(np.min(traj.rho[1]))

    def test_final_time_is_exact(self):
        grid, model, profile, cfg = uniform_setup(t_end=0.37, epsilon=1e-3)
        state = HydroState(rho=np.ones(grid.n_cells),
                           mom=np.zeros(grid.n_cells))
        traj = run(state, profile, model, cfg, grid, cadence=10 ** 6)
        assert traj.times[-1] == 0.37


class TestAllocationGuard:
    """Traced bytes, never times: the march keeps one resident state, so
    its peak is the workspace plus the records, whatever the step count,
    and a resident step allocates no state-sized array."""

    N_CELLS = 2000
    BLOCK = 2 * (N_CELLS + 2) * 8    # bytes of one (2, n+2) state block
    # the workspace is about eleven blocks (eight padded rows, the face,
    # viscosity and cell scratch rows, the damping rate), a run's two
    # records and their stacking two more
    BOUND = 16 * BLOCK

    def setup(self, t_end):
        grid = Grid1D(-5.0, 5.0, self.N_CELLS, boundary=Boundary.OUTFLOW)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        cfg = SolverConfig(epsilon=1e-3, t_end=t_end)
        x = grid.centers
        rho = model.rho_floor + 0.8 * np.exp(-x ** 2)
        return (HydroState(rho=rho, mom=rho * 0.3 * np.sin(x)), profile,
                model, cfg, grid)

    @staticmethod
    def traced_peak(func):
        """func's result and the peak of traced bytes above those live when
        it was called."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = func()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    def test_peak_does_not_grow_with_steps(self):
        peaks, counts = [], []
        for t_end in (0.015, 0.07):
            args = self.setup(t_end)
            traj, peak = self.traced_peak(
                lambda: run(*args, cadence=10 ** 6))
            peaks.append(peak)
            counts.append(traj.n_steps)
        assert counts[1] >= 4 * counts[0] > 0
        assert max(peaks) < self.BOUND
        # 4x the steps add their dts and nothing the size of a row
        assert abs(peaks[1] - peaks[0]) < 8 * self.N_CELLS

    def test_record_times_peak_is_the_records_twice(self):
        # each record is one copied block, stacked once: at the peak the
        # copies and their stack are live together, and nothing per step
        args = self.setup(0.06)
        instants = [0.06 * (i + 1) / 40 for i in range(40)]
        traj, peak = self.traced_peak(
            lambda: run(*args, record_times=instants))
        assert len(traj.times) == 41
        records = 2 * len(traj.times) * self.N_CELLS * 8
        assert peak < 2 * records + self.BOUND

    def test_resident_step_allocates_no_row(self):
        state, profile, model, cfg, grid = self.setup(1.0)
        work = solver_mod._Workspace(profile, cfg, grid)
        for _ in range(2):
            state, _ = step(state, profile, model, cfg, grid, _work=work)

        def march():
            nonlocal state
            for _ in range(10):
                state, _ = step(state, profile, model, cfg, grid, _work=work)

        _, peak = self.traced_peak(march)
        assert peak < 8 * self.N_CELLS


class TestMarchRungs:
    """The one rung loop: each rung marched to its record times, its
    records restricted onto a common grid by exact cell averages."""

    def test_rungs_are_runs_restricted_by_cell_averages(self):
        coarse, fine = (make_setup("gaussian-bump", {"n_cells": n})
                        for n in (40, 120))
        times = [0.05, 0.1]
        got = march_rungs([(s, s.initial, times) for s in (coarse, fine)],
                          coarse.grid)
        want = [run(s.initial, s.profile, s.model,
                    replace(s.cfg, t_end=0.1), s.grid, record_times=times)
                for s in (coarse, fine)]
        for traj, ref, s in zip(got, want, (coarse, fine)):
            assert (traj.grid, traj.cfg) == (s.grid, ref.cfg)
            assert np.array_equal(traj.times, ref.times)
            assert traj.dts == ref.dts
        # a factor of 1 is the identity, bit for bit
        assert np.array_equal(got[0].rho, want[0].rho)
        assert np.array_equal(got[0].mom, want[0].mom)
        assert np.array_equal(got[1].rho,
                              want[1].rho.reshape(3, 40, 3).mean(axis=-1))
        assert np.array_equal(got[1].mom,
                              want[1].mom.reshape(3, 40, 3).mean(axis=-1))

    @pytest.mark.parametrize("overrides", [
        {"n_cells": 60}, {"n_cells": 80, "x_max": 6.0}],
        ids=["not-a-multiple", "other-extent"])
    def test_grid_that_does_not_nest_is_refused_before_any_march(
            self, monkeypatch, overrides):
        def no_march(*args, **kwargs):
            raise AssertionError("marched a rung it cannot compare")

        monkeypatch.setattr(solver_mod, "run", no_march)
        coarse = make_setup("gaussian-bump", {"n_cells": 40})
        other = make_setup("gaussian-bump", overrides)
        with pytest.raises(ConfigurationError, match="does not nest"):
            march_rungs([(coarse, coarse.initial, [0.1]),
                         (other, other.initial, [0.1])], coarse.grid)

    def test_rung_that_stops_early_is_named(self):
        s = make_setup("gaussian-bump", {"n_cells": 40})
        below = HydroState(rho=np.full(40, 0.5 * s.model.rho_floor),
                           mom=np.zeros(40))
        with pytest.raises(IntegrationError,
                           match="rung 1 stopped at t = 0.0, before 0.1"):
            march_rungs([(s, s.initial, [0.1]), (s, below, [0.1])], s.grid)


class TestSelfConsistency:
    def test_refinement_shrinks_error(self):
        # Coarse-versus-fine gap on a smooth bump must drop under refinement;
        # the acceptance study pins the quantitative rate, this is a smoke
        # check that the discretization converges at all.  Every run is
        # compared on the coarsest grid by exact cell averages.
        rungs = []
        for n in (100, 200, 400):
            grid = Grid1D(-5.0, 5.0, n, boundary=Boundary.OUTFLOW)
            model = GasModel(gamma=1.4, delta=0.05)
            profile = uniform_profile(grid, a=1.0, b=0.0, e_minus=0.0)
            cfg = SolverConfig(epsilon=0.01, tau=1.0, cfl=0.4, t_end=0.25)
            x = grid.centers
            raw = 0.8 * np.exp(-(x / 0.6) ** 2)
            init = prepare_initial(raw, 0.3 * np.ones_like(raw),
                                   model, grid, 0.0)
            parts = SimpleNamespace(grid=grid, model=model, profile=profile,
                                    cfg=cfg)
            rungs.append((parts, init, [cfg.t_end]))
        coarse, mid, fine = (traj.rho[-1] for traj in
                             march_rungs(rungs, rungs[0][0].grid))
        assert np.sum(np.abs(mid - fine)) < np.sum(np.abs(coarse - fine)) / 1.2
