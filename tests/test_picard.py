"""Integral-equation (heat kernel) solver tests.

The kernel tables are checked against closed forms, the FFT lag sum against
the direct double loop kept in the test helpers, the iteration against
exact fixed points and the analytic heat evolution of a Gaussian, and the
contraction/divergence bookkeeping against runs engineered to do each.
"""

import bisect
import math

import numpy as np
import pytest

import semiflux.picard as picard_module
from helpers import (NEUTRAL_PERIODIC, centred_weights, circular_reference,
                     conv_circular, conv_full_sliced, conv_same,
                     picard_step_reference, uniform_profile)
from semiflux import (
    ContractionReport,
    DeviceProfile,
    GasModel,
    Grid1D,
    HeatKernel,
    HydroState,
    SolverConfig,
    picard_solve,
    picard_step,
    prepare_initial,
)
from semiflux.picard import (
    CROSS_CHECK_T1,
    PicardIterate,
    _admissibility_violation,
    _band_check,
    _fast_len,
    _SlabTables,
    constant_first_guess,
    cross_check,
    iterate_band_bound,
    sup_distance,
)
from semiflux.scenarios import make_setup


def scenario_slab(scenario, overrides, t1, n_intervals):
    s = make_setup(scenario, overrides)
    kernel = HeatKernel(epsilon=s.cfg.epsilon)
    guess = constant_first_guess(s.initial, n_intervals)
    return s, kernel, guess


# a kernel wider than the grid: h = 54 cells each side on 64 cells
WIDE = ("gaussian-bump", {"n_cells": 64, "epsilon": 1.0}, 1.0, 8)
# the slab of the picard-slab benchmark workload
BENCH_SLAB = ("gaussian-bump", {"n_cells": 1000, "epsilon": 0.01}, 0.01, 64)
# an odd interval count: 14 levels, padded to 15
ODD = ("gaussian-bump", {"n_cells": 90, "epsilon": 0.02, "bump_speed": 0.3},
       0.02, 7)


def five_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def slab_tables(t1, guess, initial, model, cfg, grid):
    """The kernel spectra and initial-data terms of the slab [0, t1] of
    `guess`, as `picard_solve` builds them."""
    return _SlabTables.build(t1, len(guess.rho) - 1, initial, model,
                             HeatKernel(cfg.epsilon), grid)


def scenario_tables(s, guess, t1):
    return slab_tables(t1, guess, s.initial, s.model, s.cfg, s.grid)


class TestHeatKernel:
    def test_discrete_mass_close_to_one(self):
        # support comfortably beyond 8 sqrt(eps t) keeps the sampled mass
        # within 1e-6 of unity
        k = HeatKernel(epsilon=0.01)
        xs = np.arange(-100, 101) * 0.01
        assert float(np.sum(k.values(xs, 0.1)) * 0.01) == \
            pytest.approx(1.0, abs=1e-6)

    def test_values_are_symmetric_and_peaked(self):
        k = HeatKernel(epsilon=0.05)
        x = np.linspace(-1.0, 1.0, 41)
        v = k.values(x, 0.2)
        assert np.allclose(v, v[::-1])
        assert np.argmax(v) == 20

    def test_cdf_anchors(self):
        k = HeatKernel(epsilon=0.02)
        assert k.cdf(0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert k.cdf(50.0, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert k.cdf(-50.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    # eps t = 1/4, so the CDF's argument z = x / (2 sqrt(eps t)) is x
    UNIT = HeatKernel(epsilon=0.25)
    Z = np.linspace(-8.0, 8.0, 16001)

    def test_cdf_halves_sum_to_one(self):
        both = self.UNIT.cdf(self.Z, 1.0) + self.UNIT.cdf(-self.Z, 1.0)
        assert np.all(np.abs(both - 1.0) <= 2 * np.spacing(1.0))

    def test_cdf_matches_the_erf_form(self):
        from scipy.special import erf
        want = 0.5 * (1.0 + erf(self.Z))
        assert np.max(np.abs(self.UNIT.cdf(self.Z, 1.0) - want)) <= 4e-16

    def test_cdf_keeps_the_left_tail(self):
        # 1 + erf(-7) rounds to 0; erfc(7) / 2 is 2.09e-23
        from scipy.special import erf
        assert 0.5 * (1.0 + erf(-7.0)) == 0.0
        assert self.UNIT.cdf(-7.0, 1.0) == \
            pytest.approx(0.5 * math.erfc(7.0), rel=1e-15)
        assert self.UNIT.cdf(-7.0, 1.0) > 0.0

    def test_cdf_table_rows_are_their_scalar_times(self):
        k = HeatKernel(epsilon=0.01)
        x = np.linspace(-0.3, 0.3, 61)
        times = np.array([0.5e-4, 1e-3, 3.7e-3, 0.01])
        table = k.cdf(x, times[:, None])
        for row, t in zip(table, times):
            assert np.array_equal(row, k.cdf(x, float(t)))

    def test_cell_weights_sum_to_one(self):
        k = HeatKernel(epsilon=0.01)
        w = centred_weights(k, k._cells, dx=0.05, t=0.05)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(w >= 0.0)

    def test_cell_weights_smooth_constants_exactly(self):
        k = HeatKernel(epsilon=0.01)
        w = centred_weights(k, k._cells, dx=0.05, t=0.02)
        vals = np.full(200, 3.7)
        out = np.convolve(vals, w, mode="same")
        mid = out[len(w): -len(w)]
        assert np.allclose(mid, 3.7, rtol=1e-10)

    def test_gradient_weights_antisymmetric(self):
        k = HeatKernel(epsilon=0.01)
        w = centred_weights(k, k._faces, dx=0.05, t=0.03)
        assert np.allclose(w, -w[::-1], atol=1e-18)
        assert abs(w.sum()) < 1e-14
        h = (len(w) - 1) // 2
        assert w[h] == 0.0  # face values at +/- dx/2 coincide by symmetry


class TestSlabTables:
    def test_fast_len_is_the_smallest_five_smooth_length(self):
        smooth = [m for m in range(1, 8193) if five_smooth(m)]
        for n in range(1, 4097):
            assert _fast_len(n) == smooth[bisect.bisect_left(smooth, n)]

    @pytest.mark.parametrize("slab", [BENCH_SLAB, WIDE, ODD],
                             ids=["bench-slab", "wide-kernel", "odd"])
    def test_shape_is_fast_and_wrap_free(self, slab):
        s, kernel, guess = scenario_slab(*slab)
        shape = scenario_tables(s, guess, slab[2]).shape
        h = kernel._half_width(s.grid.dx, slab[2])
        assert all(five_smooth(m) for m in shape)
        assert shape[0] >= 2 * slab[3]
        assert shape[1] >= s.grid.n_cells + 2 * h

    def test_odd_interval_count_pads_the_levels(self):
        s, kernel, guess = scenario_slab(*ODD)
        assert scenario_tables(s, guess, ODD[2]).shape[0] == 15

    @pytest.mark.parametrize("slab", [BENCH_SLAB, WIDE],
                             ids=["bench-slab", "wide-kernel"])
    def test_tables_match_the_per_time_rows(self, slab):
        # each table row is its time's weights, bit for bit, however much
        # wider the table's widest row is
        s, kernel, guess = scenario_slab(*slab)
        dx = s.grid.dx
        width = scenario_tables(s, guess, slab[2]).shape[1]
        axis = np.linspace(0.0, slab[2], slab[3] + 1)
        ds = float(axis[1] - axis[0])
        lags = [(m - 0.5) * ds for m in range(1, slab[3] + 1)]
        levels = [float(t) for t in axis[1:]]
        for weights, times in ((kernel._faces, lags), (kernel._cells, lags),
                               (kernel._cells, levels)):
            rows = [centred_weights(kernel, weights, dx, t) for t in times]
            want = circular_reference(rows, width)
            got = kernel.circular_table(weights, dx, times, width)
            assert np.array_equal(got, want)


class TestIterateBasics:
    def test_constant_guess_shapes_and_distance(self):
        grid = Grid1D(-5.0, 5.0, 64)
        init = HydroState(rho=np.full(64, 0.5), mom=np.full(64, 0.1))
        it = constant_first_guess(init, n_intervals=5)
        assert it.rho.shape == it.mom.shape == (6, 64)
        assert sup_distance(it, it) == 0.0
        other = PicardIterate(rho=it.rho + 0.25, mom=it.mom - 0.5)
        assert sup_distance(it, other) == pytest.approx(0.75)

    def test_band_check_flags_excursions(self):
        model = GasModel(gamma=1.4, delta=0.05)
        good = PicardIterate(rho=np.full((3, 16), 1.0), mom=np.zeros((3, 16)))
        assert _band_check(good, bound=5.0) == []
        assert _admissibility_violation(good, model) is None

        # the floor side is the admissibility test alone
        rho = np.full((3, 16), 1.0)
        rho[1, 4] = 0.5 * model.delta
        low = PicardIterate(rho=rho, mom=np.zeros((3, 16)))
        assert _band_check(low, 5.0) == []
        assert _admissibility_violation(low, model) == {
            "field": "rho", "value": 0.5 * model.delta,
            "bound": model.admissible_floor, "kind": "inadmissible"}

        mom = np.zeros((3, 16))
        mom[2, 7] = -11.0
        high = PicardIterate(rho=np.full((3, 16), 1.0), mom=mom)
        assert _band_check(high, 5.0) == [
            {"field": "mom", "value": 11.0, "bound": 10.0, "kind": "upper"}]
        both = PicardIterate(rho=np.full((3, 16), 12.0), mom=mom)
        assert [(v["field"], v["value"]) for v in _band_check(both, 5.0)] \
            == [("rho", 12.0), ("mom", 11.0)]

    def test_nan_density_is_inadmissible(self):
        # min() of a slab holding a NaN is NaN, and NaN < floor is false
        model = GasModel(gamma=1.4, delta=0.05)
        rho = np.full((3, 8), 1.0)
        rho[1, 5] = np.nan
        it = PicardIterate(rho=rho, mom=np.zeros((3, 8)))
        violation = _admissibility_violation(it, model)
        assert violation["kind"] == "inadmissible"
        assert math.isnan(violation["value"])

    def test_band_bound_reference(self):
        grid = Grid1D(0.0, 1.0, 10)
        model = GasModel(gamma=1.4, delta=0.05)
        init = HydroState(rho=np.full(10, 2.0), mom=np.full(10, -3.0))
        assert iterate_band_bound(init, model, grid) == pytest.approx(3.0)


class TestFixedPoints:
    def test_floor_rest_state_is_exact_fixed_point(self):
        grid = Grid1D(-5.0, 5.0, 100)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        cfg = SolverConfig(epsilon=0.01, tau=1.0)
        init = HydroState(rho=np.full(100, model.rho_floor),
                          mom=np.zeros(100))
        guess = constant_first_guess(init, n_intervals=4)
        out = picard_step(guess, init, profile, model, cfg, grid,
                          slab_tables(0.05, guess, init, model, cfg, grid))
        assert np.array_equal(out.rho, guess.rho)
        assert np.array_equal(out.mom, guess.mom)

        result = picard_solve(init, profile, model, cfg, grid,
                              t1=0.05, n_intervals=4)
        assert result.report.converged
        assert result.report.distances == [0.0]

    def test_charge_neutral_interior_is_untouched_by_one_sweep(self):
        # a uniform neutral state is only a fixed point away from the box
        # edges: kernel truncation dents the density there and the cumulative
        # field solve carries the imbalance downstream on later sweeps, so
        # the clean statement is about the interior of a single sweep
        grid = Grid1D(-5.0, 5.0, 128)
        model = GasModel(gamma=2.0, delta=0.05)
        rho0 = 1.2
        n = grid.n_cells
        profile = DeviceProfile.build(grid, np.ones(n),
                                      np.full(n, rho0 - model.rho_floor),
                                      e_minus=0.0)
        cfg = SolverConfig(epsilon=0.01, tau=1.0)
        init = HydroState(rho=np.full(n, rho0), mom=np.zeros(n))
        guess = constant_first_guess(init, n_intervals=4)
        out = picard_step(guess, init, profile, model, cfg, grid,
                          slab_tables(0.02, guess, init, model, cfg, grid))
        inner = slice(10, -10)
        assert np.max(np.abs(out.rho[-1][inner] - rho0)) < 1e-12
        assert np.max(np.abs(out.mom[-1][inner])) < 1e-12

    def test_periodic_neutral_rest_state_is_a_fixed_point(self):
        # the march's exact rest state; a periodic slab is circular, so no
        # mass leaves through the edges (on the real line the edge cells
        # drifted 0.12 and the cross-check disagreed)
        s = make_setup("charge-neutral-rest", {"boundary": "periodic",
                                               "epsilon": 0.01})
        result = picard_solve(s.initial, s.profile, s.model, s.cfg, s.grid,
                              t1=CROSS_CHECK_T1)
        assert result.report.converged
        assert result.report.distances[0] < 1e-15
        assert np.max(np.abs(result.iterate.rho - s.initial.rho)) < 1e-15
        assert np.max(np.abs(result.iterate.mom)) < 1e-15
        row = cross_check(result, s.grid, CROSS_CHECK_T1, s, s.initial)
        assert row.value < 1e-15 and row.passed

    def test_decaying_data_preserves_excess_mass(self):
        grid = Grid1D(-5.0, 5.0, 200)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        cfg = SolverConfig(epsilon=0.01, tau=1.0)
        x = grid.centers
        raw = 0.8 * np.exp(-(x / 0.7) ** 2)
        init = HydroState(rho=raw + model.rho_floor, mom=np.zeros(200))
        result = picard_solve(init, profile, model, cfg, grid,
                              t1=0.01, n_intervals=6)
        assert result.report.converged
        m0 = float(np.sum(init.rho - model.rho_floor)) * grid.dx
        m1 = float(np.sum(result.iterate.rho[-1]
                          - model.rho_floor)) * grid.dx
        assert m1 == pytest.approx(m0, rel=1e-9)


class TestHeatEvolution:
    def test_first_iterate_density_is_smoothed_initial(self):
        # with zero initial velocity the transport term of the first sweep
        # vanishes, so the density at each level is exactly the heat
        # semigroup applied to the initial excess; for a Gaussian that is
        # again a Gaussian with variance sigma^2 + 2 eps t
        grid = Grid1D(-5.0, 5.0, 400)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        eps = 0.05
        cfg = SolverConfig(epsilon=eps, tau=1.0)
        x = grid.centers
        sigma = 0.5
        amp = 0.8
        raw = amp * np.exp(-x ** 2 / (2 * sigma ** 2))
        init = HydroState(rho=raw + model.rho_floor, mom=np.zeros(400))

        t1 = 0.1
        guess = constant_first_guess(init, n_intervals=2)
        out = picard_step(guess, init, profile, model, cfg, grid,
                          slab_tables(t1, guess, init, model, cfg, grid))

        var = sigma ** 2 + 2 * eps * t1
        exact = model.rho_floor + amp * sigma / math.sqrt(var) \
            * np.exp(-x ** 2 / (2 * var))
        assert np.max(np.abs(out.rho[-1] - exact)) < 2e-4


class TestContraction:
    def make_bump(self, n_cells=150):
        grid = Grid1D(-5.0, 5.0, n_cells)
        model = GasModel(gamma=1.4, delta=0.05)
        profile = uniform_profile(grid)
        x = grid.centers
        raw = 0.8 * np.exp(-(x / 0.8) ** 2)
        init = prepare_initial(raw, 0.4 * np.ones_like(raw), model, grid, 0.1)
        return grid, model, profile, init

    def test_short_slab_contracts(self):
        grid, model, profile, init = self.make_bump()
        cfg = SolverConfig(epsilon=0.01, tau=1.0)
        result = picard_solve(init, profile, model, cfg, grid,
                              t1=0.01, n_intervals=6, tol=1e-12)
        rep = result.report
        assert rep.converged
        assert not rep.diverged
        assert rep.band_violations == []
        assert len(rep.distances) >= 3
        assert np.all(np.diff(rep.distances) < 0.0)
        # the last distance is the returned iterate's own residual
        assert rep.distances[-1] < 1e-12

    def test_long_slab_triggers_halving_advice(self):
        grid, model, profile, init = self.make_bump()
        cfg = SolverConfig(epsilon=0.01, tau=1.0)
        t1 = 8.0
        result = picard_solve(init, profile, model, cfg, grid,
                              t1=t1, n_intervals=6, max_iters=12)
        rep = result.report
        assert rep.diverged
        assert not rep.converged
        assert rep.band_violations

    def test_sweep_below_the_floor_is_listed_once(self):
        # the first sweep of a two-unit slab dips to rho = -0.1487; the
        # solve returns the admissible iterate that sweep started from
        grid, model, profile, init = self.make_bump()
        cfg = SolverConfig(epsilon=0.01, tau=1.0)
        result = picard_solve(init, profile, model, cfg, grid,
                              t1=2.0, n_intervals=6, max_iters=12)
        rep = result.report
        assert rep.diverged and not rep.converged
        assert [v["kind"] for v in rep.band_violations] == ["inadmissible"]
        assert rep.band_violations[0]["value"] == \
            pytest.approx(-0.148731, abs=1e-6)
        assert float(np.min(result.iterate.rho)) >= model.admissible_floor

    def test_invalid_slab_rejected(self):
        grid, model, profile, init = self.make_bump(n_cells=64)
        cfg = SolverConfig(epsilon=0.01, tau=1.0)
        with pytest.raises(ValueError):
            picard_solve(init, profile, model, cfg, grid, t1=0.0)
        with pytest.raises(ValueError):
            picard_solve(init, profile, model, cfg, grid,
                         t1=0.1, n_intervals=0)
        for bad in ({"t1": math.nan}, {"t1": math.inf},
                    {"t1": 0.1, "tol": math.inf}):
            with pytest.raises(ValueError):
                picard_solve(init, profile, model, cfg, grid, **bad)


class TestContractionRatios:
    def test_each_sweep_has_its_ratio_beside_its_distance(self):
        # sweep 0 has no distance before it, so no ratio
        ratios = ContractionReport(distances=[0.5, 0.25, 0.2]).ratios
        assert math.isnan(ratios[0]) and ratios[1:] == [0.5, 0.8]

    def test_no_sweep_has_no_ratio(self):
        # a first guess refused as inadmissible leaves no distance
        assert ContractionReport().ratios == []

    def test_three_ratios_at_least_one_stop_the_solve(self, monkeypatch):
        # admissible sweeps whose distances double: the ratios the solve
        # counts are the report's, and the third at or above 1 ends it
        grid = Grid1D(-5.0, 5.0, 40)
        model = GasModel(gamma=1.4, delta=0.05)
        init = HydroState(rho=np.full(40, 1.0), mom=np.zeros(40))
        sweeps = iter([0.1, 0.3, 0.7, 1.5, 3.1])

        def growing(prev, *args, **kwargs):
            return PicardIterate(rho=np.ones_like(prev.rho),
                                 mom=np.full_like(prev.mom, next(sweeps)))

        monkeypatch.setattr(picard_module, "picard_step", growing)
        rep = picard_solve(init, uniform_profile(grid), model,
                           SolverConfig(epsilon=0.01), grid, t1=0.02,
                           n_intervals=4).report
        assert rep.diverged and not rep.converged
        assert rep.band_violations == []
        assert len(rep.distances) == 4
        assert rep.ratios[1:] == pytest.approx([2.0, 2.0, 2.0])


class TestOneResidualPerSolve:
    """Each distance is the exact residual of the iterate its sweep started
    from, so the solve returns that iterate and sweeps once per distance."""

    @pytest.mark.parametrize("max_iters", [30, 2],
                             ids=["converged", "stopped-by-max-iters"])
    def test_last_distance_is_the_returned_iterates_residual(self, max_iters,
                                                             monkeypatch):
        s, _, guess = scenario_slab(*ODD)
        step, calls = picard_step, []

        def counted(*args):
            calls.append(args[0])
            return step(*args)

        monkeypatch.setattr(picard_module, "picard_step", counted)
        result = picard_solve(s.initial, s.profile, s.model, s.cfg, s.grid,
                              t1=ODD[2], n_intervals=ODD[3], tol=1e-13,
                              max_iters=max_iters)
        rep, it = result.report, result.iterate
        assert rep.converged == (max_iters == 30) and not rep.diverged
        assert len(calls) == len(rep.distances) <= max_iters
        assert calls[-1] is it
        again = step(it, s.initial, s.profile, s.model, s.cfg, s.grid,
                     scenario_tables(s, guess, ODD[2]))
        assert sup_distance(again, it) == rep.distances[-1]


class TestFftLagSum:
    """The space-time FFT sweep against the direct O(n_levels^2) loop."""

    CASES = {
        "outflow-bump": (("gaussian-bump", {"n_cells": 120, "epsilon": 0.05,
                                            "bump_speed": 0.4}, 0.02, 6),
                         conv_same),
        # a periodic slab is circular on its n_cells
        "periodic-excess-density": (("charge-neutral-rest", {
            **NEUTRAL_PERIODIC, "n_cells": 96, "epsilon": 0.02,
            "source_variant": "excess-density", "bump_speed": 0.3},
            0.02, 5), conv_circular),
        # 2h + 1 > n_cells: the wrapped weights sum on the circle
        "periodic-wide-kernel": (("charge-neutral-rest", {
            **NEUTRAL_PERIODIC, "n_cells": 64, "epsilon": 1.0,
            "bump_speed": 0.3}, 1.0, 8), conv_circular),
        "one-interval": (("doping-ramp", {"n_cells": 80, "epsilon": 0.01},
                          0.01, 1), conv_same),
        # np.convolve's 'same' mode cannot serve a kernel wider than the grid
        "wide-kernel": (WIDE, conv_full_sliced),
        # n_cells + 2h = 109 is prime: the padded width is 120
        "prime-width": (("gaussian-bump", {"n_cells": 99, "epsilon": 0.05,
                                           "bump_speed": 0.4}, 0.02, 6),
                        conv_same),
        "seven-intervals": (ODD, conv_same),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_direct_double_loop(self, case):
        slab, conv = self.CASES[case]
        s, kernel, prev = scenario_slab(*slab)
        tables = scenario_tables(s, prev, slab[2])
        # the first guess and one sweep on, where transport is under way
        for _ in range(2):
            fast = picard_step(prev, s.initial, s.profile, s.model, s.cfg,
                               s.grid, tables)
            ref = picard_step_reference(prev, slab[2], s.initial, s.profile,
                                        s.model, kernel, s.grid, s.cfg.tau,
                                        s.cfg.source_variant, conv=conv)
            for got, want in ((fast.rho, ref.rho), (fast.mom, ref.mom)):
                assert got.shape == want.shape
                tol = 1e-13 * max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= tol
            prev = fast


class TestWideKernel:
    def test_sweep_keeps_the_grid_shape(self):
        s, kernel, guess = scenario_slab(*WIDE)
        assert 2 * kernel._half_width(s.grid.dx, WIDE[2]) + 1 > s.grid.n_cells
        out = picard_step(guess, s.initial, s.profile, s.model, s.cfg,
                          s.grid, scenario_tables(s, guess, WIDE[2]))
        assert out.rho.shape == (WIDE[3] + 1, s.grid.n_cells)
        assert out.mom.shape == (WIDE[3] + 1, s.grid.n_cells)

    def test_solve_is_not_reported_as_divergence(self):
        s, _, _ = scenario_slab(*WIDE)
        result = picard_solve(s.initial, s.profile, s.model, s.cfg, s.grid,
                              t1=WIDE[2], n_intervals=WIDE[3])
        rep = result.report
        assert not rep.diverged
        assert rep.converged
        assert rep.band_violations == []


class TestDivergenceSignal:
    def test_inadmissible_iterate_stops_before_the_sweep(self, monkeypatch):
        grid = Grid1D(-5.0, 5.0, 40)
        model = GasModel(gamma=1.4, delta=0.05)
        rho = np.full(40, 1.0)
        rho[7] = model.rho_floor - 1e-3
        init = HydroState(rho=rho, mom=np.zeros(40))
        calls = []
        monkeypatch.setattr(picard_module, "picard_step",
                            lambda *a, **k: calls.append(a))
        result = picard_solve(init, uniform_profile(grid), model,
                              SolverConfig(epsilon=0.01, tau=1.0), grid,
                              t1=0.02, n_intervals=4)
        rep = result.report
        assert calls == []
        assert rep.diverged and not rep.converged
        assert rep.distances == [] and rep.iteration_s == []
        assert rep.band_violations == [
            {"field": "rho", "value": float(rho[7]),
             "bound": model.admissible_floor, "kind": "inadmissible"}]

    def test_non_contracting_exit_checks_its_last_iterate(self,
                                                          monkeypatch):
        # three growing distances end the solve; the sweep that ends it
        # lands at 1.5 delta, above delta but below the 2 delta floor
        grid = Grid1D(-5.0, 5.0, 40)
        model = GasModel(gamma=1.4, delta=0.05)
        init = HydroState(rho=np.full(40, 1.0), mom=np.zeros(40))
        sweeps = iter([(0.1, 1.0), (0.3, 1.0), (0.7, 1.0),
                       (1.5, 1.5 * model.delta)])

        def growing(prev, *args, **kwargs):
            mom, low = next(sweeps)
            rho = np.ones_like(prev.rho)
            rho[-1, 3] = low
            return PicardIterate(rho=rho, mom=np.full_like(prev.mom, mom))

        monkeypatch.setattr(picard_module, "picard_step", growing)
        result = picard_solve(init, uniform_profile(grid), model,
                              SolverConfig(epsilon=0.01, tau=1.0), grid,
                              t1=0.02, n_intervals=4)
        rep = result.report
        assert len(rep.distances) == 4
        assert rep.diverged and not rep.converged
        # the last admissible iterate, the third sweep, is returned
        assert np.array_equal(result.iterate.mom, np.full((5, 40), 0.7))
        assert np.array_equal(result.iterate.rho, np.ones((5, 40)))
        assert rep.band_violations == [
            {"field": "rho", "value": 1.5 * model.delta,
             "bound": model.admissible_floor, "kind": "inadmissible"}]

    def test_sweep_with_a_nan_momentum_stops_as_diverged(self, monkeypatch):
        # a NaN momentum passes the distance, the ratio test and the band
        # check (NaN compares false), so the admissibility test lists it:
        # the solve stops after that one sweep and returns the first guess
        grid = Grid1D(-5.0, 5.0, 40)
        model = GasModel(gamma=1.4, delta=0.05)
        init = HydroState(rho=np.full(40, 1.0), mom=np.zeros(40))

        def nan_momentum(prev, *args, **kwargs):
            mom = np.zeros_like(prev.mom)
            mom[2, 11] = np.nan
            return PicardIterate(rho=prev.rho.copy(), mom=mom)

        monkeypatch.setattr(picard_module, "picard_step", nan_momentum)
        result = picard_solve(init, uniform_profile(grid), model,
                              SolverConfig(epsilon=0.01, tau=1.0), grid,
                              t1=0.02, n_intervals=4)
        rep = result.report
        assert len(rep.distances) == 1 and math.isnan(rep.distances[0])
        assert rep.diverged and not rep.converged
        (violation,) = rep.band_violations
        assert math.isnan(violation.pop("value"))
        assert violation == {"field": "mom", "bound": math.inf,
                             "kind": "inadmissible"}
        assert np.array_equal(result.iterate.mom, np.zeros((5, 40)))

    def test_other_errors_propagate(self, monkeypatch):
        grid = Grid1D(-5.0, 5.0, 40)
        model = GasModel(gamma=1.4, delta=0.05)
        init = HydroState(rho=np.full(40, 1.0), mom=np.zeros(40))

        def broken(*args, **kwargs):
            raise ValueError("not a divergence")

        monkeypatch.setattr(picard_module, "picard_step", broken)
        with pytest.raises(ValueError, match="not a divergence"):
            picard_solve(init, uniform_profile(grid), model,
                         SolverConfig(epsilon=0.01, tau=1.0), grid, t1=0.02)
