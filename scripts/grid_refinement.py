"""Self-convergence study: halve dx, compare endpoint states in L1."""

import argparse
import sys

import numpy as np

from semiflux import (Boundary, DeviceProfile, GasModel, Grid1D,
                      drift_diffusion_run, make_setup)
from semiflux.solver import run


def hydro_endpoint(name, n_cells, t_end, epsilon):
    setup = make_setup(name, {"n_cells": n_cells, "t_end": t_end,
                              "epsilon": epsilon})
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, record_times=[t_end])
    return setup.grid.centers, traj.rho[-1], traj.mom[-1]


def hydro_study(name, levels, base_n, t_end, epsilon):
    print(f"hydro solver, scenario {name}, t_end={t_end}, eps={epsilon}")
    grids = [base_n * 2 ** k for k in range(levels)]
    states = [hydro_endpoint(name, n, t_end, epsilon) for n in grids]
    errs = []
    for (xc, rc, mc), (xf, rf, mf) in zip(states, states[1:]):
        dx = xc[1] - xc[0]
        err = dx * (np.sum(np.abs(rc - np.interp(xc, xf, rf)))
                    + np.sum(np.abs(mc - np.interp(xc, xf, mf))))
        errs.append(err)
    for n, err in zip(grids, errs):
        print(f"  n={n:5d} vs n={2 * n:5d}: L1 gap {err:.4e}")
    factors = [a / b for a, b in zip(errs, errs[1:])]
    for f in factors:
        print(f"  reduction factor {f:.3f} (rate {np.log2(f):.2f})")
    return factors


def diffusion_study(levels, base_n, s_end):
    # pure parabolic branch on a neutral device: the endpoint smooths an
    # off-center bump, so the first-order flux split should show rate >= 1
    print(f"drift-diffusion, s_end={s_end}")
    gamma, errs, states = 1.4, [], []
    grids = [base_n * 2 ** k for k in range(levels)]
    for n in grids:
        grid = Grid1D(x_min=-4.0, x_max=4.0, n_cells=n,
                      boundary=Boundary.OUTFLOW)
        model = GasModel(gamma=gamma, delta=0.05)
        profile = DeviceProfile.uniform(grid, a=1.0, b=0.0, e_minus=0.0)
        n0 = 0.5 + 0.8 * np.exp(-grid.centers ** 2)
        traj = drift_diffusion_run(n0, profile, model, grid, s_end,
                                   record_times=[s_end])
        states.append((grid.centers, traj.n_vals[-1]))
    for (xc, nc), (xf, nf) in zip(states, states[1:]):
        dx = xc[1] - xc[0]
        errs.append(dx * np.sum(np.abs(nc - np.interp(xc, xf, nf))))
    for n, err in zip(grids, errs):
        print(f"  n={n:5d} vs n={2 * n:5d}: L1 gap {err:.4e}")
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    for o in orders:
        print(f"  observed order {o:.3f}")
    return orders


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="gaussian-bump")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--base-n", type=int, default=250)
    ap.add_argument("--t-end", type=float, default=0.3)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--s-end", type=float, default=0.1,
                    help="drift-diffusion horizon")
    args = ap.parse_args(argv)
    factors = hydro_study(args.scenario, args.levels, args.base_n,
                          args.t_end, args.epsilon)
    print()
    orders = diffusion_study(args.levels, max(args.base_n // 2, 50),
                             args.s_end)
    ok = all(f > 1.0 for f in factors) and all(o > 0.5 for o in orders)
    print(f"\nrefinement {'consistent' if ok else 'NOT consistent'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
