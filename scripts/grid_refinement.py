"""Self-convergence study of the hydro march: halve dx, compare endpoint
states in L1.  The drift-diffusion reference has its own order gate in
acceptance criterion 10."""

import argparse
import sys

import numpy as np

from semiflux import make_setup
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="gaussian-bump")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--base-n", type=int, default=250)
    ap.add_argument("--t-end", type=float, default=0.3)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    args = ap.parse_args(argv)
    factors = hydro_study(args.scenario, args.levels, args.base_n,
                          args.t_end, args.epsilon)
    ok = all(f > 1.0 for f in factors)
    print(f"\nrefinement {'consistent' if ok else 'NOT consistent'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
