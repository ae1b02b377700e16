"""Long-horizon bound audit over the scenario library.

Runs each scenario with the full monitor suite and prints one row per run:
the worst density margin over the vacuum offset, the relative mass drift,
the smallest field-bound margin, the smallest Riemann slack, and how many
violations the audit recorded.  Use --scenario to restrict to one entry.
"""

import argparse
import sys
import time

import numpy as np

from semiflux import SCENARIOS, evaluate_trajectory, make_setup
from semiflux.monitors import MONITOR_COLUMNS
from semiflux.solver import run

COL = {name: i for i, name in enumerate(MONITOR_COLUMNS)}


def audit_one(name, n_cells, t_end, cadence):
    setup = make_setup(name, {"n_cells": n_cells, "t_end": t_end})
    t0 = time.perf_counter()
    traj = run(setup.initial, setup.profile, setup.model, setup.cfg,
               setup.grid, record_every=cadence)
    wall = time.perf_counter() - t0
    report = evaluate_trajectory(traj, setup.profile)
    rows = np.asarray(report.rows)
    floor = 2.0 * setup.model.delta
    mass = rows[:, COL["mass"]]
    drift = np.max(np.abs(mass - mass[0])) / max(abs(mass[0]), 1e-300)
    plateau_flags = [v for k, v in report.summary.items()
                     if k.startswith("plateau_") and k.endswith("_ok")]
    return {
        "name": name,
        "steps": int(rows[-1, COL["step"]]),
        "t_final": float(rows[-1, COL["time"]]),
        "rho_margin": float(np.min(rows[:, COL["min_rho"]]) - floor),
        "mass_drift": float(drift),
        "field_margin": float(np.min(rows[:, COL["field_bound"]]
                                     - rows[:, COL["sup_abs_field"]])),
        "riemann_slack": float(np.min(rows[:, COL["riemann_slack"]])),
        "violations": len(report.violations),
        "plateau_ok": all(plateau_flags) if plateau_flags else None,
        "wall": wall,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", default=None, choices=sorted(SCENARIOS),
                    help="restrict to one scenario (default: all)")
    ap.add_argument("--n-cells", type=int, default=500)
    ap.add_argument("--t-end", type=float, default=50.0,
                    help="horizon; plateau verdicts need the transient gone")
    ap.add_argument("--cadence", type=int, default=25)
    args = ap.parse_args(argv)

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    header = (f"{'scenario':22s} {'steps':>7s} {'t_end':>6s} {'rho-2d':>10s} "
              f"{'massdrift':>10s} {'E margin':>10s} {'zw slack':>10s} "
              f"{'viol':>4s} {'plateau':>7s} {'wall':>7s}")
    print(header)
    print("-" * len(header))
    bad = 0
    for name in names:
        r = audit_one(name, args.n_cells, args.t_end, args.cadence)
        plateau = "-" if r["plateau_ok"] is None else str(r["plateau_ok"])
        print(f"{r['name']:22s} {r['steps']:7d} {r['t_final']:6.2f} "
              f"{r['rho_margin']:10.2e} {r['mass_drift']:10.2e} "
              f"{r['field_margin']:10.2e} {r['riemann_slack']:10.2e} "
              f"{r['violations']:4d} {plateau:>7s} {r['wall']:6.1f}s")
        bad += r["violations"]
    if bad:
        print(f"\n{bad} violation(s) across the sweep")
        return 1
    print("\nall bounds hold on every audited step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
