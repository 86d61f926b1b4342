#!/usr/bin/env python3
"""Relax a sine-perturbed fixture back to a minimal graph and report the
solver's history (step length, guard rejections, Anderson depth, tension)
plus the final area-decreasing certificate.

Usage: python scripts/run_flow_experiment.py [--fixture z_squared] [--n 65]
       [--eps 0.01] [--reduction 1000] [--out DIR]
"""

import argparse
import time
from pathlib import Path

from minmaps import FlowConfig, flow, presets


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixture", default="z_squared",
                    choices=sorted(presets.SCENARIOS))
    ap.add_argument("--n", type=int, default=65)
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--reduction", type=float, default=1000.0,
                    help="stop once the sup tension drops by this factor")
    ap.add_argument("--max-steps", type=int, default=50000)
    ap.add_argument("--out", type=Path, default=None,
                    help="write monitors.csv and final_map.txt here")
    args = ap.parse_args()

    start = presets.sine_bump(presets.SCENARIOS[args.fixture](n=args.n), args.eps)
    tau0 = start.tension.norm_tau  # cached: run_to_minimal reuses it
    print(f"fixture = {args.fixture}, n = {args.n}, eps = {args.eps}")
    print(f"initial tension = {tau0:.6e}, target = {tau0 / args.reduction:.6e}")

    t0 = time.perf_counter()
    result = flow.run_to_minimal(
        start, FlowConfig(stop_tension=tau0 / args.reduction,
                          max_steps=args.max_steps))
    wall = time.perf_counter() - t0
    state = result.state

    # print a geometric subsample of the monitor history
    rows = state.monitors
    picks = sorted({0, len(rows) - 1,
                    *(min(len(rows) - 1, 2 ** k) for k in range(30))})
    print(f"{'step':>7} {'length':>10} {'rejected':>8} {'depth':>5} "
          f"{'tension':>12} {'min_phi':>9}")
    for k in picks:
        r = rows[k]
        print(f"{r.step:>7} {r.dt:>10.3e} {r.chart_exits + r.tension_jumps:>8} "
              f"{r.depth:>5} {r.norm_tau:>12.5e} {r.min_phi:>9.5f}")

    c = result.certificate
    print(f"converged = {result.converged} in {state.steps} steps, {wall:.2f}s, "
          f"{state.rejections} rejections")
    print(f"certificate: min_phi = {c.min_phi:.6f}, min_theta = {c.min_theta:.6f}, "
          f"max|J_f| = {c.max_abs_jf:.6f}, area_decreasing = {c.area_decreasing}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        flow.write_monitors_csv(state, args.out / "monitors.csv")
        flow.write_snapshot(state.map, args.out / "final_map.txt")
        print(f"wrote {args.out / 'monitors.csv'} and {args.out / 'final_map.txt'}")


if __name__ == "__main__":
    main()
