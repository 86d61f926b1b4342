#!/usr/bin/env python3
"""Memory of each stage of a verify pass, in grid planes.

Builds one preset field, runs its pointwise pass, then runs the stages of a
`verify` pass in order: the graph pass, then each identity. For each stage
it prints the memory the stage keeps (its cached passes and its residual
fields) and the transient memory above that at the stage's peak, both from
`tracemalloc` and in units of one n x n float64 plane.

Usage: python scripts/stage_memory.py [--n 129] [--preset z_squared]
"""

import argparse
import tracemalloc

from minmaps import presets
from minmaps.cli import IDENTITY_CHECKS


def measure(stage, plane: int):
    """stage() and its kept and transient memory, in planes."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = stage()
    after, peak = tracemalloc.get_traced_memory()
    return result, (after - before) / plane, (peak - after) / plane


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=129, help="grid points per axis")
    ap.add_argument("--preset", default="z_squared",
                    choices=sorted(presets.SCENARIOS))
    args = ap.parse_args()

    mf = presets.SCENARIOS[args.preset](n=args.n)
    plane = args.n * args.n * 8
    mf.pointwise                # the analyze pass, which verify reads
    tracemalloc.start()
    stages = [("graph", lambda: mf.graph)]
    stages += [(name, lambda c=check: c(mf)) for name, check in IDENTITY_CHECKS]
    kept = []                   # verify holds every report until it writes
    print(f"preset = {args.preset}, n = {args.n}, unit = one {args.n}x{args.n} "
          "float64 plane")
    for name, stage in stages:
        result, keeps, transient = measure(stage, plane)
        kept.append(result)
        print(f"{name:<16} keeps {keeps:6.1f}  transient {transient:6.1f}")
    tracemalloc.stop()


if __name__ == "__main__":
    main()
