#!/usr/bin/env python3
"""Memory of each stage of a verify pass, in grid planes.

Runs the stages of a `verify` pass of one preset field in order: building
the field with its pointwise pass, the graph pass, each identity, then the
write of verify.csv, which holds only the residual planes and X, Y (as
`minmaps verify` does, the field and the reports are dropped first). For
each stage it prints the memory the stage keeps (its cached passes and its
residual fields) and the transient memory above that at the stage's peak;
the last line is the peak of the whole pass. All figures come from
`tracemalloc`, in units of one n x n float64 plane.

Usage: python scripts/stage_memory.py [--n 129] [--preset z_squared]
"""

import argparse
import tempfile
import tracemalloc
from pathlib import Path

from minmaps import presets
from minmaps.cli import IDENTITY_CHECKS, _write_table


def measure(stage, plane: int):
    """stage(), its kept and transient memory in planes, and its peak in
    bytes."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = stage()
    after, peak = tracemalloc.get_traced_memory()
    return result, (after - before) / plane, (peak - after) / plane, peak


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=129, help="grid points per axis")
    ap.add_argument("--preset", default="z_squared",
                    choices=sorted(presets.SCENARIOS))
    args = ap.parse_args()

    plane = args.n * args.n * 8
    print(f"preset = {args.preset}, n = {args.n}, unit = one {args.n}x{args.n} "
          "float64 plane")
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    pass_peak = 0

    def report(name, stage):
        nonlocal pass_peak
        result, keeps, transient, peak = measure(stage, plane)
        pass_peak = max(pass_peak, peak)
        print(f"{name:<16} keeps {keeps:6.1f}  transient {transient:6.1f}")
        return result

    def build():
        mf = presets.SCENARIOS[args.preset](n=args.n)
        mf.pointwise            # the analyze pass, which verify reads
        return mf

    mf = report("field", build)
    report("graph", lambda: mf.graph)
    columns, fields = ["x", "y"], list(mf.grid.mesh())
    for name, check in IDENTITY_CHECKS:
        comps = report(name, lambda c=check: c(mf)).components
        columns += [f"{name}.{comp}" for comp in comps]
        fields += comps.values()
    del mf, comps               # the write keeps only what it writes
    with tempfile.TemporaryDirectory() as tmp:
        report("write", lambda: _write_table(Path(tmp) / "verify.csv", "verify",
                                             columns, fields))
    tracemalloc.stop()
    print(f"{'pass':<16} peak  {(pass_peak - start) / plane:6.1f}")


if __name__ == "__main__":
    main()
