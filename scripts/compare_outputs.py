#!/usr/bin/env python3
"""Byte report of the CLI outputs of two source trees.

Runs `analyze`, `verify`, `refine` and `flow` of each preset at each given
grid size in both trees (`python -m minmaps` with the tree's src/ on PYTHONPATH)
and prints, for each output file, `identical`, or what moved: the largest
absolute difference of each CSV column that changed, the points where a
column's NaN pattern changed, and the changed lines of the text files
(summary.txt, final_map.txt). A file neither tree wrote (flow skips
final_map.txt on a grid whose spacings differ) is left out. `refine` takes
no size (it runs its own ladder), so it runs once; with several sizes the
other files are named by their size (`verify/z_squared/n129/verify.csv`).

Usage: python scripts/compare_outputs.py OLD_TREE [NEW_TREE] [--n 65 ...]
                                         [--preset NAME ...]

NEW_TREE defaults to the tree holding this script. Exit code 1 when a run
fails in either tree, else 0 (also when outputs differ).
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from minmaps import presets

COMMANDS = (("analyze", ("analysis.csv", "summary.txt")),
            ("verify", ("verify.csv", "summary.txt")),
            ("refine", ("refine.csv", "summary.txt")),
            ("flow", ("monitors.csv", "final_map.txt", "summary.txt")))


def run_tree(tree: Path, out: Path, command: str, preset: str, n: int) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    size = [] if command == "refine" else ["--grid", str(n)]
    proc = subprocess.run(
        [sys.executable, "-m", "minmaps", command, "--preset", preset,
         *size, "--out", str(out)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{tree}: {command} {preset} exited {proc.returncode}: "
              f"{proc.stderr.strip()}")
    return proc.returncode


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and rows of a point table (comment line, names, rows)."""
    with open(path) as fh:
        names = fh.readlines()[1].strip().split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def text_report(old: Path, new: Path) -> list[str]:
    a, b = old.read_text().splitlines(), new.read_text().splitlines()
    return ([f"    - {line}" for line in a if line not in b]
            + [f"    + {line}" for line in b if line not in a])


def csv_report(old: Path, new: Path) -> list[str]:
    (names, a), (names_new, b) = read_csv(old), read_csv(new)
    if names != names_new or a.shape != b.shape:
        return ["    columns or row count differ"]
    nan_moved = (np.isnan(a) != np.isnan(b)).sum(axis=0)
    both = ~(np.isnan(a) | np.isnan(b))
    diff = np.where(both, np.abs(a - b), 0.0).max(axis=0)
    return [f"    {name}: max |diff| {d:.3g}, NaN pattern changed at {k} points"
            for name, d, k in zip(names, diff, nan_moved) if d or k]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="tree of the reference outputs")
    ap.add_argument("new", type=Path, nargs="?",
                    default=Path(__file__).resolve().parent.parent,
                    help="tree to compare with it (default: this one)")
    ap.add_argument("--n", type=int, nargs="+", default=[65],
                    help="grid points per axis, one or more sizes")
    ap.add_argument("--preset", action="extend", nargs="+",
                    choices=sorted(presets.SCENARIOS),
                    help="presets to run (default: all)")
    args = ap.parse_args()

    # refine runs its own ladder: once
    runs = [(preset, command, files, n)
            for preset in args.preset or sorted(presets.SCENARIOS)
            for command, files in COMMANDS
            for n in (args.n[:1] if command == "refine" else args.n)]
    failed = False
    same = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for preset, command, files, n in runs:
            run = f"{command}/{preset}"
            if command != "refine" and len(args.n) > 1:
                run += f"/n{n}"
            outs = [Path(tmp) / side / run for side in ("old", "new")]
            codes = [run_tree(tree.resolve(), out, command, preset, n)
                     for tree, out in zip((args.old, args.new), outs)]
            if any(codes):
                failed = True
                continue
            for name in files:
                old, new = (out / name for out in outs)
                if not (old.exists() or new.exists()):
                    continue
                total += 1
                where = f"{run}/{name}"
                if not (old.exists() and new.exists()):
                    print(f"{where}: differs")
                    print(f"    only in {'old' if old.exists() else 'new'}")
                    continue
                if old.read_bytes() == new.read_bytes():
                    same += 1
                    print(f"{where}: identical")
                    continue
                print(f"{where}: differs")
                report = csv_report if name.endswith(".csv") else text_report
                for line in report(old, new):
                    print(line)
    print(f"{same} of {total} files identical")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
