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

A preset's map is already minimal, so `flow` starts from it bumped by
PERTURB (`[map] perturb` of a config on the preset's chart and grid), so
that the solver steps. `flow-start` runs `flow --preset` on the preset
itself: it takes few steps or none, and its first monitor row is the
only flow output computed from the preset's formula (a bumped map has
none). Each flow run prints its step count in both trees, and
`not converged` where a tree's flow stopped short of its tolerance (which
counts as a failed run).

Usage: python scripts/compare_outputs.py OLD_TREE [NEW_TREE] [--n 65 ...]
                                         [--preset NAME ...]

NEW_TREE defaults to the tree holding this script. Exit code 1 when a run
fails in either tree, else 2 when any file differs, else 0.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from minmaps import presets

FLOW_FILES = ("monitors.csv", "final_map.txt", "summary.txt")
# (run label, subcommand, files)
COMMANDS = (("analyze", "analyze", ("analysis.csv", "summary.txt")),
            ("verify", "verify", ("verify.csv", "summary.txt")),
            ("refine", "refine", ("refine.csv", "summary.txt")),
            ("flow-start", "flow", FLOW_FILES),
            ("flow", "flow", FLOW_FILES))


PERTURB = 0.01


def flow_config(path: Path, preset: str, n: int) -> Path:
    """A flow config of the preset's map on its chart with n points per
    axis, bumped by PERTURB."""
    source, target, spec, chart, _ = presets.SCENARIO_SPECS[preset]
    corners = [f"{k} = {v!r}" for k, v in zip(("x0", "x1", "y0", "y1"), chart)]
    path.write_text("\n".join([
        "[source]", f"metric = {source}", "[target]", f"metric = {target}",
        "[map]", f"spec = {spec}", f"perturb = {PERTURB!r}",
        "[grid]", f"nx = {n}", *corners]) + "\n")
    return path


def run_tree(tree: Path, out: Path, command: str, scenario: list) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "minmaps", command, *scenario, "--out", str(out)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{tree}: {command} {' '.join(scenario)} exited "
              f"{proc.returncode}: {proc.stderr.strip()}")
    return proc.returncode


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and rows of a point table (comment line, names, rows)."""
    with open(path) as fh:
        names = fh.readlines()[1].strip().split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def flow_steps(out: Path) -> tuple[str, bool]:
    """The step count of a flow run and whether it converged."""
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines()
                   if " = " in line)
    return summary["steps"], summary["converged"] == "true"


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
    runs = [(preset, label, command, files, n)
            for preset in args.preset or sorted(presets.SCENARIOS)
            for label, command, files in COMMANDS
            for n in (args.n[:1] if command == "refine" else args.n)]
    failed = False
    same = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for preset, label, command, files, n in runs:
            run = f"{label}/{preset}"
            if command != "refine" and len(args.n) > 1:
                run += f"/n{n}"
            outs = [Path(tmp) / side / run for side in ("old", "new")]
            if label == "flow":
                cfg = Path(tmp) / "configs" / run.replace("/", "_")
                cfg.parent.mkdir(exist_ok=True)
                scenario = ["--config", str(flow_config(cfg, preset, n))]
            else:
                scenario = ["--preset", preset]
                if command != "refine":
                    scenario += ["--grid", str(n)]
            codes = [run_tree(tree.resolve(), out, command, scenario)
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
            if command == "flow":
                (old, done_old), (new, done_new) = map(flow_steps, outs)
                stopped = [side for side, done in (("old", done_old),
                                                   ("new", done_new))
                           if not done]
                print(f"{run}: steps old {old}, new {new}"
                      + "".join(f", not converged in {s}" for s in stopped))
                failed = failed or bool(stopped)
    print(f"{same} of {total} files identical")
    return 1 if failed else 2 if same < total else 0


if __name__ == "__main__":
    raise SystemExit(main())
