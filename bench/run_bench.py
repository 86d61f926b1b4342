#!/usr/bin/env python3
"""minmaps benchmark: end-to-end and per-layer timings with checked outputs.

Usage, from the repository root:

    python3 bench/run_bench.py --workload verify_n257 --seed 0 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all      # every workload, untraced and traced
    python3 bench/run_bench.py --smoke             # tiny sizes, checks only, a few seconds

Workloads (see ``workloads.py`` for why each was chosen): ``verify_n257``,
``refine_ladder`` and ``flow_relax_n65``. Each run is one closed-loop
client: the workload runs in its own fresh process, one pass after another,
with BLAS threads pinned to 1.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: a fresh process imports minmaps and builds the workload's
  input fields; median of several such processes;
* ``scenario_rel``: median over passes of the wall time of one pass over
  the workload's scenarios (analyze + verify; the seven refines; flow +
  artifacts) divided by the mean time of the fixed reference kernel
  sampled during that pass (``reference.py``). The host's speed drifts by
  up to 1.5x over minutes, and the ratio cancels that drift;
* ``peak_rss_mb``: peak resident memory of the workload's process.

The report and the record also give the wall times the ratio is made of:
``scenario_s`` (median pass time) and the median time of each scenario
kind the workload runs (``analyze_s``, ``verify_s``, ``refine_s``,
``flow_s``), all without the probe's own time.
A failed run (an exception, a non-zero exit code or a failed check) counts
in ``failed`` against ``attempted``.

``--trace 1`` runs traced passes separately from untraced ones and reports
the per-layer metrics of ``tracing.py`` plus the tracing overhead. Both
print every metric with its unit and every correctness check, write the
full record (machine, versions, commit, seed, hashes of every CSV) to
``.bench_runs/``, and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_runs"
WORKLOADS = ("verify_n257", "refine_ladder", "flow_relax_n65")
SETUP_REPEATS = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "scenario_rel": "ratio", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout's own git repository, or 'unknown' outside one."""
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Starts worker processes one at a time, within one deadline."""

    def __init__(self, out: Path):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = _env()
        self.out = out

    def worker(self, *args: str) -> float:
        """Run bench/worker.py to completion; returns its wall time.

        The deadline is enforced by a timer that kills the process, so the
        wait itself blocks in waitpid and the wall time is not rounded up
        to a polling interval.
        """
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise subprocess.TimeoutExpired(cmd, 0)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - t0
        if time.monotonic() >= self.deadline:
            raise subprocess.TimeoutExpired(cmd, remaining)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        return elapsed

    def workload(self, name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
        work = self.out / f"work-{name}"
        if work.exists():
            shutil.rmtree(work)
        common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
        if smoke:
            common.append("--smoke")
        try:
            if not smoke:
                self.worker(*common, "--setup-only")  # fills caches, untimed
            repeats = 1 if smoke else SETUP_REPEATS
            setups = [self.worker(*common, "--setup-only") for _ in range(repeats)]
            tag = f"{name}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
            result_file = self.out / f"{tag}.worker.json"
            self.worker(*common, "--seconds", str(seconds),
                        "--trace", str(trace), "--result", str(result_file),
                        "--spans", str(self.out / f"spans-{tag}.csv"))
            result = json.loads(result_file.read_text())
            result_file.unlink()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        result["setup_runs_s"] = setups
        result["setup_s"] = statistics.median(setups)
        if trace:
            result["metrics"] = {
                k: {"value": result["layers"][k], "unit": unit}
                for k, (unit, _) in LAYER_METRICS.items()}
        else:
            result["metrics"] = {k: {"value": result[k], "unit": unit}
                                 for k, unit in END_TO_END_UNITS.items()}
        result["correct"] = result["failed"] == 0 and all(
            c["ok"] for c in result["checks"].values())
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": trace, "smoke": smoke,
                  "machine": {**_machine(), "numpy": result["numpy"]},
                  **result}
        (self.out / f"{tag}.json").write_text(json.dumps(record, indent=1))
        return record


def _report(rec: dict) -> None:
    m = rec["machine"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']}"
          f"{' smoke' if rec['smoke'] else ''}: nproc={m['nproc']} "
          f"cpu={m['cpu_model']!r} python={m['python']} numpy={m['numpy']} "
          f"commit={m['commit'][:12]}")
    print(f"   passes={rec['passes']} pass_s="
          + " ".join(f"{v:.3f}" for v in rec["pass_s"])
          + "  " + " ".join(f"{k}={v:.4f} s" for k, v in rec["times"].items()))
    print("   pass_rel=" + " ".join(f"{v:.2f}" for v in rec["pass_rel"])
          + f"  scenario_s={rec['scenario_s']:.4f} s"
          f"  probe kernel={rec['probe_ms']:.3f} ms")
    for name, metric in rec["metrics"].items():
        print(f"   {name} = {metric['value']:.6g} {metric['unit']}")
    for name, c in rec["checks"].items():
        print(f"   {'PASS' if c['ok'] else 'FAIL'} {name} "
              f"[{c['runs']} runs; {c['detail']}]")
    for line in rec["failures"]:
        print(f"   failure: {line}")
    print(f"   attempted={rec['attempted']} failed={rec['failed']} "
          f"correct={rec['correct']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny sizes; checks only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "minmaps" / "__init__.py").is_file():
        print(f"run_bench: no minmaps sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(OUT)

    if args.smoke or args.workload == "all":
        modes = [1] if args.smoke else [0, 1]
        runs = [(w, t) for w in WORKLOADS for t in modes]
    else:
        runs = [(args.workload, args.trace)]
    if not args.smoke and args.workload == "all":
        runner.deadline = float("inf")
    records = []
    try:
        for name, trace in runs:
            records.append(runner.workload(name, args.seed, args.seconds,
                                           trace, args.smoke))
            _report(records[-1])
    except subprocess.CalledProcessError as exc:
        print(f"run_bench: worker failed with exit code {exc.returncode}",
              file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("run_bench: worker did not finish before the deadline",
              file=sys.stderr)
        return 1

    metrics = {}
    for rec in records:
        for k, v in rec["metrics"].items():
            metrics[f"{rec['workload']}.{k}" if len(runs) > 1 else k] = v
    summary = {"correct": all(r["correct"] for r in records),
               "attempted": sum(r["attempted"] for r in records),
               "failed": sum(r["failed"] for r in records),
               "metrics": metrics}
    print(json.dumps(summary))
    if args.smoke:
        return 0 if summary["correct"] else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
