"""One workload in one fresh process: warm-up, timed passes, optional trace.

Started by ``run_bench.py`` with ``src`` on PYTHONPATH and BLAS threads
pinned to 1; it writes its result as JSON to ``--result``. With
``--setup-only`` it imports minmaps, builds the workload's input fields and
exits, which is what ``setup_s`` times.

Untraced passes run with the speed probe of ``reference.py`` on; each
pass's time is also given divided by the probe's mean kernel time during
that pass (``pass_rel``, median ``scenario_rel``). Traced passes run
without it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import PROBE, kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _median(values):
    return statistics.median(values) if values else 0.0


def _check_summary(passes) -> dict:
    """Each check by name: evaluations, all passed, and the detail of the
    first failure (of the last evaluation when none failed)."""
    out = {}
    for p in passes:
        for name, ok, detail in p.checks:
            entry = out.setdefault(name, {"runs": 0, "ok": True, "detail": detail})
            entry["runs"] += 1
            if entry["ok"]:
                entry.update(ok=ok, detail=detail)
    return out


def run(args) -> dict:
    import numpy

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    wl = workload(args.seed, work / "main", args.smoke)
    if args.setup_only:
        wl.build_fields()
        return {}
    # warm-up: the same code paths at smoke size, checked but not timed
    warm = [] if args.smoke else [workload(args.seed, work / "warmup", True).run_pass()]

    tracer = None
    if args.trace:
        from tracing import LAYER_METRICS, Tracer, layer_metrics
        tracer = Tracer()
    kernel()  # first-call costs of the probe's own numpy paths, untimed
    passes, ratios, traced, layers, counters = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        since = len(PROBE.samples)
        PROBE.start()
        try:
            passes.append(wl.run_pass())
        finally:
            PROBE.stop()
        ratios.append(passes[-1].total_s / PROBE.speed(since))
        if tracer is not None:
            tracer.run_id += 1
            tracer.counters.clear()
            base = len(tracer.spans)
            tracer.install()
            try:
                traced.append(wl.run_pass())
            finally:
                tracer.uninstall()
            counters.append(dict(tracer.counters))
            layers.append(layer_metrics(tracer.spans[base:], base, counters[-1]))
        elapsed = time.perf_counter() - t_start
        if args.smoke or elapsed + elapsed / len(passes) > args.seconds:
            break

    every = warm + passes + traced
    attempted = sum(p.attempted for p in every)
    failures = [f for p in every for f in p.failures]
    checks = _check_summary(every)
    hashes = passes[0].hashes
    same = all(p.hashes == hashes for p in passes[1:] + traced)
    checks["outputs byte-identical across passes"] = {
        "runs": len(passes) + len(traced), "ok": same,
        "detail": f"{len(hashes)} files"}

    scenarios = sorted(passes[0].times)
    result = {
        "numpy": numpy.__version__,
        "passes": len(passes),
        "pass_s": [p.total_s for p in passes],
        "pass_rel": ratios,
        "scenario_s": _median([p.total_s for p in passes]),
        "scenario_rel": _median(ratios),
        "probe_ms": _median(PROBE.samples) * 1e3,
        "times": {f"{s}_s": _median([p.times[s] for p in passes])
                  for s in scenarios},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "checks": checks,
        "hashes": hashes,
        "extra": passes[0].extra,
    }
    if tracer is not None:
        metrics = {k: _median([layer[k] for layer in layers]) for k in layers[0]}
        for key in ("flow.steps", "flow.dt_halvings"):
            metrics[key] = traced[0].extra.get(key, 0)
        metrics["ops_failed_frac"] = len(failures) / max(attempted, 1)
        untraced_s = result["scenario_s"]
        traced_s = _median([p.total_s for p in traced])
        metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
        metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        exact = [k for k in layers[0] if LAYER_METRICS[k][0] in ("count", "bytes")]
        repeat = all(layer[k] == layers[0][k] for layer in layers for k in exact) \
            and all(c == counters[0] for c in counters)
        result["checks"]["trace counts repeat across traced passes"] = {
            "runs": len(layers), "ok": repeat, "detail": f"{len(layers)} passes"}
        result["layers"] = metrics
        result["traced_passes"] = len(traced)
        result["traced_pass_s"] = [p.total_s for p in traced]
        result["counters"] = counters[0]
        tracer.write(Path(args.spans))
        result["spans"] = len(tracer.spans)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args()
    result = run(args)
    if args.result:
        Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
