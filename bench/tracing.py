"""In-memory span tracing around the public functions of each minmaps layer.

Spans are installed from outside the package: every public function named
in ``BOUNDARIES`` is replaced by a wrapper that records (name, start, end,
parent, run id), on the module that defines it and on every other module
or table that bound it by name (``verifier.graph_grid``,
``flow.area_decreasing_certificate``, ``cli.IDENTITY_CHECKS``,
``presets.SCENARIOS`` ...). Nothing under ``src/`` changes; ``uninstall``
puts every original object back.

Layer metrics follow two rules:

* ``<group>.calls`` / ``<group>.ms`` count only calls that enter the group
  from outside it (a span whose ancestors include no span of the same
  group), so a metric helper calling another helper is not counted twice;
* ``self`` time of a span is its duration minus the time covered by its
  direct child spans (children of one span never overlap: one thread).
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

# (module, owner attribute or None for a module function, function names)
BOUNDARIES = (
    ("presets", None, ("map_preset", "parse_map_spec", "parse_metric_spec",
                       "paper_example_field", "z_squared_field",
                       "z_squared_mixed_field", "identity_hyperbolic_field",
                       "constant_field", "mobius_field", "affine_field")),
    ("pointwise", "MapField", ("from_expr",)),
    ("expressions", "MapExpr", ("__call__", "jacobian")),
    ("surface", "ConformalMetric", ("rho", "log_rho_grad", "metric_tensor",
                                    "christoffel_tensor", "curvature",
                                    "contains")),
    ("stencils", None, ("d_x", "d_y", "d_xx", "d_yy", "d_xy")),
    ("pointwise", None, ("pointwise_grid",)),
    ("graph_geometry", None, ("graph_grid", "laplace_beltrami_array")),
    ("verifier", None, ("verify_pullback_derivative", "verify_form_laplacian",
                        "verify_jacobian_laplacians",
                        "verify_gradient_identities", "refinement_study",
                        "area_decreasing_certificate")),
    ("flow", None, ("tension_pass", "make_state", "step", "run_to_minimal",
                    "write_monitors_csv", "write_snapshot")),
    ("cli", None, ("run",)),
)

# modules scanned for names bound with ``from .x import f``
_BINDING_MODULES = ("cli", "flow", "verifier", "graph_geometry", "pointwise",
                    "presets", "surface", "stencils", "expressions")

IDENTITIES = {
    "verifier.verify_pullback_derivative": "pullback",
    "verifier.verify_form_laplacian": "form_laplacian",
    "verifier.verify_jacobian_laplacians": "jacobians",
    "verifier.verify_gradient_identities": "gradients",
}


# per-layer metric -> (unit, better); the order is the order of reports
LAYER_METRICS = {
    "presets.build.calls": ("count", "lower"),
    "presets.build.ms": ("ms", "lower"),
    "expressions.eval.calls": ("count", "lower"),
    "expressions.eval.ms": ("ms", "lower"),
    "surface.metric.calls": ("count", "lower"),
    "surface.metric.ms": ("ms", "lower"),
    "stencils.calls": ("count", "lower"),
    "stencils.ms": ("ms", "lower"),
    "pointwise.pointwise_grid.calls": ("count", "lower"),
    "pointwise.pointwise_grid.ms": ("ms", "lower"),
    "graph_geometry.graph_grid.calls": ("count", "lower"),
    "graph_geometry.graph_grid.ms": ("ms", "lower"),
    "graph_geometry.laplace_beltrami_array.calls": ("count", "lower"),
    "graph_geometry.laplace_beltrami_array.ms": ("ms", "lower"),
    "verifier.pullback.self_ms": ("ms", "lower"),
    "verifier.form_laplacian.self_ms": ("ms", "lower"),
    "verifier.jacobians.self_ms": ("ms", "lower"),
    "verifier.gradients.self_ms": ("ms", "lower"),
    "verifier.refinement_study.ms": ("ms", "lower"),
    "verifier.certificate.ms": ("ms", "lower"),
    "verifier.evaluated_points.pullback": ("count", "higher"),
    "verifier.evaluated_points.form_laplacian": ("count", "higher"),
    "verifier.evaluated_points.jacobians": ("count", "higher"),
    "verifier.evaluated_points.gradients": ("count", "higher"),
    "flow.steps": ("count", "lower"),
    "flow.step.p50_ms": ("ms", "lower"),
    "flow.step.p99_ms": ("ms", "lower"),
    "flow.step.self_ms": ("ms", "lower"),
    "flow.dt_halvings": ("count", "lower"),
    "flow.write.ms": ("ms", "lower"),
    "flow.write.bytes": ("bytes", "lower"),
    "cli.run.self_ms": ("ms", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "ops_failed_frac": ("ratio", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

def group_of(name: str) -> str:
    """Layer group of a span name; groups are what per-layer metrics count."""
    module, _, func = name.partition(".")
    if module == "presets":
        return "presets.build"
    if name in ("pointwise.MapField.from_expr", "expressions.MapExpr.__call__",
                "expressions.MapExpr.jacobian"):
        return "expressions.eval"
    if module == "surface":
        return "surface.metric"
    if module == "stencils":
        return "stencils"
    if name in IDENTITIES:
        return "verifier." + IDENTITIES[name]
    if name == "verifier.area_decreasing_certificate":
        return "verifier.certificate"
    if name in ("flow.write_monitors_csv", "flow.write_snapshot"):
        return "flow.write"
    if name == "cli.run":
        return "cli.run"
    return name


class Tracer:
    """Span recorder; one per traced process, installed around traced passes."""

    def __init__(self):
        self.spans: list = []         # [name, start_ns, end_ns, parent, run]
        self.counters = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list = []

    # ---------------------------------------------------------- recording

    def _wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1,
                          self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook(self, name):
        if name in IDENTITIES:
            identity = IDENTITIES[name]

            def evaluated(args, report):
                for comp, residual in report.components.items():
                    n = int(np.count_nonzero(np.isfinite(residual)))
                    self.counters[f"verifier.evaluated_points.{identity}"] += n
                    self.counters[f"verifier.evaluated_points.{identity}.{comp}"] += n
            return evaluated
        if name in ("flow.write_monitors_csv", "flow.write_snapshot"):
            def written(args, _):
                self.counters["flow.write.bytes"] += os.path.getsize(args[1])
            return written
        if name == "cli.run":
            def written(args, _):
                out = args[0].out
                self.counters["cli.bytes_written"] += sum(
                    p.stat().st_size for p in out.iterdir() if p.is_file())
            return written
        return None

    # ------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every boundary function, wherever minmaps bound it."""
        mods = {m: importlib.import_module(f"minmaps.{m}")
                for m in set(_BINDING_MODULES) | {b[0] for b in BOUNDARIES}}
        replaced = {}  # id(original) -> wrapper
        for module, owner, funcs in BOUNDARIES:
            for func in funcs:
                if owner is None:
                    target, name = mods[module], f"{module}.{func}"
                    original = getattr(target, func)
                    wrapper = self._wrap(name, original, self._hook(name))
                    replaced[id(original)] = wrapper
                    self._set(target, func, wrapper)
                else:
                    cls = getattr(mods[module], owner)
                    name = f"{module}.{owner}.{func}"
                    raw = cls.__dict__[func]
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapper = self._wrap(name, raw)
                    self._set(cls, func, wrapper)
        for module in _BINDING_MODULES:
            mod = mods[module]
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])
        cli, presets = mods["cli"], mods["presets"]
        self._set(cli, "IDENTITY_CHECKS", tuple(
            (n, replaced.get(id(f), f)) for n, f in cli.IDENTITY_CHECKS))
        scenarios = presets.SCENARIOS
        saved = dict(scenarios)
        scenarios.update({k: replaced.get(id(f), f) for k, f in saved.items()})
        self._undo.append(lambda: scenarios.update(saved))

    def _set(self, owner, attr, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        """Spans as CSV: id, parent, run, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,run,name,start_ns,end_ns\n")
            for k, (name, t0, t1, parent, run) in enumerate(self.spans):
                fh.write(f"{k},{parent},{run},{name},{t0},{t1}\n")


# ------------------------------------------------------------------ analysis

def _ms(ns) -> float:
    return ns / 1e6


def layer_metrics(spans: list, base: int, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans`` holds that pass's spans only, and ``base`` is the index of its
    first span in the tracer's list (parents are stored as global indices).
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    group = [group_of(s[0]) for s in spans]
    outside = [frozenset()] * n      # groups on the ancestor chain
    memo = {}
    for k, s in enumerate(spans):
        p = s[3] - base
        if p >= 0:
            own[p] -= dur[k]
            key = (outside[p], group[p])
            if key not in memo:
                memo[key] = outside[p] | {group[p]}
            outside[k] = memo[key]

    calls, incl, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    steps = []
    for k in range(n):
        g = group[k]
        self_ns[g] += own[k]
        if g not in outside[k]:
            calls[g] += 1
            incl[g] += dur[k]
        if spans[k][0] == "flow.step":
            steps.append(dur[k])

    out = {}
    for g in ("presets.build", "expressions.eval", "surface.metric", "stencils",
              "pointwise.pointwise_grid", "graph_geometry.graph_grid",
              "graph_geometry.laplace_beltrami_array"):
        out[f"{g}.calls"] = calls[g]
        out[f"{g}.ms"] = _ms(incl[g])
    for identity in IDENTITIES.values():
        out[f"verifier.{identity}.self_ms"] = _ms(self_ns["verifier." + identity])
    out["verifier.refinement_study.ms"] = _ms(incl["verifier.refinement_study"])
    out["verifier.certificate.ms"] = _ms(incl["verifier.certificate"])
    for identity in IDENTITIES.values():
        key = f"verifier.evaluated_points.{identity}"
        out[key] = counters.get(key, 0)
    out["flow.step.p50_ms"] = _ms(float(np.percentile(steps, 50))) if steps else 0.0
    out["flow.step.p99_ms"] = _ms(float(np.percentile(steps, 99))) if steps else 0.0
    out["flow.step.self_ms"] = _ms(self_ns["flow.step"])
    out["flow.write.ms"] = _ms(incl["flow.write"])
    out["flow.write.bytes"] = counters.get("flow.write.bytes", 0)
    out["cli.run.self_ms"] = _ms(self_ns["cli.run"])
    out["cli.bytes_written"] = counters.get("cli.bytes_written", 0)
    return out
