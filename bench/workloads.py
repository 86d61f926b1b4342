"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload drives minmaps from outside, through ``minmaps.cli.main``
and the public library calls, and checks each output with the acceptance
suite's own bounds. Seed 0 reproduces the ROADMAP scenarios exactly; other
seeds vary the map while keeping the amount of work fixed, so timings of
different seeds are comparable.

Each workload class says why it was chosen.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import clock

# 0.6 / sqrt(2): the z_squared preset's chart, so |z| <= 0.6 on the grid
Z2_HALF_WIDTH = "0.42426406871192845"
REFINE_IDENTITIES = ("pullback", "form_laplacian", "jacobians", "gradients")
FLOW_REDUCTION = 1000.0
FLOW_EPS = 0.01


@dataclass
class PassResult:
    """Timings and check outcomes of one pass over a workload's scenarios."""

    times: dict = field(default_factory=dict)     # scenario -> seconds
    attempted: int = 0
    failures: list = field(default_factory=list)  # one line per failed run
    checks: list = field(default_factory=list)    # (name, ok, detail)
    hashes: dict = field(default_factory=dict)    # file name -> sha256
    extra: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.times.values())

    def record(self, scenario: str, checks: list) -> None:
        """Count one scenario run; it fails when any of its checks fails."""
        self.attempted += 1
        self.checks += [(f"{scenario}: {name}", ok, detail)
                        for name, ok, detail in checks]
        bad = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
        if bad:
            self.failures.append(f"{scenario}: " + "; ".join(bad))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _timed_cli(result: PassResult, key: str, label: str, argv: list,
               check) -> None:
    """Run one CLI scenario, add its wall time to ``key``, check its outputs.

    A raised exception, a non-zero exit code or a failed check all count as
    a failed run; none of them stops the pass.
    """
    from minmaps import cli

    t0 = clock()
    try:
        code, error = cli.main(argv), None
    except Exception:
        code, error = None, traceback.format_exc(limit=3).strip()
    result.times[key] = result.times.get(key, 0.0) + clock() - t0
    if error is not None:
        result.record(label, [("raised", False, error)])
        return
    checks = [("exit code 0", code == 0, f"exit {code}")]
    if code == 0:
        out = Path(argv[argv.index("--out") + 1])
        checks += check(_summary(out / "summary.txt"))
        for csv in sorted(out.glob("*.csv")):
            result.hashes[f"{label}/{csv.name}"] = _sha256(csv)
    result.record(label, checks)


def _rng(seed: int) -> np.random.Generator:
    """The seed's generator. Made for seed 0 too, so that every seed loads
    numpy.random and peak RSS does not depend on the seed."""
    return np.random.default_rng(seed)


def _config(path: Path, source: str, target: str, spec: str, grid: dict,
            grids: str | None = None) -> str:
    lines = ["[source]", f"metric = {source}", "[target]", f"metric = {target}",
             "[map]", f"spec = {spec}", "[grid]"]
    lines += [f"{k} = {v}" for k, v in grid.items()]
    if grids is not None:
        lines += ["[refine]", f"grids = {grids}"]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ------------------------------------------------------------ verify_n257

def quadratic_map(seed: int) -> str:
    """Holomorphic f(z) = a z^2 + b z + c as an ``expr:`` map spec.

    |a| + |b| + |c| <= 1 keeps f a self-map of the unit disc, so it is
    area-decreasing (Schwarz-Pick); on the chart |z| <= 0.6 the image stays
    within |f| <= 0.58, well inside the target disc. Seed 0 is z^2.
    """
    rng = _rng(seed)
    if seed == 0:
        return "expr:x^2 - y^2, 2*x*y"
    rb, rc = rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.1)
    ra = rng.uniform(0.6, 1.0 - rb - rc)
    a, b, c = (r * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
               for r in (ra, rb, rc))
    ar, ai, br, bi, cr, ci = (repr(float(v)) for v in
                              (a.real, a.imag, b.real, b.imag, c.real, c.imag))
    f1 = f"{ar}*(x^2 - y^2) - {ai}*(2*x*y) + {br}*x - {bi}*y + {cr}"
    f2 = f"{ar}*(2*x*y) + {ai}*(x^2 - y^2) + {bi}*x + {br}*y + {ci}"
    return f"expr:{f1}, {f2}"


def _check_analyze(s: dict) -> list:
    jf = float(s["certificate.max_abs_jf"])
    return [
        ("area_decreasing", s["certificate.area_decreasing"] == "true",
         s["certificate.area_decreasing"]),
        ("max_abs_jf <= 1 + 1e-8", jf <= 1.0 + 1e-8, f"{jf:.6g}"),
    ]


def _check_verify(s: dict) -> list:
    h, defect = float(s["h"]), float(s["minimality_defect"])
    out = [("minimality_defect <= 10 h^2", defect <= 10.0 * h * h,
            f"{defect:.3e} vs {10.0 * h * h:.3e}")]
    for name in REFINE_IDENTITIES:
        v = float(s[f"{name}.norm_inf"])
        out.append((f"{name}.norm_inf finite", math.isfinite(v), f"{v:.3e}"))
    return out


class VerifyN257:
    """``analyze`` then ``verify`` on a holomorphic quadratic map between
    Poincare discs at n=257.

    Why: the arrays are large, so ``pointwise``, ``graph_geometry``,
    ``verifier`` and the CSV writer in ``cli`` do nearly all the work and
    ``flow`` does none. A faster conformal kernel, a cached ``graph_grid``
    or a faster CSV writer shows here.
    """

    name = "verify_n257"

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.n = 33 if smoke else 257
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.spec = quadratic_map(seed)
        self.config = _config(work / "verify.ini", "poincare_disc",
                              "poincare_disc", self.spec,
                              {"nx": self.n, "half_width": Z2_HALF_WIDTH})

    def build_fields(self):
        from minmaps import GridChart, MapField, presets

        w = float(Z2_HALF_WIDTH)
        disc = presets.parse_metric_spec("poincare_disc")
        return [MapField.from_expr(GridChart(-w, w, -w, w, self.n, self.n),
                                   disc, disc,
                                   presets.parse_map_spec(self.spec))]

    def run_pass(self) -> PassResult:
        r = PassResult()
        for kind, check in (("analyze", _check_analyze),
                            ("verify", _check_verify)):
            _timed_cli(r, kind, kind, [kind, "--config", self.config,
                                       "--out", str(self.work / kind)], check)
        return r


# ---------------------------------------------------------- refine_ladder

def refine_specs(seed: int) -> dict:
    """Map spec per preset; the seed picks the parametrised families.

    Seed 0 gives the presets' own defaults.
    """
    rng = _rng(seed)
    if seed == 0:
        mobius, affine, const = (0.3,), (2.0, 0.0, 0.0, 0.5), (0.15, -0.2)
    else:
        mobius = (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)),)
        affine = (rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5),
                  rng.uniform(-0.5, 0.5), rng.uniform(0.25, 1.0))
        radius = rng.uniform(0.0, 0.5)
        angle = rng.uniform(0.0, 2 * math.pi)
        const = (radius * math.cos(angle), radius * math.sin(angle))

    def spec(name, params):
        return f"{name}:" + ",".join(repr(float(p)) for p in params)

    return {"mobius": spec("mobius", mobius), "affine": spec("affine", affine),
            "constant": spec("constant", const)}


def _check_refine(s: dict) -> list:
    out = []
    for name in REFINE_IDENTITIES:
        exact = s[f"{name}.exact"] == "true"
        order = float(s[f"{name}.estimated_order"])
        out.append((f"{name} exact or order >= 1.5", exact or order >= 1.5,
                    f"exact={exact} order={order:.4g}"))
    return out


class RefineLadder:
    """``refine`` on the 17/33/65 ladder for each of the seven presets.

    Why: the same layers as ``verify_n257`` on small grids, where per-call
    overhead dominates and each grid's field is rebuilt once per identity
    (84 ``graph_grid`` calls per pass). A change that adds fixed cost per
    call loses here; caching wins here.
    """

    name = "refine_ladder"

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.grids = (13, 25, 49) if smoke else (17, 33, 65)
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        params = refine_specs(seed)
        disc, euc, hyp2 = "poincare_disc", "euclidean", "hyperbolic:2"

        def square(w):
            return (-float(w), float(w), -float(w), float(w))

        # (source, target, spec, chart): the presets of presets.SCENARIOS
        self.scenarios = {
            "paper_example": (euc, euc, "paper_example", (-1.5, 1.5, -2.0, 2.0)),
            "z_squared": (disc, disc, "z_squared", square(Z2_HALF_WIDTH)),
            "z_squared_mixed": (disc, hyp2, "z_squared", square(Z2_HALF_WIDTH)),
            "identity_hyperbolic": (hyp2, hyp2, "identity", square(0.45)),
            "constant": (disc, disc, params["constant"], square(0.5)),
            "mobius": (disc, disc, params["mobius"], square(0.5)),
            "affine": (euc, euc, params["affine"], square(1.0)),
        }
        ladder = ", ".join(str(n) for n in self.grids)
        self.configs = {}
        for name, (src, tgt, spec, (x0, x1, y0, y1)) in self.scenarios.items():
            grid = {"nx": self.grids[0], "x0": repr(x0), "x1": repr(x1),
                    "y0": repr(y0), "y1": repr(y1)}
            self.configs[name] = _config(work / f"{name}.ini", src, tgt, spec,
                                         grid, ladder)

    def build_fields(self):
        from minmaps import GridChart, MapField, presets

        fields = []
        for src, tgt, spec, chart in self.scenarios.values():
            source = presets.parse_metric_spec(src)
            target = presets.parse_metric_spec(tgt)
            expr = presets.parse_map_spec(spec)
            for n in self.grids:
                fields.append(MapField.from_expr(GridChart(*chart, n, n),
                                                 source, target, expr))
        return fields

    def run_pass(self) -> PassResult:
        r = PassResult()
        for name, path in self.configs.items():
            _timed_cli(r, "refine", f"refine.{name}",
                       ["refine", "--config", path,
                        "--out", str(self.work / name)], _check_refine)
        return r


# --------------------------------------------------------- flow_relax_n65

def perturbation(seed: int, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """0.01-amplitude interior bump per component, as an (nx, ny, 2) array.

    Seed 0 is the criterion-7 bump sin(pi xi) sin(pi eta) on both
    components. Other seeds give each component a random sign on that mode
    plus a fixed-size admixture 0.2 (cos t, sin t) of the (1,2) and (2,1)
    modes; the mix changes the path, not the work, so the step count stays
    within about 1% across seeds.
    """
    def mode(p, q):
        return np.sin(p * math.pi * xi) * np.sin(q * math.pi * eta)

    rng = _rng(seed)
    if seed == 0:
        bump = FLOW_EPS * mode(1, 1)
        return np.stack([bump, bump], axis=-1)
    comps = []
    for _ in range(2):
        sign = rng.choice([-1.0, 1.0])
        t = rng.uniform(0.0, 2 * math.pi)
        comps.append(FLOW_EPS * (sign * mode(1, 1) + 0.2 * math.cos(t) * mode(1, 2)
                                 + 0.2 * math.sin(t) * mode(2, 1)))
    return np.stack(comps, axis=-1)


def dt_halvings(dts) -> int:
    """Halvings of dt along the monitor series (CFL drift is not a halving)."""
    count = 0
    for prev, cur in zip(dts, dts[1:]):
        if cur < prev:
            count += int(math.floor(math.log2(prev / cur) + 1e-9))
    return count


class FlowRelaxN65:
    """The criterion-7 flow: z^2 at n=65 plus a 0.01 interior sine bump,
    relaxed until the tension drops 1000x, then the monitors CSV and the
    snapshot.

    Why: thousands of small explicit steps spent in ``flow``, ``stencils``
    and ``surface``, while ``graph_geometry`` does no work. A semi-implicit
    scheme or less per-step overhead shows here and nowhere else.
    """

    name = "flow_relax_n65"

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.n = 17 if smoke else 65
        self.seed = seed
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.start = None

    def build_fields(self):
        from minmaps import MapField, presets

        base = presets.z_squared_field(n=self.n)
        g = base.grid
        X, Y = g.mesh()
        bump = perturbation(self.seed, (X - g.x0) / (g.x1 - g.x0),
                            (Y - g.y0) / (g.y1 - g.y0))
        self.start = MapField(g, base.source, base.target, base.values + bump)
        return [self.start]

    def run_pass(self) -> PassResult:
        from minmaps import FlowConfig, TheoremHypotheses, flow

        if self.start is None:
            self.build_fields()
        r = PassResult()
        monitors, snapshot = self.work / "monitors.csv", self.work / "final_map.txt"
        t0 = clock()
        try:
            tau0 = flow.tension_pass(self.start).norm_tau
            res = flow.run_to_minimal(
                self.start,
                FlowConfig(stop_tension=tau0 / FLOW_REDUCTION, max_steps=50000),
                hypotheses=TheoremHypotheses(1.0, 1.0))
            flow.write_monitors_csv(res.state, str(monitors))
            flow.write_snapshot(res.state.map, str(snapshot))
        except Exception:
            r.times["flow"] = clock() - t0
            r.record("flow", [("raised", False,
                               traceback.format_exc(limit=3).strip())])
            return r
        r.times["flow"] = clock() - t0
        state = res.state
        reduction = tau0 / state.tension_norm if state.tension_norm > 0 else math.inf
        r.record("flow", [
            ("converged", res.converged, str(res.converged)),
            ("reduction >= 1000x", reduction >= FLOW_REDUCTION,
             f"{reduction:.1f}x in {state.steps} steps"),
            ("area_decreasing", res.certificate.area_decreasing,
             str(res.certificate.area_decreasing)),
        ])
        r.hashes["flow/monitors.csv"] = _sha256(monitors)
        r.hashes["flow/final_map.txt"] = _sha256(snapshot)
        r.extra = {"flow.steps": state.steps,
                   "flow.dt_halvings": dt_halvings([m.dt for m in state.monitors]),
                   "flow.reduction": reduction}
        return r


WORKLOADS = {w.name: w for w in (VerifyN257, RefineLadder, FlowRelaxN65)}
