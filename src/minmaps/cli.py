"""Configuration-driven scenario runner.

Five subcommands share one plumbing layer:

  curvature  tabulate the Gauss curvature of a conformal factor
  analyze    pointwise stretch/angle data for a map (lambda, mu, J_f, phi, theta)
  verify     residual fields for the four curvature identities
  refine     contraction orders of those residuals and of max |H| under
             grid refinement
  flow       tension-field flow toward a minimal graph, with monitors

Scenarios come either from a named preset (--preset, quick runs on the
canonical fixtures) or from an INI config file (--config, full control). A
preset is shorthand for config pieces: its row of presets.SCENARIO_SPECS
(for curvature, a metric spec on a square chart), so both take one path.
A config holds only the sections and keys below (CONFIG_KEYS); any other
section or key, [DEFAULT]'s included, is a config error, not ignored:

    [scenario]
    kind = flow                ; optional, must match the subcommand
    [source]
    metric = poincare_disc     ; euclidean | poincare_disc | sphere |
    [target]                   ;   hyperbolic:SIGMA | custom:EXPR
    metric = poincare_disc
    [map]
    spec = z_squared           ; preset | preset:p1,p2,... | expr:F1, F2
    perturb = 0.01             ; optional finite interior sine bump, both components
    [grid]
    nx = 65                    ; points per axis
    half_width = 0.45          ; the centered square [-w, w]^2
    [tolerances]
    stop_tension = 1e-4
    certificate_tol = 0.0      ; finite, >= 0
    [flow]
    max_steps = 50000
    [refine]
    grids = 17, 33, 65

A [grid] gives either half_width or the chart [x0, x1] x [y0, y1], never
both; a curvature table needs only the source factor:

    [scenario]
    kind = curvature
    [source]
    metric = sphere
    [grid]
    x0 = -0.5
    x1 = 0.5
    y0 = -0.25
    y1 = 0.25

No environment variables affect numerics; identical configs produce
byte-identical CSVs (fixed column order, %.17g floats, versioned schema
in a leading comment line, "\n" line ends on every platform). Point
tables are formatted by a vectorised, byte-exact %.17g writer and streamed
in fixed-size blocks (``floatfmt.write_table``).

Exit codes: 0 success, 2 config error, 3 chart-domain violation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import sys
import warnings
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import presets
from .errors import ChartDomainError, ConfigError, NumericalError
from .floatfmt import open_fresh, write_table
from .flow import (MONITOR_COLUMNS, FlowConfig, run_to_minimal, write_monitors_csv,
                   write_snapshot)
from .pointwise import MapField
from .surface import GridChart
from .verifier import (area_decreasing_certificate, check_ladder,
                       convergence_study, verify_form_laplacian,
                       verify_gradient_identities, verify_jacobian_laplacians,
                       verify_pullback_derivative)

__all__ = ["ScenarioConfig", "run", "main"]

EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

CSV_VERSION = "v1"
# v2: verify adds <identity>.evaluated.<component> point counts
# v3: refine adds the same counts, one per ladder grid
# v4: refine adds mean_curvature.*: max |H| on each grid and its orders
# v5: an empty value (the orders of an exact study) reads `none`
SUMMARY_VERSION = "v5"

IDENTITY_CHECKS = (
    ("pullback", verify_pullback_derivative),
    ("form_laplacian", verify_form_laplacian),
    ("jacobians", verify_jacobian_laplacians),
    ("gradients", verify_gradient_identities),
)

ANALYZE_COLUMNS = ("x", "y", "lambda", "mu", "s", "u1", "u2",
                   "jf", "phi", "theta")
CURVATURE_COLUMNS = ("x", "y", "K")

# every section a config may hold, with the keys it may hold
CONFIG_KEYS = {
    "scenario": ("kind",), "source": ("metric",), "target": ("metric",),
    "map": ("spec", "perturb"),
    "grid": ("nx", "half_width", "x0", "x1", "y0", "y1"),
    "tolerances": ("stop_tension", "certificate_tol"),
    "flow": ("max_steps",), "refine": ("grids",),
}


# ------------------------------------------------------------- configuration

@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run needs, resolved from CLI flags + INI file."""

    kind: str
    out: Path
    source: Optional[str] = None
    target: Optional[str] = None
    map_spec: Optional[str] = None
    perturb: float = 0.0
    nx: Optional[int] = None
    domain: Optional[tuple[float, float, float, float]] = None
    stop_tension: float = 1e-4
    certificate_tol: float = 0.0
    max_steps: int = 50000
    refine_grids: tuple[int, ...] = (17, 33, 65)


def _get(section, key, cast, default):
    if section is None or key not in section:
        return default
    try:
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {section[key]!r}") from exc


def _config_from_file(path: Path, kind: str, out: Path) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    # every section inherits [DEFAULT]'s keys: name them where they are set
    for key in parser.defaults():
        raise ConfigError(f"unknown key {key!r} in [DEFAULT] of {path}")
    for name in parser.sections():
        if name not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{name}] in {path}")
        unknown = [key for key in parser[name] if key not in CONFIG_KEYS[name]]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{name}] of {path}")

    sec = {name: parser[name] for name in parser.sections()}
    declared = _get(sec.get("scenario"), "kind", str, kind)
    if declared != kind:
        raise ConfigError(f"config declares kind={declared!r}, "
                          f"but the {kind!r} subcommand was invoked")

    grid = sec.get("grid")
    if grid is None:
        raise ConfigError("config needs a [grid] section")
    nx = _get(grid, "nx", int, 65)
    if "half_width" in grid:
        corners = [k for k in ("x0", "x1", "y0", "y1") if k in grid]
        if corners:
            raise ConfigError(f"[grid] gives both half_width and {corners[0]}; "
                              "give one of the two charts")
        w = _get(grid, "half_width", float, None)
        domain = (-w, w, -w, w)
    else:
        try:
            domain = tuple(float(grid[k]) for k in ("x0", "x1", "y0", "y1"))
        except KeyError as exc:
            raise ConfigError("[grid] needs half_width or x0/x1/y0/y1") from exc

    source = sec.get("source")
    if source is None or "metric" not in source:
        raise ConfigError("config needs [source] metric = ...")
    target = sec.get("target")
    map_sec = sec.get("map")
    if kind != "curvature":
        if target is None or "metric" not in target:
            raise ConfigError("config needs [target] metric = ...")
        if map_sec is None or "spec" not in map_sec:
            raise ConfigError("config needs [map] spec = ...")

    tol = sec.get("tolerances")
    perturb = _get(map_sec, "perturb", float, 0.0)
    if not np.isfinite(perturb):
        raise ConfigError(f"[map] perturb must be finite, got {perturb!r}")
    certificate_tol = _get(tol, "certificate_tol", float, 0.0)
    if not (np.isfinite(certificate_tol) and certificate_tol >= 0):
        raise ConfigError("[tolerances] certificate_tol must be finite and "
                          f"non-negative, got {certificate_tol!r}")
    flow = sec.get("flow")
    refine = sec.get("refine")
    grids = _get(refine, "grids", str, "17, 33, 65")
    try:
        refine_grids = tuple(int(tok) for tok in grids.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad [refine] grids list: {grids!r}") from exc

    return ScenarioConfig(
        kind=kind, out=out, source=source["metric"],
        target=target["metric"] if target is not None else None,
        map_spec=map_sec["spec"] if map_sec is not None else None,
        perturb=perturb, nx=nx, domain=domain,
        stop_tension=_get(tol, "stop_tension", float, 1e-4),
        certificate_tol=certificate_tol,
        max_steps=_get(flow, "max_steps", int, 50000), refine_grids=refine_grids)


def _grid_from_config(cfg: ScenarioConfig, n: Optional[int] = None) -> GridChart:
    """The config's chart with n points per axis (default: the config's nx)."""
    n = cfg.nx if n is None else n
    x0, x1, y0, y1 = cfg.domain
    return GridChart(x0, x1, y0, y1, n, n)


def _make_fields(cfg: ScenarioConfig,
                 ns: Sequence[Optional[int]] = (None,)) -> Iterator[MapField]:
    """The scenario map at nx = n for each n of ns (None: the config's own
    grid), built one at a time from specs that are parsed once."""
    source, target = map(presets.parse_metric_spec, (cfg.source, cfg.target))
    expr = presets.parse_map_spec(cfg.map_spec)
    for n in ns:
        mf = MapField.from_expr(_grid_from_config(cfg, n), source, target, expr)
        yield presets.sine_bump(mf, cfg.perturb)


# ------------------------------------------------------------------ artifacts

def _text(value) -> str:
    """A value as text: true/false, %.17g floats, space-joined tuples, str."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return " ".join(_text(v) for v in value)
    return str(value)


def _write_table(path: Path, name: str, columns: Sequence[str],
                 fields: Sequence[np.ndarray]) -> None:
    """Point table CSV, x-index outermost, schema versioned on line one."""
    write_table(path, f"# minmaps {name} csv {CSV_VERSION}\n"
                      f"{','.join(columns)}\n", fields)


def _write_summary(path: Path, kind: str, items) -> None:
    """summary.txt: one ``key = value`` line per (key, value) pair; an
    empty value reads `none`."""
    lines = [f"# minmaps summary {SUMMARY_VERSION}", f"scenario = {kind}",
             *(f"{key} = {_text(value) or 'none'}" for key, value in items)]
    with open_fresh(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def _study_items(name: str, st) -> list[tuple[str, object]]:
    return [(f"{name}.orders", " ".join(f"{o:.6g}" for o in st.orders)),
            (f"{name}.estimated_order", f"{st.estimated_order:.6g}"),
            (f"{name}.exact", st.exact),
            (f"{name}.second_order", st.second_order)]


def _certificate_items(cert) -> list[tuple[str, object]]:
    return [(f"certificate.{f.name}", getattr(cert, f.name))
            for f in dataclasses.fields(cert)
            if getattr(cert, f.name) is not None]


# ------------------------------------------------------------------ scenarios

def _run_curvature(cfg: ScenarioConfig) -> None:
    metric = presets.parse_metric_spec(cfg.source)
    grid = _grid_from_config(cfg)
    X, Y = grid.mesh()
    metric.check_domain(X, Y, what="grid")
    K = np.broadcast_to(metric.curvature(X, Y), X.shape)
    _write_table(cfg.out / "curvature.csv", "curvature", CURVATURE_COLUMNS,
                 [X, Y, K])
    _write_summary(cfg.out / "summary.txt", "curvature", [
        ("metric", cfg.source), ("K.min", np.nanmin(K)), ("K.max", np.nanmax(K)),
    ])


def _run_analyze(cfg: ScenarioConfig) -> None:
    mf = next(_make_fields(cfg))
    pw = mf.pointwise
    X, Y = mf.grid.mesh()
    _write_table(cfg.out / "analysis.csv", "analysis", ANALYZE_COLUMNS,
                 [X, Y, pw.lam, pw.mu, pw.s, pw.u1, pw.u2,
                  pw.jf, pw.phi, pw.theta])
    cert = area_decreasing_certificate(mf, tol=cfg.certificate_tol)
    _write_summary(cfg.out / "summary.txt", "analyze", [
        ("grid", f"{mf.grid.nx}x{mf.grid.ny}"), ("h", mf.grid.h),
        *_certificate_items(cert),
    ])


def _checked(check, mf):
    """check(mf) and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = check(mf)
    return report, [str(w.message) for w in caught]


def _run_verify(cfg: ScenarioConfig) -> None:
    mf = next(_make_fields(cfg))
    X, Y = mf.grid.mesh()
    columns, fields = ["x", "y"], [X, Y]
    items = [("grid", f"{mf.grid.nx}x{mf.grid.ny}"), ("h", mf.grid.h)]
    notes = []
    for name, check in IDENTITY_CHECKS:
        report, messages = _checked(check, mf)
        notes += [("warning", f"{name}: {m}") for m in messages]
        columns += [f"{name}.{comp}" for comp in report.components]
        fields += report.components.values()
        items += [(f"{name}.norm_inf", report.norm_inf),
                  (f"{name}.norm_l2", report.norm_l2),
                  (f"{name}.masked_points", report.masked_points)]
        items += [(f"{name}.evaluated.{comp}", k)
                  for comp, k in report.evaluated.items()]
        defect = report.minimality_defect
    items.append(("minimality_defect", defect))
    # the write holds the residual planes and X, Y: nothing else it reads
    del mf, report
    _write_table(cfg.out / "verify.csv", "verify", columns, fields)
    _write_summary(cfg.out / "summary.txt", "verify",
                   items + sorted(set(notes)))


def _run_refine(cfg: ScenarioConfig) -> None:
    # one field (and one graph geometry) per grid serves all four identities
    ns = cfg.refine_grids
    _grid_from_config(cfg)              # the config's own grid must be valid too
    check_ladder([_grid_from_config(cfg, n).h for n in ns])
    hs, defects = [], []                # defects: max |H| per grid
    norms = {name: [] for name, _ in IDENTITY_CHECKS}
    evaluated = {name: {} for name, _ in IDENTITY_CHECKS}  # per-grid counts
    notes = set()                       # (n, message): one line per grid
    for n, mf in zip(ns, _make_fields(cfg, ns)):
        hs.append(mf.grid.h)
        for name, check in IDENTITY_CHECKS:
            report, messages = _checked(check, mf)
            norms[name].append(report.norm_inf)
            for comp, k in report.evaluated.items():
                evaluated[name].setdefault(comp, []).append(k)
            notes.update((n, m) for m in messages)
        defects.append(report.minimality_defect)   # the same in every report
    studies = {name: convergence_study(hs, norms[name]) for name in norms}

    any_study = next(iter(studies.values()))
    columns = ["h"] + [name for name, _ in IDENTITY_CHECKS]
    rows = [f"# minmaps refine csv {CSV_VERSION}", ",".join(columns)]
    for k, h in enumerate(any_study.hs):
        rows.append(",".join([_text(h)] + [_text(studies[name].norms[k])
                                           for name, _ in IDENTITY_CHECKS]))
    with open_fresh(cfg.out / "refine.csv") as fh:
        fh.write(("\n".join(rows) + "\n").encode())

    items = [("grids", ns)]
    for name, _ in IDENTITY_CHECKS:
        items += _study_items(name, studies[name])
        items += [(f"{name}.evaluated.{comp}", tuple(counts))
                  for comp, counts in evaluated[name].items()]
    items += [("mean_curvature.norm_inf", tuple(defects)),
              *_study_items("mean_curvature", convergence_study(hs, defects))]
    items += [("warning", f"n={n}: {m}") for n, m in sorted(notes)]
    _write_summary(cfg.out / "summary.txt", "refine", items)


def _run_flow(cfg: ScenarioConfig) -> None:
    mf = next(_make_fields(cfg))
    flow_cfg = FlowConfig(stop_tension=cfg.stop_tension,
                          max_steps=cfg.max_steps)
    result = run_to_minimal(mf, flow_cfg, tol=cfg.certificate_tol)
    state = result.state
    write_monitors_csv(state, cfg.out / "monitors.csv")
    items = [("converged", result.converged), ("steps", state.steps),
             ("rejections", state.rejections), ("norm_tau", state.tension_norm),
             ("stop_tension", cfg.stop_tension)]
    try:
        write_snapshot(state.map, cfg.out / "final_map.txt")
        items.append(("snapshot", "final_map.txt"))
    except ConfigError:
        items.append(("snapshot", "skipped (grid spacing not square)"))
    items += _certificate_items(result.certificate)
    _write_summary(cfg.out / "summary.txt", "flow", items)


_RUNNERS = {
    "curvature": _run_curvature,
    "analyze": _run_analyze,
    "verify": _run_verify,
    "refine": _run_refine,
    "flow": _run_flow,
}


def run(config: ScenarioConfig) -> int:
    """Execute one scenario, writing its artifacts into config.out."""
    if config.kind not in _RUNNERS:
        raise ConfigError(f"unknown scenario kind {config.kind!r}")
    config.out.mkdir(parents=True, exist_ok=True)
    _RUNNERS[config.kind](config)
    return 0


# ------------------------------------------------------------------- parsing

_COLUMN_DOCS = {
    "curvature": "curvature.csv columns: " + ", ".join(CURVATURE_COLUMNS),
    "analyze": "analysis.csv columns: " + ", ".join(ANALYZE_COLUMNS),
    "verify": ("verify.csv columns: x, y, then one residual column per "
               "identity component (pullback.u1_e1 ... gradients.lap_theta); "
               "masked or boundary points hold nan, and summary.txt counts "
               "each column's finite points"),
    "refine": "refine.csv columns: h, pullback, form_laplacian, jacobians, gradients",
    "flow": ("monitors.csv columns: " + ", ".join(MONITOR_COLUMNS) + "; "
             "final_map.txt holds the last "
             "snapshot (header nx ny h x0 y0, then f1 f2 per point)"),
}

_HELP = {
    "curvature": "tabulate Gauss curvature of a conformal metric",
    "analyze": "pointwise stretch and angle data for a map",
    "verify": "residuals of the four curvature identities",
    "refine": "convergence orders of identity residuals under refinement",
    "flow": "tension flow toward a minimal graph",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmaps",
        description="Minimal-map geometry toolkit: curvature tables, pointwise "
                    "analysis, identity verification, refinement studies, and "
                    "tension flows.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(
            name, help=_HELP[name],
            description=f"{_HELP[name].capitalize()}. {_COLUMN_DOCS[name]}. "
                        "Summary text goes to summary.txt.")
        sp.add_argument("--config", type=Path, metavar="PATH",
                        help="INI scenario config (see module docs for keys)")
        sp.add_argument("--out", type=Path, default=Path("."), metavar="DIR",
                        help="output directory (created if missing)")
        if name != "refine":    # refine's sizes are its [refine] grids
            sp.add_argument("--grid", type=int, default=None, metavar="N",
                            help="override the grid point count per axis")
        if name == "curvature":
            sp.add_argument("--preset", default=None, metavar="METRIC",
                            help="metric spec, e.g. poincare_disc or hyperbolic:2")
        else:
            sp.add_argument("--preset", default=None, metavar="NAME",
                            choices=sorted(presets.SCENARIOS),
                            help="fixture scenario: "
                                 + ", ".join(sorted(presets.SCENARIOS)))
    return parser


# one parser per process: parse_args fills a fresh namespace on every call
_parser = functools.cache(build_parser)


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is not None and args.preset is not None:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.config is not None:
        cfg = _config_from_file(args.config, args.command, args.out)
    elif args.preset is None:
        raise ConfigError("either --config or --preset is required")
    else:
        if args.command == "curvature":
            # a metric spec, tabulated on a square inside its disc if it has one
            w = 0.7 if presets.parse_metric_spec(args.preset).disc_domain else 1.0
            row = (args.preset, None, None, (-w, w, -w, w), 65)
        else:
            row = presets.SCENARIO_SPECS[args.preset]
        source, target, spec, domain, n = row
        cfg = ScenarioConfig(kind=args.command, out=args.out, source=source,
                             target=target, map_spec=spec, nx=n,
                             domain=domain)
    if getattr(args, "grid", None) is not None:
        cfg = dataclasses.replace(cfg, nx=args.grid)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run(_scenario_config(args))
    except ConfigError as exc:
        print(f"minmaps: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChartDomainError as exc:
        print(f"minmaps: chart domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"minmaps: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
