"""Configuration-driven scenario runner.

Five subcommands share one plumbing layer:

  curvature  tabulate the Gauss curvature of a conformal factor
  analyze    pointwise stretch/angle data for a map (lambda, mu, J_f, phi, theta)
  verify     residual fields for the four curvature identities
  refine     contraction orders of those residuals under grid refinement
  flow       tension-field flow toward a minimal graph, with monitors

Scenarios come either from a named preset (--preset, quick runs on the
canonical fixtures) or from an INI config file (--config, full control):

    [scenario]
    kind = flow                ; optional, must match the subcommand
    [source]
    metric = poincare_disc     ; euclidean | poincare_disc | sphere |
    [target]                   ;   hyperbolic:SIGMA | custom:EXPR
    metric = poincare_disc
    [map]
    spec = z_squared           ; preset | preset:p1,p2,... | expr:F1, F2
    perturb = 0.01             ; optional interior sine bump, both components
    [grid]
    nx = 65
    ny = 65                    ; defaults to nx
    half_width = 0.45          ; centered square; or x0/x1/y0/y1 explicitly
    boundary = dirichlet       ; dirichlet | periodic
    [tolerances]
    stop_tension = 1e-4
    certificate_tol = 0.0
    [flow]
    max_steps = 50000
    dt_max = 1e-2
    [refine]
    grids = 17, 33, 65

No environment variables affect numerics; identical configs produce
byte-identical CSVs (fixed column order, %.17g floats, versioned schema
in a leading comment line).

Exit codes: 0 success, 2 config error, 3 chart-domain violation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import presets
from .errors import ChartDomainError, ConfigError, NumericalError, StencilError
from .flow import FlowConfig, run_to_minimal, write_monitors_csv, write_snapshot
from .pointwise import MapField
from .surface import BoundaryMode, ConformalMetric, GridChart
from .verifier import (area_decreasing_certificate, refinement_study,
                       verify_form_laplacian, verify_gradient_identities,
                       verify_jacobian_laplacians, verify_pullback_derivative)

__all__ = ["ScenarioConfig", "run", "main"]

EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

CSV_VERSION = "v1"

IDENTITY_CHECKS = (
    ("pullback", verify_pullback_derivative),
    ("form_laplacian", verify_form_laplacian),
    ("jacobians", verify_jacobian_laplacians),
    ("gradients", verify_gradient_identities),
)

ANALYZE_COLUMNS = ("x", "y", "lambda", "mu", "s", "u1", "u2",
                   "jf", "phi", "theta")
CURVATURE_COLUMNS = ("x", "y", "K")


# ------------------------------------------------------------- configuration

@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run needs, resolved from CLI flags + INI file."""

    kind: str
    out: Path
    preset: Optional[str] = None        # fixture name (metric spec for curvature)
    grid_n: Optional[int] = None        # --grid override
    source: Optional[str] = None
    target: Optional[str] = None
    map_spec: Optional[str] = None
    perturb: float = 0.0
    nx: Optional[int] = None
    ny: Optional[int] = None
    domain: Optional[tuple[float, float, float, float]] = None
    boundary: str = "dirichlet"
    stop_tension: float = 1e-4
    certificate_tol: float = 0.0
    max_steps: int = 50000
    dt_max: float = 1e-2
    refine_grids: tuple[int, ...] = (17, 33, 65)


def _get(section, key, cast, default):
    if section is None or key not in section:
        return default
    try:
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {section[key]!r}") from exc


def _config_from_file(path: Path, kind: str, out: Path,
                      grid_n: Optional[int]) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    sec = {name: parser[name] for name in parser.sections()}
    declared = _get(sec.get("scenario"), "kind", str, kind)
    if declared != kind:
        raise ConfigError(f"config declares kind={declared!r}, "
                          f"but the {kind!r} subcommand was invoked")

    grid = sec.get("grid")
    if grid is None:
        raise ConfigError("config needs a [grid] section")
    nx = _get(grid, "nx", int, 65)
    ny = _get(grid, "ny", int, nx)
    if grid_n is not None:
        nx = ny = grid_n
    if "half_width" in grid:
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
    flow = sec.get("flow")
    refine = sec.get("refine")
    grids = _get(refine, "grids", str, "17, 33, 65")
    try:
        refine_grids = tuple(int(tok) for tok in grids.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad [refine] grids list: {grids!r}") from exc

    return ScenarioConfig(
        kind=kind,
        out=out,
        grid_n=grid_n,
        source=source["metric"],
        target=target["metric"] if target is not None else None,
        map_spec=map_sec["spec"] if map_sec is not None else None,
        perturb=_get(map_sec, "perturb", float, 0.0),
        nx=nx, ny=ny, domain=domain,
        boundary=_get(grid, "boundary", str, "dirichlet"),
        stop_tension=_get(tol, "stop_tension", float, 1e-4),
        certificate_tol=_get(tol, "certificate_tol", float, 0.0),
        max_steps=_get(flow, "max_steps", int, 50000),
        dt_max=_get(flow, "dt_max", float, 1e-2),
        refine_grids=refine_grids,
    )


def _boundary(name: str) -> BoundaryMode:
    try:
        return BoundaryMode(name.lower())
    except ValueError as exc:
        raise ConfigError(f"unknown boundary mode {name!r}") from exc


def _grid_from_config(cfg: ScenarioConfig, nx: Optional[int] = None) -> GridChart:
    """Chart from explicit config fields, optionally rescaled to nx points.

    Rescaling preserves the aspect ratio so refinement halves both spacings;
    non-divisible point counts are a config error rather than silent rounding.
    """
    base_nx, base_ny = cfg.nx, cfg.ny
    if nx is None:
        nx, ny = base_nx, base_ny
    elif base_nx == base_ny:
        ny = nx
    else:
        num = (base_ny - 1) * (nx - 1)
        den = base_nx - 1
        if num % den:
            raise ConfigError(f"cannot scale {base_nx}x{base_ny} grid to nx={nx} "
                              "while keeping the aspect ratio")
        ny = num // den + 1
    x0, x1, y0, y1 = cfg.domain
    return GridChart(x0, x1, y0, y1, nx, ny, _boundary(cfg.boundary))


def _apply_perturbation(mf: MapField, eps: float) -> MapField:
    """Interior sine bump on both components; Dirichlet traces untouched."""
    if eps == 0.0:
        return mf
    g = mf.grid
    X, Y = g.mesh()
    bump = eps * (np.sin(math.pi * (X - g.x0) / (g.x1 - g.x0))
                  * np.sin(math.pi * (Y - g.y0) / (g.y1 - g.y0)))
    vals = mf.values.copy()
    vals[..., 0] += bump
    vals[..., 1] += bump
    return mf.with_values(vals)


def _make_field(cfg: ScenarioConfig, n: Optional[int] = None) -> MapField:
    """Build the scenario map, from a preset fixture or from config pieces."""
    if cfg.preset is not None:
        if cfg.preset not in presets.SCENARIOS:
            raise ConfigError(f"unknown preset {cfg.preset!r}; choose from "
                              f"{', '.join(sorted(presets.SCENARIOS))}")
        size = n if n is not None else cfg.grid_n
        make = presets.SCENARIOS[cfg.preset]
        if size is None:
            mf = make()
        elif cfg.preset == "paper_example":
            mf = make(nx=size)
        else:
            mf = make(n=size)
    else:
        grid = _grid_from_config(cfg, n)
        expr = presets.parse_map_spec(cfg.map_spec)
        mf = MapField.from_expr(grid, presets.parse_metric_spec(cfg.source),
                                presets.parse_metric_spec(cfg.target), expr)
    return _apply_perturbation(mf, cfg.perturb)


# ------------------------------------------------------------------ artifacts

def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _write_table(path: Path, name: str, columns: Sequence[str],
                 fields: Sequence[np.ndarray]) -> None:
    """Point table CSV, x-index outermost, schema versioned on line one.

    Written one x-row at a time: the text of a whole n=257 table runs to
    tens of megabytes, and holding it (and its encoded copy) at once made
    the process's peak memory depend on where the allocator placed it.
    """
    stacked = np.stack([np.asarray(f, float) for f in fields], axis=-1)
    nx, ny, _ = stacked.shape
    with path.open("w") as fh:
        fh.write(f"# minmaps {name} csv {CSV_VERSION}\n{','.join(columns)}\n")
        for i in range(nx):
            fh.write("".join(",".join(_fmt(v) for v in stacked[i, j]) + "\n"
                             for j in range(ny)))


def _write_summary(path: Path, kind: str, lines: Sequence[str]) -> None:
    path.write_text("\n".join([f"# minmaps summary {CSV_VERSION}",
                               f"scenario = {kind}", *lines]) + "\n")


def _certificate_lines(cert) -> list[str]:
    out = [
        f"certificate.min_phi = {_fmt(cert.min_phi)}",
        f"certificate.min_phi_at = {_fmt(cert.min_phi_at[0])} {_fmt(cert.min_phi_at[1])}",
        f"certificate.min_theta = {_fmt(cert.min_theta)}",
        f"certificate.min_theta_at = {_fmt(cert.min_theta_at[0])} {_fmt(cert.min_theta_at[1])}",
        f"certificate.max_abs_jf = {_fmt(cert.max_abs_jf)}",
        f"certificate.max_abs_jf_at = {_fmt(cert.max_abs_jf_at[0])} {_fmt(cert.max_abs_jf_at[1])}",
        f"certificate.tol = {_fmt(cert.tol)}",
        f"certificate.area_decreasing = {str(cert.area_decreasing).lower()}",
    ]
    if cert.hypothesis_ok is not None:
        out.append(f"certificate.hypothesis_ok = {str(cert.hypothesis_ok).lower()}")
    return out


# ------------------------------------------------------------------ scenarios

def _run_curvature(cfg: ScenarioConfig) -> None:
    if cfg.preset is not None:
        metric = presets.parse_metric_spec(cfg.preset)
        n = cfg.grid_n if cfg.grid_n is not None else 65
        w = 0.7 if metric.disc_domain else 1.0
        grid = GridChart(-w, w, -w, w, n, n)
    else:
        metric = presets.parse_metric_spec(cfg.source)
        grid = _grid_from_config(cfg)
    X, Y = grid.mesh()
    metric.check_domain(X, Y, what="grid")
    K = np.broadcast_to(metric.curvature(X, Y), X.shape)
    _write_table(cfg.out / "curvature.csv", "curvature", CURVATURE_COLUMNS,
                 [X, Y, K])
    _write_summary(cfg.out / "summary.txt", "curvature", [
        f"metric = {cfg.preset or cfg.source}",
        f"K.min = {_fmt(np.nanmin(K))}",
        f"K.max = {_fmt(np.nanmax(K))}",
    ])


def _run_analyze(cfg: ScenarioConfig) -> None:
    mf = _make_field(cfg)
    pw = mf.pointwise
    X, Y = mf.grid.mesh()
    _write_table(cfg.out / "analysis.csv", "analysis", ANALYZE_COLUMNS,
                 [X, Y, pw.lam, pw.mu, pw.s, pw.u1, pw.u2,
                  pw.jf, pw.phi, pw.theta])
    cert = area_decreasing_certificate(mf, tol=cfg.certificate_tol)
    _write_summary(cfg.out / "summary.txt", "analyze", [
        f"grid = {mf.grid.nx}x{mf.grid.ny}",
        f"h = {_fmt(mf.grid.h)}",
        *_certificate_lines(cert),
    ])


def _run_verify(cfg: ScenarioConfig) -> None:
    mf = _make_field(cfg)
    X, Y = mf.grid.mesh()
    columns = ["x", "y"]
    fields = [X, Y]
    lines = [f"grid = {mf.grid.nx}x{mf.grid.ny}", f"h = {_fmt(mf.grid.h)}"]
    notes = []
    for name, check in IDENTITY_CHECKS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = check(mf)
        for w in caught:
            notes.append(f"warning = {name}: {w.message}")
        for comp, residual in report.components.items():
            columns.append(f"{name}.{comp}")
            fields.append(residual)
        lines += [
            f"{name}.norm_inf = {_fmt(report.norm_inf)}",
            f"{name}.norm_l2 = {_fmt(report.norm_l2)}",
            f"{name}.masked_points = {report.masked_points}",
        ]
        defect = report.minimality_defect
    lines.append(f"minimality_defect = {_fmt(defect)}")
    _write_table(cfg.out / "verify.csv", "verify", columns, fields)
    _write_summary(cfg.out / "summary.txt", "verify",
                   lines + sorted(set(notes)))


def _run_refine(cfg: ScenarioConfig) -> None:
    ns = cfg.refine_grids
    studies = {}
    for name, check in IDENTITY_CHECKS:
        studies[name] = refinement_study(
            lambda n: _make_field(cfg, n), ns,
            lambda mf, check=check: check(mf).norm_inf)

    any_study = next(iter(studies.values()))
    columns = ["h"] + [name for name, _ in IDENTITY_CHECKS]
    rows = [f"# minmaps refine csv {CSV_VERSION}", ",".join(columns)]
    for k, h in enumerate(any_study.hs):
        rows.append(",".join([_fmt(h)] + [_fmt(studies[name].norms[k])
                                          for name, _ in IDENTITY_CHECKS]))
    (cfg.out / "refine.csv").write_text("\n".join(rows) + "\n")

    lines = [f"grids = {' '.join(str(n) for n in ns)}"]
    for name, _ in IDENTITY_CHECKS:
        st = studies[name]
        lines += [
            f"{name}.orders = {' '.join(f'{o:.6g}' for o in st.orders)}",
            f"{name}.estimated_order = {st.estimated_order:.6g}",
            f"{name}.exact = {str(st.exact).lower()}",
            f"{name}.second_order = {str(st.second_order).lower()}",
        ]
    _write_summary(cfg.out / "summary.txt", "refine", lines)


def _run_flow(cfg: ScenarioConfig) -> None:
    mf = _make_field(cfg)
    flow_cfg = FlowConfig(stop_tension=cfg.stop_tension,
                          max_steps=cfg.max_steps,
                          dt_max=cfg.dt_max)
    result = run_to_minimal(mf, flow_cfg)
    state = result.state
    write_monitors_csv(state, cfg.out / "monitors.csv")
    lines = [
        f"converged = {str(result.converged).lower()}",
        f"steps = {state.steps}",
        f"t = {_fmt(state.t)}",
        f"norm_tau = {_fmt(state.tension_norm)}",
        f"stop_tension = {_fmt(cfg.stop_tension)}",
    ]
    try:
        write_snapshot(state.map, cfg.out / "final_map.txt")
        lines.append("snapshot = final_map.txt")
    except ConfigError:
        lines.append("snapshot = skipped (grid spacing not square)")
    lines += _certificate_lines(result.certificate)
    _write_summary(cfg.out / "summary.txt", "flow", lines)


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
               "masked or boundary points hold nan"),
    "refine": "refine.csv columns: h, pullback, form_laplacian, jacobians, gradients",
    "flow": ("monitors.csv columns: step, t, dt, min_phi, min_theta, "
             "max_abs_jf, norm_H, norm_tau; final_map.txt holds the last "
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


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is not None and args.preset is not None:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.config is not None:
        return _config_from_file(args.config, args.command, args.out, args.grid)
    if args.preset is not None:
        return ScenarioConfig(kind=args.command, out=args.out,
                              preset=args.preset, grid_n=args.grid)
    raise ConfigError("either --config or --preset is required")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(_scenario_config(args))
    except ConfigError as exc:
        print(f"minmaps: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChartDomainError as exc:
        print(f"minmaps: chart domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NumericalError, StencilError) as exc:
        print(f"minmaps: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
