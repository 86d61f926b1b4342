"""Named maps, metrics, and canonical test scenarios.

Map presets are built as expression strings and parsed, so every preset
carries an exact symbolic Jacobian. Parametrised families take a suffix:
``mobius:0.3``, ``affine:1,0,0,1``, ``constant:0.1,-0.2``. Arbitrary maps
use ``expr:f1, f2``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .expressions import MapExpr
from .pointwise import MapField
from .surface import ConformalMetric, GridChart

__all__ = [
    "map_preset", "parse_map_spec", "parse_metric_spec",
    "paper_example_field", "z_squared_field", "z_squared_mixed_field",
    "identity_hyperbolic_field", "constant_field", "mobius_field",
    "affine_field", "sine_bump", "scenario_field", "SCENARIO_SPECS", "SCENARIOS",
]

_RADIAL = "((exp(x) - 3*exp(-x))/2)"

_FIXED_MAPS = {
    "identity": "x, y",
    "z_squared": "x^2 - y^2, 2*x*y",
    "paper_example": f"{_RADIAL} * cos(y/2), -{_RADIAL} * sin(y/2)",
}


def _num(value: float) -> str:
    return f"({value!r})"


def map_preset(name: str, *params: float) -> MapExpr:
    """Build a named map; parametrised families take positional numbers."""
    if name in _FIXED_MAPS:
        if params:
            raise ConfigError(f"map preset {name!r} takes no parameters")
        return MapExpr.parse(_FIXED_MAPS[name])
    if name == "mobius":
        if len(params) != 1:
            raise ConfigError("mobius preset needs one parameter a")
        a = float(params[0])
        if not abs(a) < 1.0:
            raise ConfigError("mobius parameter must satisfy |a| < 1")
        A, den = _num(a), f"((1 - {_num(a)}*x)^2 + {_num(a)}^2*y^2)"
        return MapExpr.parse(
            f"((x - {A})*(1 - {A}*x) - {A}*y^2) / {den},"
            f" y*(1 - {A}^2) / {den}")
    if name == "affine":
        if len(params) != 4:
            raise ConfigError("affine preset needs four parameters a,b,c,d")
        a, b, c, d = (_num(float(v)) for v in params)
        return MapExpr.parse(f"{a}*x + {b}*y, {c}*x + {d}*y")
    if name == "constant":
        if len(params) != 2:
            raise ConfigError("constant preset needs two parameters cx,cy")
        cx, cy = (_num(float(v)) for v in params)
        return MapExpr.parse(f"{cx}, {cy}")
    raise ConfigError(f"unknown map preset {name!r}")


def parse_map_spec(text: str) -> MapExpr:
    """Parse a map description: preset name, preset:params, or expr:..."""
    text = text.strip()
    if text.startswith("expr:"):
        return MapExpr.parse(text[len("expr:"):])
    if ":" in text:
        name, _, tail = text.partition(":")
        try:
            params = [float(tok) for tok in tail.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad parameter list in map spec {text!r}") from exc
        return map_preset(name.strip(), *params)
    return map_preset(text)


def parse_metric_spec(text: str) -> ConformalMetric:
    """Parse a metric description.

    Accepted forms: euclidean, poincare_disc, hyperbolic:SIGMA, sphere,
    custom:EXPRESSION (conformal factor as a function of x, y).
    """
    text = text.strip()
    if text == "euclidean":
        return ConformalMetric.euclidean()
    if text == "poincare_disc":
        return ConformalMetric.poincare_disc()
    if text == "sphere":
        return ConformalMetric.sphere()
    if text == "hyperbolic" or text.startswith("hyperbolic:"):
        _, _, tail = text.partition(":")
        if not tail:
            raise ConfigError("hyperbolic metric needs a curvature scale, e.g. hyperbolic:2")
        try:
            sigma = float(tail)
        except ValueError as exc:
            raise ConfigError(f"bad curvature scale {tail!r}") from exc
        return ConformalMetric.hyperbolic(sigma)
    if text.startswith("custom:"):
        return ConformalMetric.custom_expression(text[len("custom:"):])
    raise ConfigError(f"unknown metric {text!r}")


# ------------------------------------------------------------- canonical maps

def scenario_field(source: str, target: str, spec: str,
                   grid: GridChart) -> MapField:
    """The map ``spec`` from metric ``source`` to metric ``target`` on grid."""
    return MapField.from_expr(grid, parse_metric_spec(source),
                              parse_metric_spec(target), parse_map_spec(spec))


_W = 0.6 / math.sqrt(2.0)    # |z| <= 0.6 on this square: z^2 stays in the disc
_Z2 = (-_W, _W, -_W, _W)

SCENARIO_SPECS = {
    # name: (source, target, map spec, chart (x0, x1, y0, y1), default n)
    # r(x) (cos(y/2), -sin(y/2)), r = (e^x - 3 e^-x)/2: minimal, flat charts
    "paper_example": ("euclidean", "euclidean", "paper_example",
                      (-1.5, 1.5, -2.0, 2.0), 65),
    # z -> z^2 between Poincare discs; holomorphic, hence minimal
    "z_squared": ("poincare_disc", "poincare_disc", "z_squared", _Z2, 65),
    # z -> z^2 from the Poincare disc into a curvature -2 disc
    "z_squared_mixed": ("poincare_disc", "hyperbolic:2", "z_squared", _Z2, 65),
    # identity between two copies of the curvature -2 disc
    "identity_hyperbolic": ("hyperbolic:2", "hyperbolic:2", "identity",
                            (-0.45, 0.45, -0.45, 0.45), 33),
    # constant map between Poincare discs; totally geodesic fibre point
    "constant": ("poincare_disc", "poincare_disc", "constant:0.15,-0.2",
                 (-0.5, 0.5, -0.5, 0.5), 33),
    # disc automorphism z -> (z - a)/(1 - a z), a = 0.3; a hyperbolic isometry
    "mobius": ("poincare_disc", "poincare_disc", "mobius:0.3", (-0.5, 0.5, -0.5, 0.5), 33),
    # linear map between Euclidean charts; constant singular data
    "affine": ("euclidean", "euclidean", "affine:2,0,0,0.5", (-1.0, 1.0, -1.0, 1.0), 33),
}


def _preset(name: str, n: Optional[int] = None) -> MapField:
    """The row `name` of SCENARIO_SPECS on an n x n grid (default: its n)."""
    source, target, spec, chart, default_n = SCENARIO_SPECS[name]
    size = default_n if n is None else n
    return scenario_field(source, target, spec, GridChart(*chart, size, size))


# the CLI's presets; the builders are these same objects (take only n=)
SCENARIOS: dict[str, Callable[..., MapField]] = {
    name: functools.partial(_preset, name) for name in SCENARIO_SPECS}
(paper_example_field, z_squared_field, z_squared_mixed_field,
 identity_hyperbolic_field, constant_field, mobius_field,
 affine_field) = SCENARIOS.values()


def sine_bump(mf: MapField, eps: float) -> MapField:
    """Add eps sin(pi xi) sin(pi eta) to both components, with (xi, eta) the
    chart coordinates rescaled to [0, 1]; Dirichlet traces stay untouched.
    The result carries no analytic formula."""
    if eps == 0.0:
        return mf
    g = mf.grid
    X, Y = g.mesh()
    bump = eps * (np.sin(math.pi * (X - g.x0) / (g.x1 - g.x0))
                  * np.sin(math.pi * (Y - g.y0) / (g.y1 - g.y0)))
    return mf.with_values(mf.values + bump[..., None])
