"""Pointwise map algebra: differentials, singular values, area cosines.

For a map f between conformal surfaces the pullback metric f*g_N has
eigenvalues lambda^2 <= mu^2 relative to g_M: lambda and mu are the
singular values of df between the two metrics, with g_M-orthonormal
(alpha1, alpha2) and g_N-orthonormal (beta1, beta2), df(alpha1) =
lambda beta1 and df(alpha2) = mu beta2. `singular_decomposition` takes them
in closed form, with no eigensolve: a 2x2 df is the sum of a conformal part
(a rotation times Q) and an anticonformal part (a reflection times R), so
mu = r (Q + R) and lambda = r |det df| / (Q + R) with r = rhoN / rhoM, and
the frames lie at half the sum and difference of the parts' angles. All
scalar invariants of the graph of f at a point are functions of
(lambda, mu, s) with s = sign(det df):

    u1 = 1 / sqrt((1 + lambda^2)(1 + mu^2))     (area cosine of the source factor)
    u2 = s * lambda * mu * u1                   (area cosine of the target factor)
    J_f = u2 / u1 = s * lambda * mu             (metric Jacobian determinant)
    phi = u1 - u2,  theta = u1 + u2             (Kaehler angle cosines)

These define the quantities; `area_cosines` computes them without the
singular values, by determinant ratios: the induced metric g has
det g = rhoM^4 (1 + lambda^2)(1 + mu^2), so u1 = sqrt(rhoM^4 / det g) and
u2 = det df sqrt(rhoN^4 / det g). The certificate and the flow's monitors
share it.

Conventions: (alpha1, alpha2) is positively oriented in the source chart, so
the area form of the source evaluates to +1 on it; the beta frame inherits
its orientation from df. All functions broadcast over leading axes.

Storage: per-point vectors and tensors keep their (nx, ny, ...) shape and
index meaning, but are stored component-major, so each [..., a, b] is a
contiguous (nx, ny) plane. Allocate fields with `_empty_planes`, never
with np.stack(..., axis=-1) or np.empty(shape + comps), and spell out
reductions over component axes.

Caching: a `MapField` keeps its factor samples, df, the induced metric
(g, det g; g^-1 on first use) and its passes. `PointwiseGrid` keeps df,
lam, mu, s, alpha2, beta2 and the area cosines; alpha1 and beta1 are
turned from alpha2 and beta2 on each read, since only the graph frame reads
them. df^T df lives only while the metric is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .expressions import MapExpr
from .surface import ConformalMetric, FactorKind, GridChart

if TYPE_CHECKING:
    from .flow import TensionPass
    from .graph_geometry import GraphGrid, InducedMetric

__all__ = [
    "FactorSamples", "MapField", "PointwiseGrid",
    "singular_decomposition", "area_cosines", "pointwise_grid",
]

# R / Q below which a point counts as conformal (frames then snap to the
# chart axes for determinism)
_CONFORMAL_GAP = 1e-13
# a nonzero df below _TINY_DF in every entry is decomposed times _TINY_SCALE
_TINY_DF, _TINY_SCALE = 2.0 ** -500, 2.0 ** 600


@dataclass(eq=False)
class FactorSamples:
    """A conformal factor's rho^2, grad log rho and curvature, each sampled
    on first use and kept; `points` returns the sample points. A custom
    factor's rho is evaluated once, for rho^2: that sample is its positivity
    check and the r^2 of its curvature."""

    metric: ConformalMetric
    points: Callable[[], tuple[np.ndarray, np.ndarray]]

    @cached_property
    def rho2(self) -> np.ndarray:
        x, y = self.points()
        return np.broadcast_to(self.metric.rho(x, y) ** 2, x.shape)

    @property
    def _custom(self) -> bool:
        return self.metric.kind is FactorKind.CUSTOM

    @cached_property
    def log_rho_grad(self) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.points()
        if self._custom:
            self.rho2           # rho, checked positive where it is sampled
            ux, uy = self.metric._custom_log_rho_grad(x, y)
        else:
            ux, uy = self.metric.log_rho_grad(x, y)
        return np.broadcast_to(ux, x.shape), np.broadcast_to(uy, x.shape)

    @cached_property
    def curvature(self) -> np.ndarray:
        x, y = self.points()
        K = (self.metric._custom_curvature(x, y, self.rho2) if self._custom
             else self.metric.curvature(x, y))
        return np.broadcast_to(K, x.shape)


@dataclass(frozen=True)
class MapField:
    """A map sampled on a grid, with optional analytic chart formula.

    `values[i, j]` is f(x_i, y_j) in target chart coordinates, kept as a
    read-only private copy. When `expr` is present the Jacobian field is exact;
    otherwise it comes from central differences and is only defined one
    ring inside a Dirichlet grid. The factor samples (source at the grid,
    target at the image) and the passes reading them are cached on use.
    """

    grid: GridChart
    source: ConformalMetric
    target: ConformalMetric
    values: np.ndarray
    expr: Optional[MapExpr] = None

    def __post_init__(self):
        self._own(self.values, check_source=True)

    def _own(self, values: np.ndarray, check_source: bool) -> None:
        # a private copy: the caller's array cannot change under the
        # cached passes
        v = np.array(values, float)
        if v.shape != (self.grid.nx, self.grid.ny, 2):
            raise ValueError(f"values shape {v.shape} != {(self.grid.nx, self.grid.ny, 2)}")
        if check_source:
            self.source.check_domain(*self.grid.mesh(), what="grid")
        self.target.check_domain(v[..., 0], v[..., 1], what="map image")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_expr(cls, grid: GridChart, source: ConformalMetric,
                  target: ConformalMetric, expr: MapExpr) -> "MapField":
        X, Y = grid.mesh()
        return cls(grid, source, target, expr(X, Y), expr=expr)

    def with_values(self, values: np.ndarray) -> "MapField":
        """Same chart data, new map values (drops the analytic formula).
        The new field shares this one's source samples, and only its image
        is checked: grid and source were checked when this field was made."""
        out = object.__new__(MapField)
        for f in fields(MapField):
            if f.name != "values":
                object.__setattr__(out, f.name, None if f.name == "expr"
                                   else getattr(self, f.name))
        object.__setattr__(out, "source_samples", self.source_samples)
        out._own(values, check_source=False)
        return out

    @cached_property
    def source_samples(self) -> FactorSamples:
        return FactorSamples(self.source, self.grid.mesh)

    @cached_property
    def target_samples(self) -> FactorSamples:
        # binds the array, not self: no reference cycle delays freeing
        return FactorSamples(self.target, lambda v=self.values: (v[..., 0], v[..., 1]))

    @cached_property
    def df_field(self) -> np.ndarray:
        """Jacobian field (nx, ny, 2, 2); df[..., a, i] = d f^a / d x^i."""
        if self.expr is not None:
            X, Y = self.grid.mesh()
            return self.expr.jacobian(X, Y)
        g = self.grid
        f1, f2 = self.values[..., 0], self.values[..., 1]
        df = _empty_planes((g.nx, g.ny), (2, 2))
        df[..., 0, 0] = g.d_x(f1)
        df[..., 0, 1] = g.d_y(f1)
        df[..., 1, 0] = g.d_x(f2)
        df[..., 1, 1] = g.d_y(f2)
        return df

    @cached_property
    def metric(self) -> "InducedMetric":
        # imported here: graph_geometry and flow import this module
        from .graph_geometry import induced_metric_arrays, pullback_products
        df = self.df_field
        return induced_metric_arrays(
            *pullback_products(df[..., 0, 0], df[..., 0, 1],
                               df[..., 1, 0], df[..., 1, 1]),
            self.source_samples.rho2, self.target_samples.rho2)

    @cached_property
    def pointwise(self) -> "PointwiseGrid":
        return pointwise_grid(self)

    @cached_property
    def graph(self) -> "GraphGrid":
        from .graph_geometry import graph_grid
        return graph_grid(self)

    @cached_property
    def tension(self) -> "TensionPass":
        from .flow import tension_pass
        return tension_pass(self)


def _empty_planes(shape: tuple, comps: tuple) -> np.ndarray:
    """An uninitialised (*shape, *comps) field stored component-major."""
    k = len(comps)
    return np.moveaxis(np.empty(comps + shape), range(k), range(-k, 0))


def singular_decomposition(df: np.ndarray, rhoM2: np.ndarray, rhoN2: np.ndarray):
    """Metric-relative singular data of df between conformal metrics, in
    closed form.

    df is (..., 2, 2) (rows indexed by target component); rhoM2 and rhoN2
    are the squared conformal factors of the source metric at the point and
    of the target metric at the image point, broadcast against df's leading
    axes. With g_M = rhoM^2 I and g_N = rhoN^2 I, lam and mu are the
    singular values of df scaled by r = rhoN / rhoM, and the frames are its
    singular vectors scaled by 1 / rhoM and 1 / rhoN.

    df = [[E + F, G - H], [G + H, E - F]] splits into a conformal part
    (E, H) of size Q = |(E, H)| at the angle h, and an anticonformal part
    (F, G) of size R = |(F, G)| at the angle g. Then mu = r (Q + R) and
    lam = r |det df| / (Q + R) (as |Q - R| with det df = Q^2 - R^2, but
    without the cancellation); alpha2 lies at the angle (g - h) / 2 and
    beta2 at (g + h) / 2, alpha2 turned by h.

    Returns (lam, mu, s, alpha1, alpha2, beta1, beta2) with lam <= mu,
    s = sign(det df), the alpha frame g_M-orthonormal and positively
    oriented (alpha1 is alpha2 turned by -90 degrees), the beta frame
    g_N-orthonormal with df(alpha1) = lam beta1, df(alpha2) = mu beta2:
    beta1 is beta2 turned by -90 degrees, times sign(det df) (+ where
    det df == 0). alpha2's sign follows the larger column of df: its x
    component is >= 0 where |df e_x| >= |df e_y|, else its y component is
    > 0. At conformal points (R <= 1e-13 Q, df == 0 included) alpha is
    the source chart axes and lam == mu; h is 0 where Q == 0, so where df
    vanishes beta is the target chart axes. A nonzero df whose entries are
    all below 2^-500 is split at 2^600 times its size, with lam and mu scaled
    back, so subnormal rounding cannot bend the frames. NaN passes through.
    """
    lam, mu, s, alpha2, beta2 = _singular_data(df, rhoM2, rhoN2)
    return (lam, mu, s, _turned(alpha2), alpha2,
            _turned(beta2, _orientation(s)), beta2)


def _singular_data(df: np.ndarray, rhoM2: np.ndarray, rhoN2: np.ndarray):
    """(lam, mu, s, alpha2, beta2) of `singular_decomposition`, which turns
    alpha2 and beta2 into alpha1 and beta1."""
    df = np.asarray(df, float)
    shape = np.broadcast_shapes(df.shape[:-2], np.shape(rhoM2), np.shape(rhoN2))
    a, b = df[..., 0, 0], df[..., 0, 1]
    c, d = df[..., 1, 0], df[..., 1, 1]
    # scaling by a power of two is exact; a df of zeros needs none
    size = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                      np.maximum(np.abs(c), np.abs(d)))
    tiny = (size < _TINY_DF) & (size > 0)
    del size
    scale = 1.0
    if tiny.any():
        scale = np.where(tiny, _TINY_SCALE, 1.0)
        a, b, c, d = a * scale, b * scale, c * scale, d * scale

    E, F = 0.5 * (a + d), 0.5 * (a - d)
    G, H = 0.5 * (c + b), 0.5 * (c - b)
    Q, R = np.hypot(E, H), np.hypot(F, G)
    det = a * d - b * c
    r = np.sqrt(rhoN2 / rhoM2)
    mu = r * (Q + R) / scale
    conformal = R <= _CONFORMAL_GAP * Q
    # where Q << R, |det df| / (Q + R) = |Q - R| can round above Q + R
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(conformal, mu,
                       np.minimum(mu, r * np.abs(det) / (Q + R) / scale))

    # unit vectors at the angles h and g (angle 0 where a part vanishes)
    ch = np.divide(E, Q, out=np.ones(shape), where=Q != 0)
    sh = np.divide(H, Q, out=np.zeros(shape), where=Q != 0)
    cg = np.divide(F, R, out=np.ones(shape), where=R != 0)
    sg = np.divide(G, R, out=np.zeros(shape), where=R != 0)
    # (p, q) is the unit vector at the angle g - h; (x, y) halves it, on the
    # side of the sign rule (p >= 0 exactly where |df e_x| >= |df e_y|)
    p = cg * ch + sg * sh
    q = sg * ch - cg * sh
    top = p >= 0
    x = np.where(top, 1.0 + p, q)
    y = np.where(top, q, 1.0 - p)
    n = np.sqrt(x * x + y * y)
    x = np.where(conformal, 0.0, x / n)
    y = np.where(conformal, 1.0, y / n)

    inv_rM = 1.0 / np.sqrt(rhoM2)
    inv_rN = 1.0 / np.sqrt(rhoN2)
    alpha2, beta2 = (_empty_planes(shape, (2,)) for _ in range(2))
    alpha2[..., 0] = x * inv_rM
    alpha2[..., 1] = y * inv_rM
    # beta2 is alpha2 turned by h
    beta2[..., 0] = (ch * x - sh * y) * inv_rN
    beta2[..., 1] = (sh * x + ch * y) * inv_rN
    return lam, mu, np.sign(det), alpha2, beta2


def _turned(v: np.ndarray, sgn: Optional[np.ndarray] = None) -> np.ndarray:
    """The vector field v turned by -90 degrees, (v_y, -v_x), times sgn
    when given."""
    out = _empty_planes(v.shape[:-1], (2,))
    if sgn is None:
        out[..., 0] = v[..., 1]
        np.negative(v[..., 0], out=out[..., 1])
    else:
        np.multiply(sgn, v[..., 1], out=out[..., 0])
        np.multiply(-sgn, v[..., 0], out=out[..., 1])
    return out


def _orientation(s: np.ndarray) -> np.ndarray:
    """sign(det df) as -1 or +1 (+1 where det df == 0 or is NaN)."""
    return np.where(s < 0, -1.0, 1.0)


def area_cosines(f1x, f1y, f2x, f2y, rhoM2, rhoN2, det):
    """(u1, u2, jf, phi, theta) by determinant ratios, from df's components
    (f1x = d f^1 / dx, ...), the squared factors and det g of the induced
    metric: u1 = sqrt(rhoM^4 / det g), u2 = det df sqrt(rhoN^4 / det g)."""
    u1 = np.sqrt(rhoM2 ** 2 / det)
    u2 = (f1x * f2y - f1y * f2x) * np.sqrt(rhoN2 ** 2 / det)
    with np.errstate(invalid="ignore", divide="ignore"):
        jf = u2 / u1
    return u1, u2, jf, u1 - u2, u1 + u2


@dataclass(frozen=True)
class PointwiseGrid:
    """Vectorised pointwise geometry over a whole grid (NaN outside validity)."""

    grid: GridChart
    df: np.ndarray       # (nx, ny, 2, 2)
    lam: np.ndarray
    mu: np.ndarray
    s: np.ndarray
    alpha2: np.ndarray   # (nx, ny, 2)
    beta2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    jf: np.ndarray
    phi: np.ndarray
    theta: np.ndarray

    # alpha1 and beta1 as `singular_decomposition` builds them
    @property
    def alpha1(self) -> np.ndarray:
        return _turned(self.alpha2)

    @property
    def beta1(self) -> np.ndarray:
        return _turned(self.beta2, _orientation(self.s))


def pointwise_grid(mapfield: MapField) -> PointwiseGrid:
    """Run the pointwise algebra over every grid point (vectorised)."""
    df = mapfield.df_field
    rhoM2, rhoN2 = mapfield.source_samples.rho2, mapfield.target_samples.rho2
    with np.errstate(invalid="ignore", divide="ignore"):
        lam, mu, s, a2, b2 = _singular_data(df, rhoM2, rhoN2)
        u1, u2, jf, phi, theta = area_cosines(
            df[..., 0, 0], df[..., 0, 1], df[..., 1, 0], df[..., 1, 1],
            rhoM2, rhoN2, mapfield.metric.det)
    return PointwiseGrid(mapfield.grid, df, lam, mu, s, a2, b2,
                         u1, u2, jf, phi, theta)
