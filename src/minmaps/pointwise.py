"""Pointwise map algebra: differentials, singular values, Jacobians, angles.

For a map f between conformal surfaces the pullback metric f*g_N is
diagonalised relative to g_M: its eigenvalues are lambda^2 <= mu^2 and the
g_M-orthonormal eigenvector pair (alpha1, alpha2) is completed by
g_N-orthonormal (beta1, beta2) with df(alpha1) = lambda beta1 and
df(alpha2) = mu beta2. All scalar invariants of the graph of f at a point
are functions of (lambda, mu, s) with s = sign(det df):

    u1 = 1 / sqrt((1 + lambda^2)(1 + mu^2))     (area cosine of the source factor)
    u2 = s * lambda * mu * u1                   (area cosine of the target factor)
    J_f = u2 / u1 = s * lambda * mu             (metric Jacobian determinant)
    phi = u1 - u2,  theta = u1 + u2             (Kaehler angle cosines)

Conventions: (alpha1, alpha2) is positively oriented in the source chart, so
the area form of the source evaluates to +1 on it; the beta frame inherits
its orientation from df. All functions broadcast over leading axes.

Storage: per-point vectors and tensors keep their (nx, ny, ...) shape and
index meaning, but are stored component-major, so each [..., a, b] is a
contiguous (nx, ny) plane. Build vectors with `_planes` and allocate
fields with `_empty_planes`, never with np.stack(..., axis=-1) or
np.empty(shape + comps), and spell out reductions over component axes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .expressions import MapExpr
from .surface import ConformalMetric, GridChart

if TYPE_CHECKING:
    from .flow import TensionPass
    from .graph_geometry import GraphGrid

__all__ = [
    "FactorSamples", "MapField", "PointwiseGrid",
    "singular_decomposition", "jacobians", "kahler_cosines",
    "jacobian_determinant", "classification_masks", "pointwise_grid",
]

# relative eigenvalue gap below which a point counts as conformal
# (frames then snap to the chart axes for determinism)
_CONFORMAL_GAP = 1e-10
# singular values below this count as rank loss when building the beta frame
_RANK_FLOOR = 1e-14
# |df alpha1| / |df alpha2| below this counts as rank loss for the beta
# frame: the direction of df(alpha1) carries a rounding error of about
# eps mu / lam, which grows to sqrt(eps) ~ 1.5e-8 at lam / mu = sqrt(eps),
# so beta1 is rebuilt from beta2 well before that
_NEAR_RANK = 1e-6


@dataclass(eq=False)
class FactorSamples:
    """A conformal factor's rho^2, grad log rho and curvature, each sampled
    on first use and kept; `points` returns the sample points."""

    metric: ConformalMetric
    points: Callable[[], tuple[np.ndarray, np.ndarray]]

    @cached_property
    def rho2(self) -> np.ndarray:
        x, y = self.points()
        return np.broadcast_to(self.metric.rho(x, y) ** 2, x.shape)

    @cached_property
    def log_rho_grad(self) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.points()
        ux, uy = self.metric.log_rho_grad(x, y)
        return np.broadcast_to(ux, x.shape), np.broadcast_to(uy, x.shape)

    @cached_property
    def curvature(self) -> np.ndarray:
        x, y = self.points()
        return np.broadcast_to(self.metric.curvature(x, y), x.shape)


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
    def pointwise(self) -> "PointwiseGrid":
        return pointwise_grid(self)

    @cached_property
    def graph(self) -> "GraphGrid":
        # imported here: graph_geometry and flow import this module
        from .graph_geometry import graph_grid
        return graph_grid(self)

    @cached_property
    def tension(self) -> "TensionPass":
        from .flow import tension_pass
        return tension_pass(self)


def _planes(*comps: np.ndarray) -> np.ndarray:
    """The vector (..., len(comps)) of the component arrays, stored
    component-major: each [..., i] is a contiguous plane."""
    return np.moveaxis(np.stack(comps), 0, -1)


def _empty_planes(shape: tuple, comps: tuple) -> np.ndarray:
    """An uninitialised (*shape, *comps) field stored component-major."""
    k = len(comps)
    return np.moveaxis(np.empty(comps + shape), range(k), range(-k, 0))


def sym_eig2(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Eigensystem of [[a, b], [b, c]].

    Returns (lo, hi, v_lo, v_hi) with lo <= hi and orthonormal eigenvectors
    of shape (..., 2); the pair (v_lo, v_hi) is positively oriented.
    """
    mean = 0.5 * (a + c)
    diff = 0.5 * (a - c)
    r = np.hypot(diff, b)
    lo, hi = mean - r, mean + r
    # stable eigenvector of the top eigenvalue
    vx = np.where(diff >= 0, r + diff, b)
    vy = np.where(diff >= 0, b, r - diff)
    nrm = np.hypot(vx, vy)
    tiny = nrm <= 0
    vx = np.where(tiny, 1.0, vx / np.where(tiny, 1.0, nrm))
    vy = np.where(tiny, 0.0, vy / np.where(tiny, 1.0, nrm))
    v_hi = _planes(vx, vy)
    v_lo = _planes(vy, -vx)  # rot(-90): det[v_lo | v_hi] = +1
    return lo, hi, v_lo, v_hi


def _apply(df: np.ndarray, v: np.ndarray) -> np.ndarray:
    """df v over leading axes, unrolled."""
    return _planes(df[..., 0, 0] * v[..., 0] + df[..., 0, 1] * v[..., 1],
                   df[..., 1, 0] * v[..., 0] + df[..., 1, 1] * v[..., 1])


def _axes(inv_rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart axes scaled to unit length in the metric rho^2 I."""
    zero = np.zeros_like(inv_rho)
    return _planes(inv_rho, zero), _planes(zero, inv_rho)


def singular_decomposition(df: np.ndarray, rhoM2: np.ndarray, rhoN2: np.ndarray):
    """Metric-relative singular data of df between conformal metrics.

    df is (..., 2, 2) (rows indexed by target component); rhoM2 and rhoN2
    are the squared conformal factors of the source metric at the point and
    of the target metric at the image point, broadcast against df's leading
    axes. With g_M = rhoM^2 I and g_N = rhoN^2 I the pullback relative to
    g_M is S = (rhoN^2 / rhoM^2) df^T df, so lam and mu are the singular
    values of df scaled by rhoN / rhoM and the alpha frame is the
    eigenvector pair of df^T df scaled by 1 / rhoM.

    Returns (lam, mu, s, alpha1, alpha2, beta1, beta2) with lam <= mu,
    s = sign(det df), the alpha frame g_M-orthonormal and positively
    oriented, the beta frame g_N-orthonormal with df(alpha1) = lam beta1,
    df(alpha2) = mu beta2. At conformal points (lam == mu) alpha1 points
    along the source x-axis; where df vanishes (mu below the rank floor)
    both frames lie along the chart axes. Near rank loss (|df alpha1| <=
    1e-6 mu, or below the rank floor) beta1 is the 90-degree rotation of
    beta2, oriented with sign(det df) and positively when det df == 0, and
    lam is |df alpha1|.
    """
    df = np.asarray(df, float)
    rhoM2 = np.asarray(rhoM2, float)
    rhoN2 = np.asarray(rhoN2, float)
    shape = np.broadcast_shapes(df.shape[:-2], rhoM2.shape, rhoN2.shape)
    df = np.broadcast_to(df, shape + (2, 2))
    rhoM2 = np.broadcast_to(rhoM2, shape)
    rhoN2 = np.broadcast_to(rhoN2, shape)
    d00, d01 = df[..., 0, 0], df[..., 0, 1]
    d10, d11 = df[..., 1, 0], df[..., 1, 1]

    k = rhoN2 / rhoM2
    lo, hi, w_lo, w_hi = sym_eig2(k * (d00 * d00 + d10 * d10),
                                  k * (d00 * d01 + d10 * d11),
                                  k * (d01 * d01 + d11 * d11))
    with np.errstate(invalid="ignore"):
        lam = np.sqrt(np.clip(lo, 0.0, None))  # clip guards rounding; NaN passes through
        mu = np.sqrt(np.clip(hi, 0.0, None))
    inv_rM = (1.0 / np.sqrt(rhoM2))[..., None]
    alpha1 = w_lo * inv_rM
    alpha2 = w_hi * inv_rM

    # conformal points, and points where df vanishes to working precision
    # (its pullback may underflow, and the eigenvectors then lose their
    # normalisation): deterministic chart-axis frame
    floor = _RANK_FLOOR * (1.0 + mu)
    vanishing = mu <= floor
    gap = hi - lo
    scale = np.abs(hi) + np.abs(lo)
    conformal = (gap <= _CONFORMAL_GAP * np.where(scale > 0, scale, 1.0)) | vanishing
    if np.any(conformal):
        e1, e2 = _axes(inv_rM[..., 0])
        c = conformal[..., None]
        alpha1 = np.where(c, e1, alpha1)
        alpha2 = np.where(c, e2, alpha2)

    t1 = _apply(df, alpha1)
    t2 = _apply(df, alpha2)
    n1 = np.sqrt(rhoN2 * (t1[..., 0] ** 2 + t1[..., 1] ** 2))
    n2 = np.sqrt(rhoN2 * (t2[..., 0] ** 2 + t2[..., 1] ** 2))
    finite = np.isfinite(n2)
    ok1 = n1 > floor
    ok2 = n2 > floor
    rank0 = (vanishing | ~ok2) & finite    # df vanishes entirely
    # df has a one-dimensional image to working precision; n1 measures lam
    # to ~eps mu, where the eigenvalue route only resolves ~sqrt(eps) mu
    rank1 = ok2 & (~ok1 | (n1 <= _NEAR_RANK * n2))

    with np.errstate(invalid="ignore", divide="ignore"):
        beta1 = np.where(ok1[..., None], t1 / np.where(ok1, n1, 1.0)[..., None], 0.0)
        beta2 = np.where(ok2[..., None], t2 / np.where(ok2, n2, 1.0)[..., None], 0.0)

    if np.any(rank0):
        # beta frame along the positively oriented target chart axes
        axis1, axis2 = _axes(1.0 / np.sqrt(rhoN2))
        beta1 = np.where(rank0[..., None], axis1, beta1)
        beta2 = np.where(rank0[..., None], axis2, beta2)

    s = np.sign(d00 * d11 - d01 * d10)
    if np.any(rank1):
        # complete beta2 to a g_N-orthonormal pair oriented like df
        # (positively when det df == 0): for a conformal g_N that is beta2
        # turned by -90 degrees; exact singular vectors are always such a pair
        sgn = np.where(s < 0, -1.0, 1.0)
        comp = _planes(sgn * beta2[..., 1], -sgn * beta2[..., 0])
        beta1 = np.where(rank1[..., None], comp, beta1)
        lam = np.where(rank1, n1, lam)

    if not np.all(finite):
        bad = (~finite)[..., None]
        alpha1 = np.where(bad, np.nan, alpha1)
        alpha2 = np.where(bad, np.nan, alpha2)
        beta1 = np.where(bad, np.nan, beta1)
        beta2 = np.where(bad, np.nan, beta2)
    return lam, mu, s, alpha1, alpha2, beta1, beta2


def jacobians(lam: np.ndarray, mu: np.ndarray, s: np.ndarray):
    """(u1, u2): cosines of the two factor area forms on the graph.

    u1 is always positive; u2 carries the sign of det df. Satisfies
    u1^2 (1 + lam^2)(1 + mu^2) = 1 exactly in exact arithmetic.
    """
    lam = np.asarray(lam, float)
    mu = np.asarray(mu, float)
    u1 = 1.0 / np.sqrt((1.0 + lam * lam) * (1.0 + mu * mu))
    u2 = np.asarray(s, float) * lam * mu * u1
    return u1, u2


def kahler_cosines(u1: np.ndarray, u2: np.ndarray):
    """(phi, theta) = (u1 - u2, u1 + u2); both lie in (-1, 1]."""
    return u1 - u2, u1 + u2


def jacobian_determinant(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """J_f = u2 / u1: areas compare with sign, |J_f| <= 1 is area decreasing."""
    return np.asarray(u2, float) / np.asarray(u1, float)


def classification_masks(phi: np.ndarray, theta: np.ndarray,
                         tol: float = 1e-9) -> dict[str, np.ndarray]:
    """Special-point label masks over a grid of the two Kaehler angle cosines.

    phi is the cosine attached to the difference structure J1, theta to the
    sum structure J2. A point can carry several labels (the identity map is
    Lagrangian for J1 and complex for J2 at once); "generic" marks the
    points that carry none.
    """
    phi = np.asarray(phi, float)
    theta = np.asarray(theta, float)
    masks = {
        "complex": (np.abs(phi - 1.0) <= tol) | (np.abs(theta - 1.0) <= tol),
        "anti_complex": (phi <= -1.0 + tol) | (theta <= -1.0 + tol),
        "lagrangian_1": np.abs(phi) <= tol,
        "lagrangian_2": np.abs(theta) <= tol,
    }
    masks["generic"] = ~(masks["complex"] | masks["anti_complex"]
                         | masks["lagrangian_1"] | masks["lagrangian_2"])
    return masks


@dataclass(frozen=True)
class PointwiseGrid:
    """Vectorised pointwise geometry over a whole grid (NaN outside validity)."""

    grid: GridChart
    df: np.ndarray       # (nx, ny, 2, 2)
    lam: np.ndarray
    mu: np.ndarray
    s: np.ndarray
    alpha1: np.ndarray   # (nx, ny, 2)
    alpha2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    jf: np.ndarray
    phi: np.ndarray
    theta: np.ndarray


def pointwise_grid(mapfield: MapField) -> PointwiseGrid:
    """Run the pointwise algebra over every grid point (vectorised)."""
    df = mapfield.df_field
    with np.errstate(invalid="ignore", divide="ignore"):
        lam, mu, s, a1, a2, b1, b2 = singular_decomposition(
            df, mapfield.source_samples.rho2, mapfield.target_samples.rho2)
        u1, u2 = jacobians(lam, mu, s)
        phi, theta = kahler_cosines(u1, u2)
        jf = jacobian_determinant(u1, u2)
    return PointwiseGrid(mapfield.grid, df, lam, mu, s, a1, a2, b1, b2,
                         u1, u2, jf, phi, theta)
