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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import StencilError
from .expressions import MapExpr
from .linalg2 import apply2, det2, inner, inv2, spd_inv_sqrt2, sym_eig2
from .surface import ConformalMetric, GridChart

__all__ = [
    "MapField", "PointwiseGeometry", "PointwiseGrid", "PointClass", "Classification",
    "differential", "singular_decomposition", "jacobians", "kahler_cosines",
    "jacobian_determinant", "classify_point", "classification_masks",
    "graph_metric_singular_values", "pointwise_grid", "pointwise_geometry",
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


@dataclass(frozen=True)
class MapField:
    """A map sampled on a grid, with optional analytic chart formula.

    `values[i, j]` is f(x_i, y_j) in target chart coordinates. When `expr`
    is present the Jacobian field is exact; otherwise it comes from central
    differences and is only defined one ring inside a Dirichlet grid.
    """

    grid: GridChart
    source: ConformalMetric
    target: ConformalMetric
    values: np.ndarray
    expr: Optional[MapExpr] = None

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if v.shape != (self.grid.nx, self.grid.ny, 2):
            raise ValueError(f"values shape {v.shape} != {(self.grid.nx, self.grid.ny, 2)}")
        X, Y = self.grid.mesh()
        self.source.check_domain(X, Y, what="grid")
        self.target.check_domain(v[..., 0], v[..., 1], what="map image")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_expr(cls, grid: GridChart, source: ConformalMetric,
                  target: ConformalMetric, expr: MapExpr) -> "MapField":
        X, Y = grid.mesh()
        return cls(grid, source, target, expr(X, Y), expr=expr)

    @classmethod
    def from_callable(cls, grid: GridChart, source: ConformalMetric,
                      target: ConformalMetric, fn: Callable) -> "MapField":
        X, Y = grid.mesh()
        vals = np.asarray(fn(X, Y), float)
        if vals.shape == (2, grid.nx, grid.ny):
            vals = np.moveaxis(vals, 0, -1)
        return cls(grid, source, target, vals)

    def with_values(self, values: np.ndarray) -> "MapField":
        """Same chart data, new samples (drops the analytic formula)."""
        return MapField(self.grid, self.source, self.target, values, expr=None)

    @cached_property
    def df_field(self) -> np.ndarray:
        """Jacobian field (nx, ny, 2, 2); df[..., a, i] = d f^a / d x^i."""
        if self.expr is not None:
            X, Y = self.grid.mesh()
            return self.expr.jacobian(X, Y)
        g = self.grid
        f1, f2 = self.values[..., 0], self.values[..., 1]
        df = np.empty((g.nx, g.ny, 2, 2))
        df[..., 0, 0] = g.d_x(f1)
        df[..., 0, 1] = g.d_y(f1)
        df[..., 1, 0] = g.d_x(f2)
        df[..., 1, 1] = g.d_y(f2)
        return df

    @cached_property
    def pointwise(self) -> "PointwiseGrid":
        return pointwise_grid(self)


def differential(mapfield: MapField, p: tuple[int, int]) -> np.ndarray:
    """Order-2 central-difference Jacobian at grid index p = (i, j)."""
    i, j = p
    g = mapfield.grid
    f = mapfield.values
    if not g.periodic and not (1 <= i <= g.nx - 2 and 1 <= j <= g.ny - 2):
        raise StencilError("central stencil leaves the Dirichlet grid at this point")
    ip, im = (i + 1) % g.nx, (i - 1) % g.nx
    jp, jm = (j + 1) % g.ny, (j - 1) % g.ny
    df = np.empty((2, 2))
    df[:, 0] = (f[ip, j] - f[im, j]) / (2.0 * g.hx)
    df[:, 1] = (f[i, jp] - f[i, jm]) / (2.0 * g.hy)
    return df


def singular_decomposition(df: np.ndarray, gM: np.ndarray, gN: np.ndarray):
    """Metric-relative singular data of df.

    Parameters are (..., 2, 2) arrays (df rows indexed by target component).
    Returns (lam, mu, s, alpha1, alpha2, beta1, beta2) with lam <= mu,
    s = sign(det df), the alpha frame g_M-orthonormal and positively
    oriented, the beta frame g_N-orthonormal with df(alpha1) = lam beta1,
    df(alpha2) = mu beta2. At conformal points (lam == mu) alpha1 points
    along the source x-axis; where df vanishes (mu below the rank floor)
    both frames lie along the chart axes. Near rank loss (|df alpha1| <=
    1e-6 mu, or below the rank floor) beta1 is the g_N-orthonormal
    complement of beta2, oriented with sign(det df) and positively when
    det df == 0, and lam is |df alpha1|.
    """
    df = np.asarray(df, float)
    gM = np.asarray(gM, float)
    gN = np.asarray(gN, float)
    shape = np.broadcast_shapes(df.shape[:-2], gM.shape[:-2], gN.shape[:-2])
    df = np.broadcast_to(df, shape + (2, 2))
    gM = np.broadcast_to(gM, shape + (2, 2))
    gN = np.broadcast_to(gN, shape + (2, 2))

    pullback = np.einsum("...ai,...ab,...bj->...ij", df, gN, df)
    w = spd_inv_sqrt2(gM)
    S = np.einsum("...ik,...kl,...lj->...ij", w, pullback, w)
    # symmetrise against rounding so the closed-form eigensolver sees b = b
    b_sym = 0.5 * (S[..., 0, 1] + S[..., 1, 0])
    lo, hi, w_lo, w_hi = sym_eig2(S[..., 0, 0], b_sym, S[..., 1, 1])

    with np.errstate(invalid="ignore"):
        lam = np.sqrt(np.clip(lo, 0.0, None))  # clip guards rounding; NaN passes through
        mu = np.sqrt(np.clip(hi, 0.0, None))
    alpha1 = apply2(w, w_lo)
    alpha2 = apply2(w, w_hi)

    # conformal points, and points where df vanishes to working precision
    # (its pullback may underflow, and the eigenvectors then lose their
    # normalisation): deterministic chart-axis frame
    floor = _RANK_FLOOR * (1.0 + mu)
    vanishing = mu <= floor
    gap = hi - lo
    scale = np.abs(hi) + np.abs(lo)
    conformal = (gap <= _CONFORMAL_GAP * np.where(scale > 0, scale, 1.0)) | vanishing
    if np.any(conformal):
        e1 = np.zeros(shape + (2,))
        e1[..., 0] = 1.0 / np.sqrt(gM[..., 0, 0])
        # g_M-orthonormal completion of e1, then taken below through the
        # common orientation fix
        proj = inner(gM, np.stack([np.zeros(shape), np.ones(shape)], -1), e1)
        e2 = np.stack([-proj * e1[..., 0], 1.0 - proj * e1[..., 1]], axis=-1)
        e2 /= np.sqrt(inner(gM, e2, e2))[..., None]
        c = conformal[..., None]
        alpha1 = np.where(c, e1, alpha1)
        alpha2 = np.where(c, e2, alpha2)

    # positive chart orientation of the alpha frame
    cross = alpha1[..., 0] * alpha2[..., 1] - alpha1[..., 1] * alpha2[..., 0]
    alpha2 = np.where((cross < 0)[..., None], -alpha2, alpha2)

    t1 = apply2(df, alpha1)
    t2 = apply2(df, alpha2)
    n1 = np.sqrt(np.abs(inner(gN, t1, t1)))
    n2 = np.sqrt(np.abs(inner(gN, t2, t2)))
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
        axis1 = np.zeros(shape + (2,))
        axis1[..., 0] = 1.0 / np.sqrt(gN[..., 0, 0])
        proj = inner(gN, np.stack([np.zeros(shape), np.ones(shape)], -1), axis1)
        axis2 = np.stack([-proj * axis1[..., 0], 1.0 - proj * axis1[..., 1]], axis=-1)
        axis2 /= np.sqrt(inner(gN, axis2, axis2))[..., None]
        beta1 = np.where(rank0[..., None], axis1, beta1)
        beta2 = np.where(rank0[..., None], axis2, beta2)

    s = np.sign(det2(df))
    if np.any(rank1):
        # complete beta2 to a g_N-orthonormal pair oriented like df
        # (positively when det df == 0): gN^-1 of the chart perpendicular;
        # exact singular vectors are always such a pair
        comp = apply2(inv2(gN), np.stack([beta2[..., 1], -beta2[..., 0]], axis=-1))
        comp *= np.where(s < 0, -1.0, 1.0)[..., None]
        with np.errstate(invalid="ignore"):
            comp /= np.sqrt(np.maximum(inner(gN, comp, comp), 1e-300))[..., None]
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


def graph_metric_singular_values(lam: np.ndarray, mu: np.ndarray):
    """Singular values of f viewed from the graph metric; both < 1."""
    lam = np.asarray(lam, float)
    mu = np.asarray(mu, float)
    return lam / np.sqrt(1.0 + lam * lam), mu / np.sqrt(1.0 + mu * mu)


class PointClass(enum.Enum):
    COMPLEX = "complex"
    ANTI_COMPLEX = "anti_complex"
    LAGRANGIAN_1 = "lagrangian_1"
    LAGRANGIAN_2 = "lagrangian_2"
    GENERIC = "generic"


@dataclass(frozen=True)
class Classification:
    primary: PointClass
    labels: tuple[PointClass, ...]
    triggers: tuple[tuple[PointClass, str], ...]  # (label, "J1"/"J2")


def classify_point(phi: float, theta: float, tol: float = 1e-9) -> Classification:
    """Special-point classification from the two Kaehler angle cosines.

    phi is the cosine attached to the difference structure J1, theta to the
    sum structure J2. A point can match several labels (the identity map is
    Lagrangian for J1 and complex for J2 at once); `primary` is the first
    match in the order complex, anti-complex, Lagrangian1, Lagrangian2.
    """
    labels: list[PointClass] = []
    triggers: list[tuple[PointClass, str]] = []
    if abs(phi - 1.0) <= tol:
        labels.append(PointClass.COMPLEX)
        triggers.append((PointClass.COMPLEX, "J1"))
    if abs(theta - 1.0) <= tol:
        if PointClass.COMPLEX not in labels:
            labels.append(PointClass.COMPLEX)
        triggers.append((PointClass.COMPLEX, "J2"))
    if phi <= -1.0 + tol:
        labels.append(PointClass.ANTI_COMPLEX)
        triggers.append((PointClass.ANTI_COMPLEX, "J1"))
    if theta <= -1.0 + tol:
        if PointClass.ANTI_COMPLEX not in labels:
            labels.append(PointClass.ANTI_COMPLEX)
        triggers.append((PointClass.ANTI_COMPLEX, "J2"))
    if abs(phi) <= tol:
        labels.append(PointClass.LAGRANGIAN_1)
        triggers.append((PointClass.LAGRANGIAN_1, "J1"))
    if abs(theta) <= tol:
        labels.append(PointClass.LAGRANGIAN_2)
        triggers.append((PointClass.LAGRANGIAN_2, "J2"))
    if not labels:
        return Classification(PointClass.GENERIC, (PointClass.GENERIC,), ())
    order = [PointClass.COMPLEX, PointClass.ANTI_COMPLEX,
             PointClass.LAGRANGIAN_1, PointClass.LAGRANGIAN_2]
    primary = next(c for c in order if c in labels)
    return Classification(primary, tuple(labels), tuple(triggers))


def classification_masks(phi: np.ndarray, theta: np.ndarray,
                         tol: float = 1e-9) -> dict[str, np.ndarray]:
    """Vectorised label masks over a grid of angle cosines."""
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
class PointwiseGeometry:
    """Full pointwise record at one grid point."""

    df: np.ndarray
    lam: float
    mu: float
    s: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    u1: float
    u2: float
    jf: float
    phi: float
    theta: float
    classification: Classification


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
    gM: np.ndarray       # (nx, ny, 2, 2) source metric at grid points
    gN: np.ndarray       # (nx, ny, 2, 2) target metric at image points

    def at(self, i: int, j: int, tol: float = 1e-9) -> PointwiseGeometry:
        return PointwiseGeometry(
            df=self.df[i, j], lam=float(self.lam[i, j]), mu=float(self.mu[i, j]),
            s=float(self.s[i, j]), alpha1=self.alpha1[i, j], alpha2=self.alpha2[i, j],
            beta1=self.beta1[i, j], beta2=self.beta2[i, j], u1=float(self.u1[i, j]),
            u2=float(self.u2[i, j]), jf=float(self.jf[i, j]), phi=float(self.phi[i, j]),
            theta=float(self.theta[i, j]),
            classification=classify_point(float(self.phi[i, j]), float(self.theta[i, j]), tol),
        )


def pointwise_grid(mapfield: MapField) -> PointwiseGrid:
    """Run the pointwise algebra over every grid point (vectorised)."""
    X, Y = mapfield.grid.mesh()
    gM = mapfield.source.metric_tensor(X, Y)
    gN = mapfield.target.metric_tensor(mapfield.values[..., 0], mapfield.values[..., 1])
    df = mapfield.df_field
    with np.errstate(invalid="ignore", divide="ignore"):
        lam, mu, s, a1, a2, b1, b2 = singular_decomposition(df, gM, gN)
        u1, u2 = jacobians(lam, mu, s)
        phi, theta = kahler_cosines(u1, u2)
        jf = u2 / u1
    return PointwiseGrid(mapfield.grid, df, lam, mu, s, a1, a2, b1, b2,
                         u1, u2, jf, phi, theta, gM, gN)


def pointwise_geometry(mapfield: MapField, p: tuple[int, int],
                       tol: float = 1e-9) -> PointwiseGeometry:
    """Pointwise record at grid index p (central differences for sampled maps)."""
    i, j = p
    if mapfield.expr is not None:
        x, y = mapfield.grid.point(i, j)
        df = mapfield.expr.jacobian(np.float64(x), np.float64(y))
    else:
        df = differential(mapfield, p)
    x, y = mapfield.grid.point(i, j)
    gM = mapfield.source.metric_tensor(np.float64(x), np.float64(y))
    fx, fy = mapfield.values[i, j]
    gN = mapfield.target.metric_tensor(np.float64(fx), np.float64(fy))
    lam, mu, s, a1, a2, b1, b2 = singular_decomposition(df, gM, gN)
    u1, u2 = jacobians(lam, mu, s)
    phi, theta = kahler_cosines(u1, u2)
    return PointwiseGeometry(
        df=df, lam=float(lam), mu=float(mu), s=float(s),
        alpha1=a1, alpha2=a2, beta1=b1, beta2=b2,
        u1=float(u1), u2=float(u2), jf=float(u2 / u1),
        phi=float(phi), theta=float(theta),
        classification=classify_point(float(phi), float(theta), tol),
    )
