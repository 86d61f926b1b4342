"""Geometry of the graph of a map inside the product of two surfaces.

The graph embedding is F(x, y) = (x, y, f1(x, y), f2(x, y)). Four-vectors
live in product chart coordinates: components 0, 1 are the source factor,
components 2, 3 the target factor, and the product metric pairs factors
separately. The adapted orthonormal frame built from the singular data

    e1 = (alpha1 (+) lam*beta1) / sqrt(1 + lam^2)
    e2 = (alpha2 (+) mu*beta2)  / sqrt(1 + mu^2)
    e3 = (-lam*alpha1 (+) beta1) / sqrt(1 + lam^2)
    e4 = (-mu*alpha2 (+) beta2)  / sqrt(1 + mu^2)

spans tangent (e1, e2) and normal (e3, e4) directions. Second fundamental
form components A[alpha, i, j] = <B(e_i, e_j), e_{alpha+2}> are stored with
orthonormal tangent indices. Second derivatives of the map always come from
width-3 central stencils, so discrete mean curvature of a minimal fixture
vanishes at order h^2; first derivatives use the analytic Jacobian when the
map carries one.

The frame (nx, ny, 4, 4), A (nx, ny, 2, 2, 2) and H (nx, ny, 2) follow the
storage rule of `pointwise`: point-major shapes over component-major
memory, so every component read is a contiguous plane. Reductions over
component axes are written out (see |A|^2), because np.sum's order depends
on the memory layout.

The ambient curvature operator of the product of constant-curvature factors
uses the sign convention R(X, Y, Z, W) = sigma * (<X,Z><Y,W> - <X,W><Y,Z>)
applied factor-wise, which makes R(e1, e2, e1, e2) the sectional curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import stencils
from .pointwise import MapField, PointwiseGrid, _empty_planes
from .surface import GridChart

__all__ = [
    "GraphGrid", "InducedMetric", "graph_grid", "induced_metric_arrays",
    "sigma_perp_commutator", "ambient_curvature",
    "laplace_beltrami_array", "gradient_norm_sq_array",
    "pullback_form", "form_on_frame", "kahler_angle_crosscheck",
]


# ------------------------------------------------------------------ algebra

def product_inner(rhoM2: np.ndarray, rhoN2: np.ndarray,
                  X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Product metric pairing of 4-vectors."""
    return (rhoM2 * (X[..., 0] * Y[..., 0] + X[..., 1] * Y[..., 1])
            + rhoN2 * (X[..., 2] * Y[..., 2] + X[..., 3] * Y[..., 3]))


def ambient_curvature(X, Y, Z, W, rhoM2, rhoN2, sigmaM, sigmaN) -> np.ndarray:
    """R(X, Y, Z, W) of the product of two constant-curvature factors."""
    def gm(u, v):
        return rhoM2 * (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1])

    def gn(u, v):
        return rhoN2 * (u[..., 2] * v[..., 2] + u[..., 3] * v[..., 3])

    GM = gm(X, Z) * gm(Y, W) - gm(X, W) * gm(Y, Z)
    GN = gn(X, Z) * gn(Y, W) - gn(X, W) * gn(Y, Z)
    return np.asarray(sigmaM) * GM + np.asarray(sigmaN) * GN


def pullback_form(which: int, X: np.ndarray, Y: np.ndarray,
                  rhoM2: np.ndarray, rhoN2: np.ndarray) -> np.ndarray:
    """Pullback of a factor area form to the product, on two 4-vectors.

    which = 1 evaluates rhoM^2 dx^dy of the source factor, which = 2 the
    target form rhoN^2 (at the image point) on the target components.
    """
    if which == 1:
        return rhoM2 * (X[..., 0] * Y[..., 1] - X[..., 1] * Y[..., 0])
    if which == 2:
        return rhoN2 * (X[..., 2] * Y[..., 3] - X[..., 3] * Y[..., 2])
    raise ValueError("which must be 1 (source form) or 2 (target form)")


def _rot(v2: np.ndarray) -> np.ndarray:
    """90-degree rotation (the complex structure of a conformal factor)."""
    return np.stack([-v2[..., 1], v2[..., 0]], axis=-1)


@dataclass(frozen=True)
class InducedMetric:
    """The graph's induced metric g = rhoM^2 I + rhoN^2 df^T df by components."""

    p11: np.ndarray          # df^T df
    p12: np.ndarray
    p22: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    det: np.ndarray
    gi11: np.ndarray         # g^-1
    gi12: np.ndarray
    gi22: np.ndarray

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(self.det)


def induced_metric_arrays(f1x, f1y, f2x, f2y, rhoM2, rhoN2) -> InducedMetric:
    """Induced metric of the graph, its inverse and determinant, from the
    four components of df (f1x = d f^1 / dx, ...) and the squared factors."""
    p11 = f1x * f1x + f2x * f2x
    p12 = f1x * f1y + f2x * f2y
    p22 = f1y * f1y + f2y * f2y
    g11 = rhoM2 + rhoN2 * p11
    g12 = rhoN2 * p12
    g22 = rhoM2 + rhoN2 * p22
    det = g11 * g22 - g12 * g12
    return InducedMetric(p11, p12, p22, g11, g12, g22, det,
                         g22 / det, -g12 / det, g11 / det)


# ---------------------------------------------------------------- grid pass

@dataclass(frozen=True)
class GraphGrid:
    """Graph geometry fields over a grid (NaN where stencils do not reach)."""

    grid: GridChart
    pw: PointwiseGrid
    metric: InducedMetric
    frame: np.ndarray        # (nx, ny, 4, 4); frame[..., a, :] = e_{a+1}
    A: np.ndarray            # (nx, ny, 2, 2, 2): A[..., alpha, i, j]
    H: np.ndarray            # (nx, ny, 2): (H^3, H^4)
    norm_H: np.ndarray
    norm_A_sq: np.ndarray
    sigma_perp: np.ndarray
    rtilde_1234: np.ndarray
    sigmaM: np.ndarray       # source curvature at grid points
    sigmaN: np.ndarray       # target curvature at image points
    rhoM2: np.ndarray
    rhoN2: np.ndarray

    @property
    def max_norm_H(self) -> float:
        return stencils.finite_abs_max(self.norm_H)


def graph_grid(mapfield: MapField) -> GraphGrid:
    """Assemble the full graph geometry of a map over its grid."""
    grid = mapfield.grid
    pw = mapfield.pointwise
    f1, f2 = mapfield.values[..., 0], mapfield.values[..., 1]
    rhoM2, rhoN2 = mapfield.source_samples.rho2, mapfield.target_samples.rho2
    df = pw.df
    fx = (df[..., 0, 0], df[..., 1, 0])      # d f / dx, by target component
    fy = (df[..., 0, 1], df[..., 1, 1])
    metric = induced_metric_arrays(fx[0], fy[0], fx[1], fy[1], rhoM2, rhoN2)
    frame = _adapted_frame_arrays(pw)

    # ambient Hessian of the embedding D_ij, per slot pair (i, j): source
    # components are the Christoffels Gamma_M(e_i, e_j), target components
    # d_ij f + Gamma_N(f_i, f_j). A conformal factor with u = log rho has
    # Gamma(a, b) = (ux s + uy m, -uy s + ux m), s = a1 b1 - a2 b2,
    # m = a1 b2 + a2 b1
    uMx, uMy = mapfield.source_samples.log_rho_grad
    uNx, uNy = mapfield.target_samples.log_rho_grad
    pairs = {(0, 0): (fx, fx, grid.d_xx, (uMx, -uMy)),
             (0, 1): (fx, fy, grid.d_xy, (uMy, uMx)),
             (1, 1): (fy, fy, grid.d_yy, (-uMx, uMy))}
    D = {}
    for ij, (a, b, d2, gammaM) in pairs.items():
        sym = a[0] * b[0] - a[1] * b[1]
        mix = a[0] * b[1] + a[1] * b[0]
        D[ij] = (*gammaM, d2(f1) + uNx * sym + uNy * mix,
                 d2(f2) - uNy * sym + uNx * mix)

    # normal projections <D_ij, e_{alpha+3}> in coordinate indices, then
    # orthonormal tangent indices through v_k = (alpha1 cl, alpha2 cm), the
    # source rows of e1 and e2
    v = (frame[..., 0, 0:2], frame[..., 1, 0:2])
    A = _empty_planes(pw.lam.shape, (2, 2, 2))
    for alpha in (0, 1):
        e = frame[..., alpha + 2, :]
        P = {ij: rhoM2 * (Dij[0] * e[..., 0] + Dij[1] * e[..., 1])
             + rhoN2 * (Dij[2] * e[..., 2] + Dij[3] * e[..., 3])
             for ij, Dij in D.items()}
        for k, l in ((0, 0), (0, 1), (1, 1)):
            vk, vl = v[k], v[l]
            A[..., alpha, k, l] = (
                vk[..., 0] * vl[..., 0] * P[(0, 0)]
                + (vk[..., 0] * vl[..., 1] + vk[..., 1] * vl[..., 0]) * P[(0, 1)]
                + vk[..., 1] * vl[..., 1] * P[(1, 1)])
        A[..., alpha, 1, 0] = A[..., alpha, 0, 1]  # exact symmetry

    H = A[..., 0, 0] + A[..., 1, 1]  # (..., alpha)
    norm_H = np.sqrt(H[..., 0] ** 2 + H[..., 1] ** 2)
    # np.sum's pairwise order over the 8 components of a point-major A,
    # written out: summing planes in another order moves the last bit
    q = [A[..., a, k, l] ** 2 for a in (0, 1) for k in (0, 1) for l in (0, 1)]
    norm_A_sq = ((q[0] + q[1]) + (q[2] + q[3])) + ((q[4] + q[5]) + (q[6] + q[7]))

    sigma_perp = (-A[..., 0, 0, 0] * A[..., 1, 0, 1]
                  + A[..., 0, 0, 1] * A[..., 1, 0, 0]
                  - A[..., 0, 0, 1] * A[..., 1, 1, 1]
                  + A[..., 0, 1, 1] * A[..., 1, 0, 1])

    sigmaM = mapfield.source_samples.curvature
    sigmaN = mapfield.target_samples.curvature
    rt = ambient_curvature(frame[..., 0, :], frame[..., 1, :],
                           frame[..., 2, :], frame[..., 3, :],
                           rhoM2, rhoN2, sigmaM, sigmaN)

    return GraphGrid(grid=grid, pw=pw, metric=metric,
                     frame=frame, A=A, H=H, norm_H=norm_H, norm_A_sq=norm_A_sq,
                     sigma_perp=sigma_perp, rtilde_1234=rt,
                     sigmaM=sigmaM, sigmaN=sigmaN, rhoM2=rhoM2, rhoN2=rhoN2)


def _adapted_frame_arrays(pw: PointwiseGrid) -> np.ndarray:
    """Frame rows (e1, e2, e3, e4) from the singular data.

    e4 carries the sign of det df so that (e1, e2, e3, e4) is positively
    oriented in the product for either orientation of the map. Equivalently
    this is the smooth singular decomposition with a signed second singular
    value; without it the normal-bundle scalar sigma_perp flips sign across
    rank-drop curves and the curvature identities fail wherever J_f < 0.
    """
    cl = 1.0 / np.sqrt(1.0 + pw.lam ** 2)
    cm = 1.0 / np.sqrt(1.0 + pw.mu ** 2)
    sgn = np.where(pw.s < 0, -1.0, 1.0)
    shape = pw.lam.shape
    E = _empty_planes(shape, (4, 4))
    E[..., 0, 0:2] = pw.alpha1 * cl[..., None]
    E[..., 0, 2:4] = pw.beta1 * (pw.lam * cl)[..., None]
    E[..., 1, 0:2] = pw.alpha2 * cm[..., None]
    E[..., 1, 2:4] = pw.beta2 * (pw.mu * cm)[..., None]
    E[..., 2, 0:2] = pw.alpha1 * (-pw.lam * cl)[..., None]
    E[..., 2, 2:4] = pw.beta1 * cl[..., None]
    E[..., 3, 0:2] = pw.alpha2 * (-sgn * pw.mu * cm)[..., None]
    E[..., 3, 2:4] = pw.beta2 * (sgn * cm)[..., None]
    return E


# --------------------------------------------------------- scalar operators

def laplace_beltrami_array(u: np.ndarray, metric: InducedMetric,
                           grid: GridChart) -> np.ndarray:
    """Divergence-form Laplace-Beltrami by nested central differences.

    Delta u = det(g)^(-1/2) d_i( det(g)^(1/2) g^(ij) d_j u ). Each nesting
    level costs one ring of validity on Dirichlet grids.
    """
    sq = metric.sqrt_det
    ux = grid.d_x(u)
    uy = grid.d_y(u)
    Fx = sq * (metric.gi11 * ux + metric.gi12 * uy)
    Fy = sq * (metric.gi12 * ux + metric.gi22 * uy)
    return (grid.d_x(Fx) + grid.d_y(Fy)) / sq


def gradient_norm_sq_array(u: np.ndarray, metric: InducedMetric,
                           grid: GridChart) -> np.ndarray:
    """|grad u|^2 = g^(ij) d_i u d_j u with central differences."""
    ux = grid.d_x(u)
    uy = grid.d_y(u)
    return (metric.gi11 * ux * ux + 2.0 * metric.gi12 * ux * uy
            + metric.gi22 * uy * uy)


# ---------------------------------------------------------- cross-checks

def sigma_perp_commutator(A: np.ndarray) -> np.ndarray:
    """sigma_perp via the explicit matrix commutator pairing <[A3, A4] e1, e2>.

    Independent route used to cross-check the four-term formula; the pairing
    reads off the (2, 1) entry of A3 A4 - A4 A3 in the orthonormal frame.
    """
    A3 = A[..., 0, :, :]
    A4 = A[..., 1, :, :]
    comm = A3 @ A4 - A4 @ A3
    return comm[..., 1, 0]


def form_on_frame(gg: GraphGrid, which: int, a: int, b: int) -> np.ndarray:
    """omega_which(e_a, e_b) over the grid, frame indices in 1..4."""
    X = gg.frame[..., a - 1, :]
    Y = gg.frame[..., b - 1, :]
    return pullback_form(which, X, Y, gg.rhoM2, gg.rhoN2)


def kahler_angle_crosscheck(gg: GraphGrid) -> tuple[np.ndarray, np.ndarray]:
    """(phi, theta) recomputed from the frame and the two product structures.

    J1 rotates the source components and counter-rotates the target ones;
    J2 rotates both. Pairing J e1 with e2 under the product metric must
    reproduce u1 -/+ u2.
    """
    e1 = gg.frame[..., 0, :]
    e2 = gg.frame[..., 1, :]
    rotM = _rot(e1[..., 0:2])
    rotN = _rot(e1[..., 2:4])
    j1e1 = np.concatenate([rotM, -rotN], axis=-1)
    j2e1 = np.concatenate([rotM, rotN], axis=-1)
    phi = product_inner(gg.rhoM2, gg.rhoN2, j1e1, e2)
    theta = product_inner(gg.rhoM2, gg.rhoN2, j2e1, e2)
    return phi, theta
