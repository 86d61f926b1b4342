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
    "ambient_curvature", "laplace_beltrami_array", "gradient_norm_sq_array",
    "pullback_form", "form_on_frame",
]


# ------------------------------------------------------------------ algebra

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
    if which not in (1, 2):
        raise ValueError("which must be 1 (source form) or 2 (target form)")
    a, b = (0, 1) if which == 1 else (2, 3)
    out = X[..., a] * Y[..., b]
    out -= X[..., b] * Y[..., a]
    return (rhoM2 if which == 1 else rhoN2) * out


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

    # g^-1 on first use: the pointwise pass reads only det
    @cached_property
    def gi11(self) -> np.ndarray:
        return self.g22 / self.det

    @cached_property
    def gi12(self) -> np.ndarray:
        return -self.g12 / self.det

    @cached_property
    def gi22(self) -> np.ndarray:
        return self.g11 / self.det

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
    return InducedMetric(p11, p12, p22, g11, g12, g22, det)


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


def _add_product(acc: np.ndarray, scratch: np.ndarray, *factors,
                 subtract: bool = False) -> np.ndarray:
    """acc += f0 * f1 * ... (acc -= with subtract), multiplied left to right
    in scratch: the same bits as acc = acc + f0 * f1 * ..., and no plane is
    allocated. acc and scratch have the factors' broadcast shape."""
    np.multiply(factors[0], factors[1], out=scratch)
    for f in factors[2:]:
        scratch *= f
    if subtract:
        acc -= scratch
    else:
        acc += scratch
    return acc


def graph_grid(mapfield: MapField) -> GraphGrid:
    """Assemble the full graph geometry of a map over its grid.

    Each plane lives only while something reads it: sums accumulate in
    place through two scratch planes, one Hessian pair at a time, in the
    operation order of the written formulas."""
    grid = mapfield.grid
    pw = mapfield.pointwise
    f1, f2 = mapfield.values[..., 0], mapfield.values[..., 1]
    rhoM2, rhoN2 = mapfield.source_samples.rho2, mapfield.target_samples.rho2
    df = pw.df
    fx = (df[..., 0, 0], df[..., 1, 0])      # d f / dx, by target component
    fy = (df[..., 0, 1], df[..., 1, 1])
    frame = _adapted_frame_arrays(pw)
    shape = pw.lam.shape
    t, t2, P = (np.empty(shape) for _ in range(3))

    # ambient Hessian of the embedding D_ij, per slot pair (i, j): source
    # components are the Christoffels Gamma_M(e_i, e_j), target components
    # d_ij f + Gamma_N(f_i, f_j). A conformal factor with u = log rho has
    # Gamma(a, b) = (ux s + uy m, -uy s + ux m), s = a1 b1 - a2 b2,
    # m = a1 b2 + a2 b1 (each pair's Gamma_M, with its negated plane, is
    # built when the pair is)
    uMx, uMy = mapfield.source_samples.log_rho_grad
    uNx, uNy = mapfield.target_samples.log_rho_grad
    pairs = (((0, 0), fx, fx, grid.d_xx, lambda: (uMx, -uMy)),
             ((0, 1), fx, fy, grid.d_xy, lambda: (uMy, uMx)),
             ((1, 1), fy, fy, grid.d_yy, lambda: (-uMx, uMy)))

    # A[alpha, k, l] sums, over the pairs (i, j), the normal projection
    # P = <D_ij, e_{alpha+3}> times its coefficient in orthonormal tangent
    # indices, through v_k = (alpha1 cl, alpha2 cm), the source rows of e1
    # and e2: vk_i vl_j (+ vk_j vl_i when i != j)
    v = (frame[..., 0, 0:2], frame[..., 1, 0:2])
    A = _empty_planes(shape, (2, 2, 2))
    for (i, j), a, b, d2, gammaM in pairs:
        sym = _add_product(a[0] * b[0], t, a[1], b[1], subtract=True)
        mix = _add_product(a[0] * b[1], t, a[1], b[0])
        D = (*gammaM(), d2(f1), d2(f2))
        _add_product(_add_product(D[2], t, uNx, sym), t, uNy, mix)
        _add_product(_add_product(D[3], t, uNy, sym, subtract=True), t, uNx, mix)
        del sym, mix
        for alpha in (0, 1):
            e = frame[..., alpha + 2, :]
            np.multiply(D[0], e[..., 0], out=P)
            _add_product(P, t, D[1], e[..., 1])
            P *= rhoM2
            np.multiply(D[2], e[..., 2], out=t2)
            _add_product(t2, t, D[3], e[..., 3])
            t2 *= rhoN2
            P += t2
            for k, l in ((0, 0), (0, 1), (1, 1)):
                vk, vl = v[k], v[l]
                np.multiply(vk[..., i], vl[..., j], out=t2)
                if i != j:
                    _add_product(t2, t, vk[..., j], vl[..., i])
                if (i, j) == (0, 0):
                    np.multiply(t2, P, out=A[..., alpha, k, l])
                else:
                    _add_product(A[..., alpha, k, l], t, t2, P)
    del D, P
    A[..., 1, 0] = A[..., 0, 1]  # exact symmetry

    H = A[..., 0, 0] + A[..., 1, 1]  # (..., alpha)
    norm_H = _add_product(H[..., 0] * H[..., 0], t, H[..., 1], H[..., 1])
    np.sqrt(norm_H, out=norm_H)
    # np.sum's pairwise order over the 8 components of a point-major A,
    # written out: summing planes in another order moves the last bit
    def half_sq(alpha):       # (q0 + q1) + (q2 + q3) of one normal index
        q = [A[..., alpha, k, l] for k in (0, 1) for l in (0, 1)]
        half = _add_product(q[0] * q[0], t, q[1], q[1])
        np.multiply(q[2], q[2], out=t2)
        half += _add_product(t2, t, q[3], q[3])
        return half
    norm_A_sq = half_sq(0)
    norm_A_sq += half_sq(1)

    sigma_perp = np.negative(A[..., 0, 0, 0])
    sigma_perp *= A[..., 1, 0, 1]
    _add_product(sigma_perp, t, A[..., 0, 0, 1], A[..., 1, 0, 0])
    _add_product(sigma_perp, t, A[..., 0, 0, 1], A[..., 1, 1, 1], subtract=True)
    _add_product(sigma_perp, t, A[..., 0, 1, 1], A[..., 1, 0, 1])
    del t, t2

    sigmaM = mapfield.source_samples.curvature
    sigmaN = mapfield.target_samples.curvature
    rt = ambient_curvature(frame[..., 0, :], frame[..., 1, :],
                           frame[..., 2, :], frame[..., 3, :],
                           rhoM2, rhoN2, sigmaM, sigmaN)

    return GraphGrid(grid=grid, pw=pw, metric=mapfield.metric,
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
    E = _empty_planes(pw.lam.shape, (4, 4))

    def row(r, alpha, alpha_scale, beta, beta_scale):
        np.multiply(alpha, alpha_scale[..., None], out=E[..., r, 0:2])
        np.multiply(beta, beta_scale[..., None], out=E[..., r, 2:4])

    row(0, pw.alpha1, cl, pw.beta1, pw.lam * cl)
    row(1, pw.alpha2, cm, pw.beta2, pw.mu * cm)
    row(2, pw.alpha1, -pw.lam * cl, pw.beta1, cl)
    row(3, pw.alpha2, -sgn * pw.mu * cm, pw.beta2, sgn * cm)
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
    # the fluxes sq (g^i1 ux + g^i2 uy); Fy is built in ux and uy's planes
    Fx = _add_product(metric.gi11 * ux, np.empty_like(ux), metric.gi12, uy)
    Fx *= sq
    ux *= metric.gi12
    uy *= metric.gi22
    Fy = ux
    Fy += uy
    Fy *= sq
    del uy
    out = grid.d_x(Fx)
    del Fx
    out += grid.d_y(Fy)
    out /= sq
    return out


def gradient_norm_sq_array(u: np.ndarray, metric: InducedMetric,
                           grid: GridChart) -> np.ndarray:
    """|grad u|^2 = g^(ij) d_i u d_j u with central differences."""
    ux = grid.d_x(u)
    uy = grid.d_y(u)
    out = metric.gi11 * ux
    out *= ux
    t = np.empty_like(ux)
    _add_product(out, t, 2.0, metric.gi12, ux, uy)
    return _add_product(out, t, metric.gi22, uy, uy)


# ---------------------------------------------------------- frame forms

def form_on_frame(gg: GraphGrid, which: int, a: int, b: int) -> np.ndarray:
    """omega_which(e_a, e_b) over the grid, frame indices in 1..4."""
    X = gg.frame[..., a - 1, :]
    Y = gg.frame[..., b - 1, :]
    return pullback_form(which, X, Y, gg.rhoM2, gg.rhoN2)

