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

`GraphGrid` keeps the planes the identities read: the frame, A, |H|, |A|^2,
sigma_perp and the factor samples. H is the trace of A, summed on each
read; R(e1, e2, e3, e4) and max |H| are computed on first read and kept.

Each pointwise sum of the graph pass, of the scalar operators and of the
identities (`verifier`) is one numpy expression in the operation order of
its formula, evaluated over blocks of grid rows (`_row_blocks`): its
temporaries are block-sized however long it is, and its bits do not
depend on the block. Stencils run on whole planes.

The ambient curvature operator of the product of constant-curvature factors
uses the sign convention R(X, Y, Z, W) = sigma * (<X,Z><Y,W> - <X,W><Y,Z>)
applied factor-wise, which makes R(e1, e2, e1, e2) the sectional curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import stencils
from .pointwise import MapField, PointwiseGrid, _empty_planes, _orientation
from .surface import GridChart

__all__ = [
    "GraphGrid", "InducedMetric", "graph_grid", "pullback_products",
    "induced_metric_arrays",
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
    return (rhoM2 if which == 1 else rhoN2) * (X[..., a] * Y[..., b]
                                               - X[..., b] * Y[..., a])


@dataclass(frozen=True)
class InducedMetric:
    """The graph's induced metric g = rhoM^2 I + rhoN^2 df^T df by components."""

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


def pullback_products(f1x, f1y, f2x, f2y):
    """(p11, p12, p22) of df^T df, from the four components of df
    (f1x = d f^1 / dx, ...)."""
    p11 = f1x * f1x + f2x * f2x
    p12 = f1x * f1y + f2x * f2y
    p22 = f1y * f1y + f2y * f2y
    return p11, p12, p22


def induced_metric_arrays(p11, p12, p22, rhoM2, rhoN2) -> InducedMetric:
    """Induced metric of the graph, its inverse and determinant, from df^T df
    (`pullback_products`) and the squared factors."""
    g11 = rhoM2 + rhoN2 * p11
    g12 = rhoN2 * p12
    g22 = rhoM2 + rhoN2 * p22
    det = g11 * g22 - g12 * g12
    return InducedMetric(g11, g12, g22, det)


# ---------------------------------------------------------------- grid pass

@dataclass(frozen=True)
class GraphGrid:
    """Graph geometry fields over a grid (NaN where stencils do not reach)."""

    grid: GridChart
    pw: PointwiseGrid
    metric: InducedMetric
    frame: np.ndarray        # (nx, ny, 4, 4); frame[..., a, :] = e_{a+1}
    A: np.ndarray            # (nx, ny, 2, 2, 2): A[..., alpha, i, j]
    norm_H: np.ndarray
    norm_A_sq: np.ndarray
    sigma_perp: np.ndarray
    sigmaM: np.ndarray       # source curvature at grid points
    sigmaN: np.ndarray       # target curvature at image points
    rhoM2: np.ndarray
    rhoN2: np.ndarray

    @property
    def H(self) -> np.ndarray:
        """(nx, ny, 2): (H^3, H^4), the trace of A."""
        return self.A[..., 0, 0] + self.A[..., 1, 1]

    @cached_property
    def rtilde_1234(self) -> np.ndarray:
        E = self.frame
        return ambient_curvature(E[..., 0, :], E[..., 1, :], E[..., 2, :],
                                 E[..., 3, :], self.rhoM2, self.rhoN2,
                                 self.sigmaM, self.sigmaN)

    @cached_property
    def max_norm_H(self) -> float:
        return stencils.finite_abs_max(self.norm_H)


# Grid points in one row block (see the module docstring): every grid up to
# 65 x 65 is a single block.
BLOCK_POINTS = 65 * 65


def _row_blocks(shape: tuple) -> list[slice]:
    """Slices of the rows of a (rows, cols, ...) grid field: the fewest
    blocks of at most BLOCK_POINTS points (and at least one row), split
    evenly."""
    rows = shape[0]
    k = min(rows, -(-rows * shape[1] // BLOCK_POINTS))
    return [slice(rows * i // k, rows * (i + 1) // k) for i in range(k)]


def graph_grid(mapfield: MapField) -> GraphGrid:
    """Assemble the full graph geometry of a map over its grid, one row
    block at a time."""
    pw = mapfield.pointwise
    shape = pw.lam.shape
    A = _empty_planes(shape, (2, 2, 2))
    norm_H, norm_A_sq, sigma_perp = (np.empty(shape) for _ in range(3))
    frame = _adapted_frame_arrays(pw)
    blocks = _row_blocks(shape)
    grid = mapfield.grid
    # Gamma_M(e_i, e_j) of the coordinate pairs: (s, m) = (1, 0), (0, 1),
    # (-1, 0) in `_add_christoffel`
    P = {(i, j): _normal_projections(mapfield, frame, blocks, i, j, d2, gammaM)
         for (i, j), d2, gammaM in (
             ((0, 0), grid.d_xx, lambda ux, uy: (ux, -uy)),
             ((0, 1), grid.d_xy, lambda ux, uy: (uy, ux)),
             ((1, 1), grid.d_yy, lambda ux, uy: (-ux, uy)))}
    for b in blocks:
        Ab = A[b]
        _second_fundamental_form(Ab, frame[b], {ij: (p[0][b], p[1][b])
                                                for ij, p in P.items()})
        H3, H4 = (Ab[..., a, 0, 0] + Ab[..., a, 1, 1] for a in (0, 1))
        norm_H[b] = np.sqrt(H3 * H3 + H4 * H4)
        # np.sum's pairwise order over the 8 components of a point-major A,
        # written out: summing planes in another order moves the last bit
        def q(a, k, l):
            return Ab[..., a, k, l] * Ab[..., a, k, l]
        norm_A_sq[b] = (((q(0, 0, 0) + q(0, 0, 1)) + (q(0, 1, 0) + q(0, 1, 1)))
                        + ((q(1, 0, 0) + q(1, 0, 1)) + (q(1, 1, 0) + q(1, 1, 1))))
        sigma_perp[b] = (-Ab[..., 0, 0, 0] * Ab[..., 1, 0, 1]
                         + Ab[..., 0, 0, 1] * Ab[..., 1, 0, 0]
                         - Ab[..., 0, 0, 1] * Ab[..., 1, 1, 1]
                         + Ab[..., 0, 1, 1] * Ab[..., 1, 0, 1])

    return GraphGrid(grid=grid, pw=pw, metric=mapfield.metric,
                     frame=frame, A=A, norm_H=norm_H, norm_A_sq=norm_A_sq,
                     sigma_perp=sigma_perp,
                     sigmaM=mapfield.source_samples.curvature,
                     sigmaN=mapfield.target_samples.curvature,
                     rhoM2=mapfield.source_samples.rho2,
                     rhoN2=mapfield.target_samples.rho2)


def _normal_projections(mapfield: MapField, frame: np.ndarray, blocks, i, j,
                        d2, gammaM) -> tuple[np.ndarray, np.ndarray]:
    """(P^0_ij, P^1_ij), P^alpha_ij = <D_ij, e_{alpha+3}>: the normal
    projections of the ambient Hessian D_ij of the embedding for the slot
    pair (i, j). D_ij has source components Gamma_M(e_i, e_j) and target
    components d_ij f + Gamma_N(f_i, f_j), which take Gamma_N in place of
    the stencil rows d_ij f."""
    rhoM2, rhoN2 = mapfield.source_samples.rho2, mapfield.target_samples.rho2
    uMx, uMy = mapfield.source_samples.log_rho_grad
    uNx, uNy = mapfield.target_samples.log_rho_grad
    df = mapfield.pointwise.df
    D2, D3 = (d2(mapfield.values[..., c]) for c in (0, 1))
    P = (np.empty(D2.shape), np.empty(D2.shape))
    for b in blocks:
        E, fb, rM, rN = frame[b], df[b], rhoM2[b], rhoN2[b]
        D2[b], D3[b] = _add_christoffel(D2[b], D3[b], fb[..., :, i],
                                        fb[..., :, j], uNx[b], uNy[b])
        D = (*gammaM(uMx[b], uMy[b]), D2[b], D3[b])
        for alpha in (0, 1):
            e = E[..., alpha + 2, :]
            P[alpha][b] = (rM * (D[0] * e[..., 0] + D[1] * e[..., 1])
                           + rN * (D[2] * e[..., 2] + D[3] * e[..., 3]))
    return P


def _add_christoffel(h1, h2, a, b, ux, uy):
    """(h1, h2) + Gamma(a, b) of a conformal factor with u = log rho:
    Gamma(a, b) = (ux s + uy m, -uy s + ux m), s = a1 b1 - a2 b2,
    m = a1 b2 + a2 b1, added term by term."""
    a1, a2, b1, b2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    s = a1 * b1 - a2 * b2
    m = a1 * b2 + a2 * b1
    return h1 + ux * s + uy * m, h2 - uy * s + ux * m


def _second_fundamental_form(A: np.ndarray, E: np.ndarray, P: dict) -> None:
    """Write A^alpha_kl = A[..., alpha, k, l] from the normal projections
    P[i, j][alpha] and the frame E.

    A^alpha_kl sums, over the slot pairs (i, j), P^alpha_ij times its
    coefficient in orthonormal tangent indices, through v_k = (alpha1 cl,
    alpha2 cm), the source rows of e1 and e2: vk_i vl_j (+ vk_j vl_i when
    i != j).
    """
    v = (E[..., 0, 0:2], E[..., 1, 0:2])
    for k, l in ((0, 0), (0, 1), (1, 1)):
        vk, vl = v[k], v[l]
        c00 = vk[..., 0] * vl[..., 0]
        c01 = vk[..., 0] * vl[..., 1] + vk[..., 1] * vl[..., 0]
        c11 = vk[..., 1] * vl[..., 1]
        for alpha in (0, 1):
            A[..., alpha, k, l] = (c00 * P[0, 0][alpha] + c01 * P[0, 1][alpha]
                                   + c11 * P[1, 1][alpha])
    A[..., 1, 0] = A[..., 0, 1]  # exact symmetry


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
    sgn = _orientation(pw.s)
    E = _empty_planes(pw.lam.shape, (4, 4))

    def row(r, alpha, alpha_scale, beta, beta_scale):
        np.multiply(alpha, alpha_scale[..., None], out=E[..., r, 0:2])
        np.multiply(beta, beta_scale[..., None], out=E[..., r, 2:4])

    alpha1, beta1 = pw.alpha1, pw.beta1
    row(0, alpha1, cl, beta1, pw.lam * cl)
    row(1, pw.alpha2, cm, pw.beta2, pw.mu * cm)
    row(2, alpha1, -pw.lam * cl, beta1, cl)
    row(3, pw.alpha2, -sgn * pw.mu * cm, pw.beta2, sgn * cm)
    return E


# --------------------------------------------------------- scalar operators

def laplace_beltrami_array(u: np.ndarray, metric: InducedMetric,
                           grid: GridChart) -> np.ndarray:
    """Divergence-form Laplace-Beltrami by nested central differences.

    Delta u = det(g)^(-1/2) d_i( det(g)^(1/2) g^(ij) d_j u ). Each nesting
    level costs one ring of validity on Dirichlet grids.
    """
    sq, g11, g12, g22 = metric.sqrt_det, metric.gi11, metric.gi12, metric.gi22
    Fx, Fy = grid.d_x(u), grid.d_y(u)
    for b in _row_blocks(u.shape):   # the fluxes replace d_x u and d_y u
        ux, uy = Fx[b], Fy[b]
        Fx[b], Fy[b] = (sq[b] * (g11[b] * ux + g12[b] * uy),
                        sq[b] * (g12[b] * ux + g22[b] * uy))
    return (grid.d_x(Fx) + grid.d_y(Fy)) / sq


def gradient_norm_sq_array(u: np.ndarray, metric: InducedMetric,
                           grid: GridChart) -> np.ndarray:
    """|grad u|^2 = g^(ij) d_i u d_j u with central differences."""
    ux, uy = grid.d_x(u), grid.d_y(u)
    out = np.empty_like(u)
    for b in _row_blocks(u.shape):
        x, y = ux[b], uy[b]
        out[b] = (metric.gi11[b] * x * x + 2.0 * metric.gi12[b] * x * y
                  + metric.gi22[b] * y * y)
    return out


# ---------------------------------------------------------- frame forms

def form_on_frame(gg: GraphGrid, which: int, a: int, b: int,
                  rows: slice = slice(None)) -> np.ndarray:
    """omega_which(e_a, e_b) over the grid (or over a block of its rows),
    frame indices in 1..4."""
    E = gg.frame[rows]
    return pullback_form(which, E[..., a - 1, :], E[..., b - 1, :],
                         gg.rhoM2[rows], gg.rhoN2[rows])

