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

`GraphGrid` keeps the planes the identities read: A, |H|, |A|^2, sigma_perp
and the factor samples. It stores no frame: `frame_rows` builds a row
block's frame rows from that block's pointwise data where they are read,
and keeps the last block built. H is the trace of A, summed on each read;
R(e1, e2, e3, e4), max |H| and the identities' one Laplacian pair (Delta u1,
Delta u2) are computed on first read and kept. The metric is the field's
(`MapField.metric`, g and det g only): g^-1 and sqrt(det g) are formed per
row block where read.

Each pointwise sum of the graph pass, of the scalar operators and of the
identities (`verifier`) is one numpy expression in the operation order of
its formula, evaluated over blocks of grid rows (`_row_blocks`): its
temporaries are block-sized however long it is, and its bits do not
depend on the block. Stencils run on whole planes, or on a block and a
halo row on each side (`_rows_stencil`) where a block's sum reads them.

The ambient curvature operator of the product of constant-curvature factors
uses the sign convention R(X, Y, Z, W) = sigma * (<X,Z><Y,W> - <X,W><Y,Z>)
applied factor-wise, which makes R(e1, e2, e1, e2) the sectional curvature.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import stencils
from .pointwise import (InducedMetric, MapField, PointwiseGrid, _empty_planes,
                        _orientation)
from .surface import GridChart

__all__ = [
    "GraphGrid", "graph_grid",
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


# ---------------------------------------------------------------- grid pass

@dataclass(frozen=True)
class GraphGrid:
    """Graph geometry fields over a grid (NaN where stencils do not reach)."""

    grid: GridChart
    pw: PointwiseGrid
    metric: InducedMetric
    A: np.ndarray            # (nx, ny, 2, 2, 2): A[..., alpha, i, j]
    norm_H: np.ndarray
    norm_A_sq: np.ndarray
    sigma_perp: np.ndarray
    sigmaM: np.ndarray       # source curvature at grid points
    sigmaN: np.ndarray       # target curvature at image points
    rhoM2: np.ndarray
    rhoN2: np.ndarray
    _last_rows: list = field(default_factory=lambda: [None, None],
                             init=False, repr=False, compare=False)

    @property
    def H(self) -> np.ndarray:
        """(nx, ny, 2): (H^3, H^4), the trace of A."""
        return self.A[..., 0, 0] + self.A[..., 1, 1]

    def frame_rows(self, rows: slice) -> np.ndarray:
        """(rows, ny, 4, 4), frame[..., a, :] = e_{a+1}, from the pointwise
        data of those rows (`slice(None)`: the whole grid); the last block
        built is kept in _last_rows, so the readers of a block build it once."""
        last = self._last_rows
        if last[0] != rows:
            pw = self.pw
            last[:] = rows, _adapted_frame_arrays(PointwiseGrid(
                pw.grid, *(getattr(pw, f.name)[rows] for f in fields(pw)[1:])))
        return last[1]

    @cached_property
    def rtilde_1234(self) -> np.ndarray:
        out = np.empty(self.norm_H.shape)
        for b in _row_blocks(out.shape):
            E = self.frame_rows(b)
            out[b] = ambient_curvature(E[..., 0, :], E[..., 1, :], E[..., 2, :],
                                       E[..., 3, :], self.rhoM2[b], self.rhoN2[b],
                                       self.sigmaM[b], self.sigmaN[b])
        return out

    @cached_property
    def max_norm_H(self) -> float:
        return stencils.finite_abs_max(self.norm_H)

    @cached_property
    def laplacians(self) -> tuple[np.ndarray, np.ndarray]:
        """(Delta u1, Delta u2): every Laplacian the identities and probe read."""
        return tuple(laplace_beltrami_array(u, self.metric, self.grid)
                     for u in (self.pw.u1, self.pw.u2))


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


def _rows_stencil(d, f: np.ndarray, rows: slice) -> np.ndarray:
    """d(f)[rows], the grid stencil d run on the rows and a halo row each side."""
    lo = max(rows.start - 1, 0)
    return d(f[lo:rows.stop + 1])[rows.start - lo:rows.stop - lo]


def graph_grid(mapfield: MapField) -> GraphGrid:
    """Assemble the full graph geometry of a map over its grid, one row
    block at a time."""
    pw = mapfield.pointwise
    shape = pw.lam.shape
    gg = GraphGrid(grid=mapfield.grid, pw=pw, metric=mapfield.metric,
                   A=_empty_planes(shape, (2, 2, 2)), norm_H=np.empty(shape),
                   norm_A_sq=np.empty(shape), sigma_perp=np.empty(shape),
                   sigmaM=mapfield.source_samples.curvature,
                   sigmaN=mapfield.target_samples.curvature,
                   rhoM2=mapfield.source_samples.rho2,
                   rhoN2=mapfield.target_samples.rho2)
    for b in _row_blocks(shape):
        E, Ab = gg.frame_rows(b), gg.A[b]
        # Gamma_M(e_i, e_j) of the coordinate pairs: (s, m) = (1, 0), (0, 1),
        # (-1, 0) in `_add_christoffel`
        for (i, j), d2, gammaM in (
                ((0, 0), gg.grid.d_xx, lambda ux, uy: (ux, -uy)),
                ((0, 1), gg.grid.d_xy, lambda ux, uy: (uy, ux)),
                ((1, 1), gg.grid.d_yy, lambda ux, uy: (-ux, uy))):
            P = _normal_projections(mapfield, E, b, i, j, d2, gammaM)
            _add_second_fundamental_form(Ab, E, i, j, P)
        Ab[..., 1, 0] = Ab[..., 0, 1]  # exact symmetry
        H3, H4 = (Ab[..., a, 0, 0] + Ab[..., a, 1, 1] for a in (0, 1))
        gg.norm_H[b] = np.sqrt(H3 * H3 + H4 * H4)
        # np.sum's pairwise order over the 8 components of a point-major A,
        # written out: summing planes in another order moves the last bit
        def q(a, k, l):
            return Ab[..., a, k, l] * Ab[..., a, k, l]
        gg.norm_A_sq[b] = (((q(0, 0, 0) + q(0, 0, 1)) + (q(0, 1, 0) + q(0, 1, 1)))
                           + ((q(1, 0, 0) + q(1, 0, 1)) + (q(1, 1, 0) + q(1, 1, 1))))
        gg.sigma_perp[b] = (-Ab[..., 0, 0, 0] * Ab[..., 1, 0, 1]
                            + Ab[..., 0, 0, 1] * Ab[..., 1, 0, 0]
                            - Ab[..., 0, 0, 1] * Ab[..., 1, 1, 1]
                            + Ab[..., 0, 1, 1] * Ab[..., 1, 0, 1])
    return gg


def _normal_projections(mapfield: MapField, E: np.ndarray, b: slice, i, j,
                        d2, gammaM) -> tuple[np.ndarray, np.ndarray]:
    """(P^0_ij, P^1_ij) over the rows b with frame rows E, P^alpha_ij =
    <D_ij, e_{alpha+3}>: the normal projections of the ambient Hessian D_ij
    of the embedding for the slot pair (i, j). D_ij has source components
    Gamma_M(e_i, e_j) and target components d_ij f + Gamma_N(f_i, f_j)."""
    rM, rN = mapfield.source_samples.rho2[b], mapfield.target_samples.rho2[b]
    uMx, uMy = (u[b] for u in mapfield.source_samples.log_rho_grad)
    uNx, uNy = (u[b] for u in mapfield.target_samples.log_rho_grad)
    fb = mapfield.pointwise.df[b]
    D2, D3 = (_rows_stencil(d2, mapfield.values[..., c], b) for c in (0, 1))
    D2, D3 = _add_christoffel(D2, D3, fb[..., :, i], fb[..., :, j], uNx, uNy)
    D = (*gammaM(uMx, uMy), D2, D3)
    return tuple(rM * (D[0] * e[..., 0] + D[1] * e[..., 1])
                 + rN * (D[2] * e[..., 2] + D[3] * e[..., 3])
                 for e in (E[..., 2, :], E[..., 3, :]))


def _add_christoffel(h1, h2, a, b, ux, uy):
    """(h1, h2) + Gamma(a, b) of a conformal factor with u = log rho:
    Gamma(a, b) = (ux s + uy m, -uy s + ux m), s = a1 b1 - a2 b2,
    m = a1 b2 + a2 b1, added term by term."""
    a1, a2, b1, b2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    s = a1 * b1 - a2 * b2
    m = a1 * b2 + a2 * b1
    return h1 + ux * s + uy * m, h2 - uy * s + ux * m


def _add_second_fundamental_form(A, E, i, j, P) -> None:
    """Add the slot pair (i, j)'s terms, from its normal projections P[alpha]
    and the frame E, to A^alpha_kl = A[..., alpha, k, l], k <= l (the pair
    (0, 0) writes it). A^alpha_kl sums, over the pairs in the order (0, 0),
    (0, 1), (1, 1), P^alpha_ij times its coefficient in orthonormal tangent
    indices, through v_k = (alpha1 cl, alpha2 cm), the source rows of e1
    and e2: vk_i vl_j (+ vk_j vl_i when i != j)."""
    v = (E[..., 0, 0:2], E[..., 1, 0:2])
    for k, l in ((0, 0), (0, 1), (1, 1)):
        vk, vl = v[k], v[l]
        c = vk[..., i] * vl[..., j]
        if i != j:
            c = c + vk[..., j] * vl[..., i]
        for alpha in (0, 1):
            t = c * P[alpha]
            A[..., alpha, k, l] = t if (i, j) == (0, 0) else A[..., alpha, k, l] + t


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
    out = np.empty_like(u)           # first: it lies below its temporaries
    Fx, Fy = grid.d_x(u), grid.d_y(u)
    for b in _row_blocks(u.shape):   # the fluxes replace d_x u and d_y u
        (g11, g12, g22), sq = metric.inverse(b), np.sqrt(metric.det[b])
        ux, uy = Fx[b], Fy[b]
        Fx[b], Fy[b] = sq * (g11 * ux + g12 * uy), sq * (g12 * ux + g22 * uy)
    np.add(grid.d_x(Fx), grid.d_y(Fy), out=out)
    for b in _row_blocks(u.shape):
        out[b] /= np.sqrt(metric.det[b])
    return out


def gradient_norm_sq_array(u: np.ndarray, metric: InducedMetric,
                           grid: GridChart) -> np.ndarray:
    """|grad u|^2 = g^(ij) d_i u d_j u with central differences."""
    ux, uy = grid.d_x(u), grid.d_y(u)
    out = np.empty_like(u)
    for b in _row_blocks(u.shape):
        (g11, g12, g22), x, y = metric.inverse(b), ux[b], uy[b]
        out[b] = g11 * x * x + 2.0 * g12 * x * y + g22 * y * y
    return out


# ---------------------------------------------------------- frame forms

def form_on_frame(gg: GraphGrid, which: int, a: int, b: int,
                  rows: slice = slice(None)) -> np.ndarray:
    """omega_which(e_a, e_b) over a row block (default: the whole grid), from
    `frame_rows`, frame indices in 1..4."""
    E = gg.frame_rows(rows)
    return pullback_form(which, E[..., a - 1, :], E[..., b - 1, :],
                         gg.rhoM2[rows], gg.rhoN2[rows])
