"""Tensor-metric reference for the conformal kernel.

The package represents each metric by its squared conformal factor rho^2.
This module keeps the general route it replaced, as a test oracle: singular
data relative to (..., 2, 2) metric tensors g_M, g_N through g_M^(-1/2)
and the eigensystem of the pullback (the package takes them in closed form
from the conformal and anticonformal parts of df), and the second fundamental form and ambient curvature term of the graph
through einsum contractions with the metric and Christoffel tensors.
"""

from types import SimpleNamespace

import numpy as np

from minmaps.errors import NumericalError
from minmaps.graph_geometry import _adapted_frame_arrays, ambient_curvature

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


def det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def inv2(m: np.ndarray) -> np.ndarray:
    d = det2(m)
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out / d[..., None, None]


def check_spd2(g: np.ndarray, what: str = "metric") -> None:
    d = det2(g)
    tr = g[..., 0, 0] + g[..., 1, 1]
    ok = np.isfinite(d)
    if np.any((d[ok] <= 0) | (tr[ok] <= 0)):
        raise NumericalError(f"{what} is not symmetric positive definite")


def spd_inv_sqrt2(g: np.ndarray) -> np.ndarray:
    """g^(-1/2) for SPD g via the closed form g^(1/2) = (g + sqrt(det) I) / t."""
    check_spd2(g)
    s = np.sqrt(det2(g))
    t = np.sqrt(g[..., 0, 0] + g[..., 1, 1] + 2.0 * s)
    root = g.copy()
    root[..., 0, 0] += s
    root[..., 1, 1] += s
    return inv2(root / t[..., None, None])


def apply2(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product over leading axes: (..., 2, 2) x (..., 2)."""
    return np.einsum("...ij,...j->...i", m, v)


def inner(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Metric pairing g(u, v) over leading axes."""
    return np.einsum("...i,...ij,...j->...", u, g, v)


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
    v_hi = np.stack([vx, vy], axis=-1)
    v_lo = np.stack([vy, -vx], axis=-1)  # rot(-90): det[v_lo | v_hi] = +1
    return lo, hi, v_lo, v_hi


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


def tensor_graph(mapfield):
    """Singular data, frame, A and R(e1, e2, e3, e4) by the tensor route."""
    grid = mapfield.grid
    X, Y = grid.mesh()
    f1, f2 = mapfield.values[..., 0], mapfield.values[..., 1]
    gM = mapfield.source.metric_tensor(X, Y)
    gN = mapfield.target.metric_tensor(f1, f2)
    df = mapfield.df_field
    with np.errstate(invalid="ignore", divide="ignore"):
        lam, mu, s, a1, a2, b1, b2 = singular_decomposition(df, gM, gN)
    out = SimpleNamespace(lam=lam, mu=mu, s=s, alpha1=a1, alpha2=a2,
                          beta1=b1, beta2=b2)
    frame = _adapted_frame_arrays(out)

    GammaM = mapfield.source.christoffel_tensor(X, Y)
    GammaN = mapfield.target.christoffel_tensor(f1, f2)
    d2f = np.empty((grid.nx, grid.ny, 2, 2, 2))  # [..., gamma, i, j]
    for c in range(2):
        fc = mapfield.values[..., c]
        d2f[..., c, 0, 0] = grid.d_xx(fc)
        d2f[..., c, 1, 1] = grid.d_yy(fc)
        cross = grid.d_xy(fc)
        d2f[..., c, 0, 1] = cross
        d2f[..., c, 1, 0] = cross
    DN = d2f + np.einsum("...gab,...ai,...bj->...gij", GammaN, df, df)
    D = np.empty((grid.nx, grid.ny, 2, 2, 4))  # [..., i, j, component]
    D[..., 0:2] = np.moveaxis(GammaM, -3, -1)
    D[..., 2:4] = np.moveaxis(DN, -3, -1)

    def project(e):
        m = np.einsum("...ijc,...cd,...d->...ij", D[..., 0:2], gM, e[..., 0:2])
        n = np.einsum("...ijc,...cd,...d->...ij", D[..., 2:4], gN, e[..., 2:4])
        return m + n

    Acoord = np.stack([project(frame[..., 2, :]), project(frame[..., 3, :])], axis=-3)
    cl = 1.0 / np.sqrt(1.0 + lam ** 2)
    cm = 1.0 / np.sqrt(1.0 + mu ** 2)
    v = np.stack([a1 * cl[..., None], a2 * cm[..., None]], axis=-2)
    A = np.einsum("...ki,...lj,...aij->...akl", v, v, Acoord)

    def gm(u, w):
        return np.einsum("...i,...ij,...j->...", u[..., :2], gM, w[..., :2])

    def gn(u, w):
        return np.einsum("...i,...ij,...j->...", u[..., 2:], gN, w[..., 2:])

    e1, e2, e3, e4 = (frame[..., k, :] for k in range(4))
    rt = (mapfield.source.curvature(X, Y) * (gm(e1, e3) * gm(e2, e4) - gm(e1, e4) * gm(e2, e3))
          + mapfield.target.curvature(f1, f2)
          * (gn(e1, e3) * gn(e2, e4) - gn(e1, e4) * gn(e2, e3)))
    out.frame, out.A, out.rtilde_1234 = frame, A, rt
    return out


def stored_planes(pw, gg):
    """alpha1, beta1, H and R(e1, e2, e3, e4) written out plane by plane, a
    reference for the planes the passes derive on read: alpha1 is alpha2
    turned by -90 degrees, beta1 is beta2 turned and times sign(det df)
    (+1 where det df is 0 or NaN), H is the trace of A, and R is the
    ambient curvature on the frame rows."""
    alpha1, beta1 = np.empty(pw.alpha2.shape), np.empty(pw.beta2.shape)
    sgn = np.where(pw.s < 0, -1.0, 1.0)
    alpha1[..., 0] = pw.alpha2[..., 1]
    alpha1[..., 1] = -pw.alpha2[..., 0]
    beta1[..., 0] = sgn * pw.beta2[..., 1]
    beta1[..., 1] = -sgn * pw.beta2[..., 0]
    H = gg.A[..., 0, 0] + gg.A[..., 1, 1]
    E = gg.frame_rows(slice(None))
    rt = ambient_curvature(E[..., 0, :], E[..., 1, :], E[..., 2, :], E[..., 3, :],
                           gg.rhoM2, gg.rhoN2, gg.sigmaM, gg.sigmaN)
    return alpha1, beta1, H, rt
