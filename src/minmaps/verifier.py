"""Residual checks for the structure equations of minimal graphs.

Each verify_* function evaluates one identity that holds exactly for a
minimal map and returns the discrete residual field. Residuals combine an
FD evaluation of a derivative (one side) with frame and curvature algebra
(the other side); on smooth minimal fixtures they contract at second order
under grid refinement, and on maps with closed-form singular data the
algebraic side is exact so the residual isolates pure stencil error.

Laplacians follow the sign convention Delta = div grad, so the identities
are stated for -Delta (nonnegative on concave-down bumps).

The stencils live in the pullback and Jacobian identities and in the
gradient halves of the angle identities. The other Laplacian identities
read the graph's pair (Delta u1, Delta u2), so they are the Jacobian
identity plus algebra: the form gap checks the frame, A, R and sigma_perp
against each other.

Angle-equation residuals are masked where 1 - phi^2 (resp. 1 - theta^2)
drops below a floor: at complex or anti-complex points both sides vanish
identically and the quotient geometry degenerates, so the residual there
is pure cancellation noise.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import stencils
from .errors import ConfigError
from .graph_geometry import (
    GraphGrid, _row_blocks, _rows_stencil, ambient_curvature, form_on_frame,
    gradient_norm_sq_array,
)
from .pointwise import MapField, _empty_planes
from .surface import TheoremHypotheses

__all__ = [
    "ResidualReport", "ConvergenceStudy", "HypothesisCheck",
    "Certificate", "MinimumProbe", "ProbeStatus",
    "verify_pullback_derivative", "verify_form_laplacian",
    "verify_jacobian_laplacians", "verify_gradient_identities",
    "refinement_study", "check_ladder", "convergence_study", "check_hypotheses",
    "area_decreasing_certificate", "interior_minimum_probe", "MUTATIONS",
]

ANGLE_MASK_FLOOR = 1e-8
EXACT_FLOOR = 1e-12
MINIMALITY_FACTOR = 10.0

MUTATIONS = (None, "flip_sigma_perp", "swap_curvatures")


@dataclass(frozen=True)
class ResidualReport:
    """Residual fields of one identity and their norms. `evaluated` counts
    each component's finite points: a component with none has norms of 0.0
    that show nothing, and reads as empty through its count of 0."""

    components: dict[str, np.ndarray]
    evaluated: dict[str, int]
    norm_inf: float
    norm_l2: float
    h: float
    minimality_defect: float
    masked_points: int = 0
    mutation: Optional[str] = None

    @property
    def residual_field(self) -> np.ndarray:
        """Pointwise max of the components' |residual| (NaN where every
        component is NaN), built on each read."""
        return _nan_pointwise_max(list(self.components.values()))


def _nan_pointwise_max(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Pointwise max of |a| over the arrays, skipping NaN; NaN where every
    array is NaN."""
    out = np.empty_like(arrays[0])
    for b in _row_blocks(out.shape):
        out[b] = functools.reduce(np.fmax, (np.abs(a[b]) for a in arrays))
    return out


def _make_report(gg: GraphGrid, components: dict[str, np.ndarray],
                 masked_points: int = 0,
                 mutation: Optional[str] = None) -> ResidualReport:
    grid = gg.grid
    defect = gg.max_norm_H
    if defect > MINIMALITY_FACTOR * grid.h ** 2 and mutation is None:
        warnings.warn(
            f"map is not numerically minimal (max |H| = {defect:.3e} exceeds "
            f"{MINIMALITY_FACTOR:g} h^2 = {MINIMALITY_FACTOR * grid.h ** 2:.3e}); "
            "the identity residuals will not contract",
            RuntimeWarning, stacklevel=3)
    residual = _nan_pointwise_max(list(components.values()))
    return ResidualReport(
        components=components,
        evaluated={name: int(np.isfinite(c).sum()) for name, c in components.items()},
        norm_inf=stencils.finite_abs_max(residual),
        norm_l2=stencils.finite_l2(residual, grid.cell_area),
        h=grid.h,
        minimality_defect=defect,
        masked_points=masked_points,
        mutation=mutation,
    )


# ------------------------------------------------------------ the identities
#
# Each sum is one expression in the operation order of the formula in its
# docstring, over blocks of grid rows (`_row_blocks`). A sum of terms starts
# as 0.0 + ..., so a first term of -0.0 sums to +0.0. Each residual is
# written over the operator plane it starts from, the pullback's into one
# component-major field; no cached plane of the field is written.

def verify_pullback_derivative(mapfield: MapField) -> ResidualReport:
    """First-order identity: frame derivatives of the two Jacobian functions.

    For each parallel factor form, e_k(omega(e1, e2)) expands through the
    second fundamental form because the tangential connection terms cancel
    in the antisymmetric pairing:

        e_k(u) = sum_alpha A^alpha_k1 omega(e_alpha, e2)
                         + A^alpha_k2 omega(e1, e_alpha)
    """
    gg = mapfield.graph
    grid = mapfield.grid
    res = _empty_planes(gg.pw.u1.shape, (2, 2))   # res[..., idx - 1, k - 1]
    for b in _row_blocks(res.shape):    # both forms read a block's frame
        for idx, u in ((1, gg.pw.u1), (2, gg.pw.u2)):
            res[b][..., idx - 1, 0], res[b][..., idx - 1, 1] = _pullback_residuals(
                gg, idx, b, *(_rows_stencil(d, u, b) for d in (grid.d_x, grid.d_y)))
    return _make_report(gg, {f"u{idx}_e{k}": res[..., idx - 1, k - 1]
                             for idx in (1, 2) for k in (1, 2)})


def _pullback_residuals(gg: GraphGrid, idx: int, b: slice,
                        ux: np.ndarray, uy: np.ndarray) -> list[np.ndarray]:
    """e_k(u) minus its expansion, k = 1, 2, over the rows b, from the chart
    derivatives of u (E[..., k, 0:2] is the chart shadow of e_{k+1})."""
    E, A = gg.frame_rows(b), gg.A[b]
    # each form is read by both frame derivatives
    w = {pair: form_on_frame(gg, idx, *pair, b)
         for a in (3, 4) for pair in ((a, 2), (1, a))}
    return [E[..., k, 0] * ux + E[..., k, 1] * uy
            - (0.0 + A[..., 0, k, 0] * w[3, 2] + A[..., 0, k, 1] * w[1, 3]
               + A[..., 1, k, 0] * w[4, 2] + A[..., 1, k, 1] * w[1, 4])
            for k in (0, 1)]


def verify_form_laplacian(mapfield: MapField) -> ResidualReport:
    """Second-order identity: the rough Laplacian of each pulled-back form.

    Evaluated on the frame pair (e1, e2), where omega(e1, e2) is the
    Jacobian function u:

        -Delta u = S1 + S2 + S3
        S1 = sum_{alpha,k,l} A^alpha_k1 A^alpha_kl omega(e_l, e2)
                           + A^alpha_k2 A^alpha_kl omega(e1, e_l)
        S2 = -2 sum_{alpha,beta,k} A^alpha_k1 A^beta_k2 omega(e_alpha, e_beta)
        S3 = sum_{alpha,k} R(e_k, e1, e_k, e_alpha) omega(e_alpha, e2)
                         + R(e_k, e2, e_k, e_alpha) omega(e1, e_alpha)

    A form vanishes on a repeated vector and R(e_k, e_i, e_k, e_alpha) for
    k == i, so the terms that read omega(e1, e1), omega(e2, e2),
    omega(e_alpha, e_alpha) or such an R are zero and are not summed (S1 is
    |A|^2 u). That keeps every bit: a sum that starts at 0.0 never reaches
    -0.0, so a zero term leaves it as it is, and a NaN in a dropped term
    reaches the sum through a kept one.

    Delta u is the Jacobian identity's (`GraphGrid.laplacians`), so this
    residual is that one plus algebra and checks no stencil of its own.
    """
    gg = mapfield.graph
    res = [np.empty_like(lap) for lap in gg.laplacians]
    for b in _row_blocks(res[0].shape):
        E = gg.frame_rows(b)
        # S3 of both forms reads R(e1, e2, e1, e_alpha), R(e2, e1, e2, e_alpha)
        R = {(k, a): ambient_curvature(E[..., k, :], E[..., 1 - k, :],
                                       E[..., k, :], E[..., a - 1, :],
                                       gg.rhoM2[b], gg.rhoN2[b],
                                       gg.sigmaM[b], gg.sigmaN[b])
             for a in (3, 4) for k in (0, 1)}
        for idx, lap, r in zip((1, 2), gg.laplacians, res):
            r[b] = -lap[b] - _form_laplacian_rhs(gg, idx, b, R)
    return _make_report(gg, {"omega1": res[0], "omega2": res[1]})


def _form_laplacian_rhs(gg: GraphGrid, idx: int, b: slice,
                        R: dict) -> np.ndarray:
    """S1 + S2 + S3 of form idx over the rows b, from R(e_k, e_i, e_k,
    e_alpha) by (k, alpha)."""
    A = gg.A[b]

    def w(a, c):
        return form_on_frame(gg, idx, a, c, b)
    u = w(1, 2)
    S1 = sum((A[..., a, k, l] * A[..., a, k, l] * u
              for a in (0, 1) for k in (0, 1) for l in (0, 1)), 0.0)
    S2 = sum((-2.0 * A[..., a, k, 0] * A[..., c, k, 1] * w_ac
              for a, c, w_ac in ((0, 1, w(3, 4)), (1, 0, w(4, 3)))
              for k in (0, 1)), 0.0)
    S3 = sum((R[k, a] * w(*pair)
              for a in (3, 4) for k, pair in ((0, (1, a)), (1, (a, 2)))), 0.0)
    return S1 + S2 + S3


def verify_jacobian_laplacians(mapfield: MapField,
                               mutation: Optional[str] = None) -> ResidualReport:
    """Coupled elliptic system satisfied by the two Jacobian functions.

    -Delta u1 = |A|^2 u1 + 2 sigma_perp u2 + sigmaM (1 - u1^2 - u2^2) u1
                - 2 sigmaN u1 u2^2
    -Delta u2 = |A|^2 u2 + 2 sigma_perp u1 + sigmaN (1 - u1^2 - u2^2) u2
                - 2 sigmaM u1^2 u2

    A mutation deliberately corrupts one structural ingredient; the guard
    tests assert that the corrupted residual stops contracting.
    """
    gg = mapfield.graph
    pw = gg.pw
    nA2, sp = gg.norm_A_sq, gg.sigma_perp
    sM, sN = gg.sigmaM, gg.sigmaN
    if mutation == "flip_sigma_perp":
        sp = -sp
    elif mutation == "swap_curvatures":
        sM, sN = sN, sM
    elif mutation is not None:
        raise ConfigError(f"unknown mutation {mutation!r}")
    lap1, lap2 = gg.laplacians
    res1, res2 = np.empty_like(lap1), np.empty_like(lap2)
    for b in _row_blocks(res1.shape):
        u1, u2, A2, s, M, N = (a[b] for a in (pw.u1, pw.u2, nA2, sp, sM, sN))
        # the factors both formulas share
        s2, u1_2, u2_2 = 2.0 * s, u1 ** 2, u2 ** 2
        q = 1.0 - u1_2 - u2_2
        res1[b] = -lap1[b] - (A2 * u1 + s2 * u2 + M * q * u1
                              - 2.0 * N * u1 * u2_2)
        res2[b] = -lap2[b] - (A2 * u2 + s2 * u1 + N * q * u2
                              - 2.0 * M * u1_2 * u2)
    return _make_report(gg, {"u1": res1, "u2": res2}, mutation=mutation)


def verify_gradient_identities(mapfield: MapField) -> ResidualReport:
    """Gradient and Laplacian equations for the angle sums phi and theta.

        2 |grad phi|^2   = (|A|^2 - 2 sigma_perp)(1 - phi^2)
        2 |grad theta|^2 = (|A|^2 + 2 sigma_perp)(1 - theta^2)
        -Delta phi   = (|A|^2 - 2 sp) phi
                       + (sigmaM (phi + theta) + sigmaN (phi - theta))(1 - phi^2)/2
        -Delta theta = (|A|^2 + 2 sp) theta
                       + (sigmaM (phi + theta) - sigmaN (phi - theta))(1 - theta^2)/2

    The gradient halves carry their own stencils; the Laplacian halves read
    Delta phi = Delta u1 - Delta u2 and Delta theta = Delta u1 + Delta u2
    (`GraphGrid.laplacians`), the Jacobian identity's, plus algebra.
    """
    gg = mapfield.graph
    pw = gg.pw
    gp, gt = (gradient_norm_sq_array(u, gg.metric, mapfield.grid)
              for u in (pw.phi, pw.theta))
    lp, lt = np.empty_like(gp), np.empty_like(gt)
    masked = sum(_angle_residuals(gg, b, gp[b], gt[b], lp[b], lt[b])
                 for b in _row_blocks(pw.phi.shape))
    comps = {"grad_phi": gp, "lap_phi": lp, "grad_theta": gt, "lap_theta": lt}
    return _make_report(gg, comps, masked_points=masked)


def _angle_residuals(gg: GraphGrid, b: slice, gp: np.ndarray, gt: np.ndarray,
                     lp: np.ndarray, lt: np.ndarray) -> int:
    """Write the four residuals over the rows b, the gradient ones over their
    operator planes gp, gt (|grad u|^2), the Laplacian ones into lp, lt; NaN
    where 1 - u^2 is below the floor. Return how many finite points that masked."""
    pw = gg.pw
    p, t, A2, s, M, N, L1, L2 = (a[b] for a in (
        pw.phi, pw.theta, gg.norm_A_sq, gg.sigma_perp, gg.sigmaM, gg.sigmaN,
        *gg.laplacians))
    # the factors the four formulas share
    s2, qp, qt = 2.0 * s, 1.0 - p ** 2, 1.0 - t ** 2
    Ap, At, Ms, Nd = A2 - s2, A2 + s2, M * (p + t), N * (p - t)
    gp[...] = 2.0 * gp - Ap * qp
    gt[...] = 2.0 * gt - At * qt
    lp[...] = -(L1 - L2) - (Ap * p + 0.5 * (Ms + Nd) * qp)
    lt[...] = -(L1 + L2) - (At * t + 0.5 * (Ms - Nd) * qt)
    masked = 0
    for grad, lap, q, u in ((gp, lp, qp, p), (gt, lt, qt, t)):
        mask = q < ANGLE_MASK_FLOOR
        grad[mask] = lap[mask] = np.nan
        masked += int(np.count_nonzero(mask & np.isfinite(u)))
    return masked


# -------------------------------------------------------- refinement studies

@dataclass(frozen=True)
class ConvergenceStudy:
    hs: tuple[float, ...]
    norms: tuple[float, ...]
    orders: tuple[float, ...]
    estimated_order: float
    exact: bool

    @property
    def second_order(self) -> bool:
        """True when the residual contracts like h^2 (or sits at the floor)."""
        return self.exact or 1.5 <= self.estimated_order <= 2.5


def refinement_study(make_field: Callable[[int], MapField],
                     ns: Sequence[int],
                     quantity: Callable[[MapField], float],
                     *, floor: float = EXACT_FLOOR) -> ConvergenceStudy:
    """Measure the contraction order of a scalar diagnostic under refinement.

    make_field(n) must produce maps on grids whose spacing halves from one
    n to the next (e.g. 17, 33, 65 on a fixed Dirichlet chart); the orders
    come from `convergence_study`.
    """
    hs, norms = [], []
    for n in ns:
        mf = make_field(n)
        hs.append(mf.grid.h)
        norms.append(float(quantity(mf)))
    return convergence_study(hs, norms, floor=floor)


def check_ladder(hs: Sequence[float]) -> None:
    """Raise ConfigError unless the spacings hs are three or more and halve."""
    if len(hs) < 3:
        raise ConfigError("refinement study needs at least three grids")
    for h0, h1 in zip(hs, hs[1:]):
        if not 0.49 < h1 / h0 < 0.51:
            raise ConfigError(
                f"grid spacings must halve between studies (got {h0:g} -> {h1:g})")


def convergence_study(hs: Sequence[float], norms: Sequence[float],
                      *, floor: float = EXACT_FLOOR) -> ConvergenceStudy:
    """Contraction orders of norms measured on grids of spacings hs.

    The spacings must halve from one grid to the next. Orders are log2
    ratios of consecutive norms; if every norm sits below the floor the
    diagnostic is flagged exact instead.
    """
    check_ladder(hs)
    if max(norms) < floor:
        return ConvergenceStudy(tuple(hs), tuple(norms), (), float("inf"), True)
    orders = []
    for a, b in zip(norms, norms[1:]):
        if b == 0.0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log2(a / b)))
    return ConvergenceStudy(tuple(hs), tuple(norms), tuple(orders),
                            float(np.mean(orders)), False)


# --------------------------------------------------- hypotheses and certificates

@dataclass(frozen=True)
class HypothesisCheck:
    ok: bool
    min_sigma_source: float
    min_sigma_target: float
    max_sigma_target: float
    sigma: float
    beta: float


def check_hypotheses(mapfield: MapField, hyp: TheoremHypotheses,
                     *, slack: float = 1e-12) -> HypothesisCheck:
    """Check the curvature pinching: sigmaM >= -sigma, -beta <= sigmaN <= -sigma."""
    lo_M = float(np.min(mapfield.source_samples.curvature))
    sN = mapfield.target_samples.curvature
    lo_N, hi_N = float(np.min(sN)), float(np.max(sN))
    ok = (lo_M >= -hyp.sigma - slack
          and hi_N <= -hyp.sigma + slack
          and lo_N >= -hyp.beta - slack)
    return HypothesisCheck(ok=ok, min_sigma_source=lo_M,
                           min_sigma_target=lo_N, max_sigma_target=hi_N,
                           sigma=hyp.sigma, beta=hyp.beta)


@dataclass(frozen=True)
class Certificate:
    """Grid extrema certifying (or refuting) the area-decreasing property."""

    min_phi: float
    min_phi_at: tuple[float, float]
    min_theta: float
    min_theta_at: tuple[float, float]
    max_abs_jf: float
    max_abs_jf_at: tuple[float, float]
    tol: float
    area_decreasing: bool
    hypothesis_ok: Optional[bool] = None


def _argext(a: np.ndarray, grid, pick_min: bool) -> tuple[float, tuple[float, float]]:
    flat = np.where(np.isfinite(a), a, np.inf if pick_min else -np.inf)
    idx = int(np.argmin(flat) if pick_min else np.argmax(flat))
    i, j = np.unravel_index(idx, a.shape)
    return float(a[i, j]), grid.point(int(i), int(j))


def area_decreasing_certificate(mapfield: MapField,
                                hypotheses: Optional[TheoremHypotheses] = None,
                                *, tol: float = 0.0) -> Certificate:
    """Certify phi >= -tol and theta >= -tol (equivalently |J_f| <= 1) on the grid."""
    pw = mapfield.pointwise
    min_phi, at_phi = _argext(pw.phi, mapfield.grid, True)
    min_theta, at_theta = _argext(pw.theta, mapfield.grid, True)
    max_jf, at_jf = _argext(np.abs(pw.jf), mapfield.grid, False)
    hyp_ok = None
    if hypotheses is not None:
        hyp_ok = check_hypotheses(mapfield, hypotheses).ok
    return Certificate(
        min_phi=min_phi, min_phi_at=at_phi,
        min_theta=min_theta, min_theta_at=at_theta,
        max_abs_jf=max_jf, max_abs_jf_at=at_jf,
        tol=tol,
        area_decreasing=bool(min_phi >= -tol and min_theta >= -tol),
        hypothesis_ok=hyp_ok,
    )


# ------------------------------------------------------------- minimum probe

class ProbeStatus(enum.Enum):
    PASS = "pass"
    INCONCLUSIVE_BOUNDARY = "inconclusive_boundary"
    REFUSED_NOT_MINIMAL = "refused_not_minimal"
    VIOLATION = "violation"


@dataclass(frozen=True)
class MinimumProbe:
    status: ProbeStatus
    field_name: str
    value: float
    location: tuple[float, float]
    gradient_norm: Optional[float]
    laplacian: Optional[float]
    pde_bound: Optional[float]
    minimality_defect: float
    tol: float


def _probe_decision(global_min: float, interior_min: float,
                    laplacian: Optional[float], pde_bound: float,
                    defect: float, minimality_threshold: float,
                    tol: float, hypotheses_ok: bool = True) -> ProbeStatus:
    """Pure decision logic of the minimum probe (separable for testing).

    A nonnegative global minimum leaves nothing to refute. A negative
    minimum attained only on the boundary ring is outside the interior
    argument's reach, as is any negative minimum when the curvature
    hypotheses fail (the minimum principle then says nothing). A certified
    negative interior minimum (discrete Laplacian >= -tol, curvature bound
    strictly positive, hypotheses satisfied) contradicts the minimum
    principle and is flagged as a pipeline inconsistency.
    """
    if defect > minimality_threshold:
        return ProbeStatus.REFUSED_NOT_MINIMAL
    if global_min >= -tol:
        return ProbeStatus.PASS
    if not hypotheses_ok:
        return ProbeStatus.INCONCLUSIVE_BOUNDARY
    if interior_min > global_min or laplacian is None or not np.isfinite(laplacian):
        return ProbeStatus.INCONCLUSIVE_BOUNDARY
    if laplacian >= -tol and pde_bound > tol:
        return ProbeStatus.VIOLATION
    return ProbeStatus.INCONCLUSIVE_BOUNDARY


def interior_minimum_probe(mapfield: MapField, field_name: str,
                           hypotheses: TheoremHypotheses,
                           *, tol: Optional[float] = None) -> MinimumProbe:
    """Probe the discrete minimum of phi or theta against the strong
    minimum principle.

    For a numerically minimal map the angle cosines cannot attain a
    negative interior minimum: there -Delta u >= sigma |u| (1 - u^2) > 0
    would force Delta u < 0, contradicting Delta u >= 0 at a minimum. The
    probe refuses maps whose mean curvature defect exceeds the minimality
    threshold, reports negative minima that escape to the boundary as
    inconclusive, and flags VIOLATION only when the discrete Laplacian and
    the curvature bound certify an actual contradiction (which indicates a
    broken invariant, not a sharp theorem failure).

    The reported record describes the minimizer over the probe domain
    (points where the graph Laplacian is evaluable); its gradient norm and
    Laplacian are included for PASS and VIOLATION outcomes.
    """
    if field_name not in ("phi", "theta"):
        raise ConfigError("field_name must be 'phi' or 'theta'")
    gg, grid = mapfield.graph, mapfield.grid
    threshold = MINIMALITY_FACTOR * grid.h ** 2
    tol = threshold if tol is None else tol
    defect = gg.max_norm_H
    u = gg.pw.phi if field_name == "phi" else gg.pw.theta
    global_min, global_at = _argext(u, grid, True)

    L1, L2 = gg.laplacians
    lap_field = L1 - L2 if field_name == "phi" else L1 + L2
    grad_field = gradient_norm_sq_array(u, gg.metric, grid)
    probe_ok = np.isfinite(u) & np.isfinite(lap_field)
    lap = grad = None
    if probe_ok.any():
        i, j = np.unravel_index(int(np.argmin(np.where(probe_ok, u, np.inf))),
                                u.shape)
        interior_min, interior_at = float(u[i, j]), grid.point(int(i), int(j))
        lap = float(lap_field[i, j])
        if np.isfinite(grad_field[i, j]):
            grad = float(np.sqrt(max(grad_field[i, j], 0.0)))
    else:
        interior_min, interior_at = np.inf, global_at

    pde_bound = float(-hypotheses.sigma * interior_min
                      * (1.0 - interior_min ** 2))
    status = _probe_decision(global_min, interior_min, lap, pde_bound,
                             defect, threshold, tol,
                             check_hypotheses(mapfield, hypotheses).ok)
    if status in (ProbeStatus.PASS, ProbeStatus.VIOLATION):
        return MinimumProbe(status, field_name, interior_min, interior_at,
                            grad, lap, pde_bound, defect, tol)
    return MinimumProbe(status, field_name, global_min, global_at,
                        None, None, None, defect, tol)
