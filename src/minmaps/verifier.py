"""Residual checks for the structure equations of minimal graphs.

Each verify_* function evaluates one identity that holds exactly for a
minimal map and returns the discrete residual field. Residuals combine an
FD evaluation of a derivative (one side) with frame and curvature algebra
(the other side); on smooth minimal fixtures they contract at second order
under grid refinement, and on maps with closed-form singular data the
algebraic side is exact so the residual isolates pure stencil error.

Laplacians follow the sign convention Delta = div grad, so the identities
are stated for -Delta (nonnegative on concave-down bumps).

Angle-equation residuals are masked where 1 - phi^2 (resp. 1 - theta^2)
drops below a floor: at complex or anti-complex points both sides vanish
identically and the quotient geometry degenerates, so the residual there
is pure cancellation noise.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import stencils
from .errors import ConfigError
from .graph_geometry import (
    GraphGrid, _add_product, ambient_curvature, form_on_frame,
    gradient_norm_sq_array, laplace_beltrami_array,
)
from .pointwise import MapField
from .surface import TheoremHypotheses

__all__ = [
    "ResidualReport", "ConvergenceStudy", "HypothesisCheck",
    "Certificate", "MinimumProbe", "ProbeStatus",
    "verify_pullback_derivative", "verify_form_laplacian",
    "verify_jacobian_laplacians", "verify_gradient_identities",
    "refinement_study", "convergence_study", "check_hypotheses",
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
    out = np.abs(arrays[0])
    t = np.empty_like(out)
    for a in arrays[1:]:
        np.fmax(out, np.abs(a, out=t), out=out)
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
# Each identity keeps a plane only while something still reads it: sums
# accumulate in place through one scratch plane (`_add_product`), in the
# operation order of the formulas below, so the residual bits are those of
# the written expressions. No cached plane of the field is written.

def verify_pullback_derivative(mapfield: MapField) -> ResidualReport:
    """First-order identity: frame derivatives of the two Jacobian functions.

    For each parallel factor form, e_k(omega(e1, e2)) expands through the
    second fundamental form because the tangential connection terms cancel
    in the antisymmetric pairing:

        e_k(u) = sum_alpha A^alpha_k1 omega(e_alpha, e2)
                         + A^alpha_k2 omega(e1, e_alpha)
    """
    gg = mapfield.graph
    pw = gg.pw
    grid = mapfield.grid
    t = np.empty_like(pw.u1)
    comps: dict[str, np.ndarray] = {}
    for idx, u in ((1, pw.u1), (2, pw.u2)):
        ux, uy = grid.d_x(u), grid.d_y(u)
        lhs = {}
        for k in (1, 2):
            vk = gg.frame[..., k - 1, 0:2]  # chart shadow of the tangent frame
            lhs[k] = _add_product(vk[..., 0] * ux, t, vk[..., 1], uy)
        del ux, uy
        rhs = {k: np.zeros_like(u) for k in (1, 2)}
        # each form is built once and read by both frame derivatives
        for a in (3, 4):
            for col, pair in ((0, (a, 2)), (1, (1, a))):
                w = form_on_frame(gg, idx, *pair)
                for k in (1, 2):
                    _add_product(rhs[k], t, gg.A[..., a - 3, k - 1, col], w)
        for k in (1, 2):
            lhs[k] -= rhs[k]
            comps[f"u{idx}_e{k}"] = lhs[k]
    del t, rhs, w
    return _make_report(gg, comps)


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
    """
    gg = mapfield.graph
    pw = gg.pw
    grid = mapfield.grid
    E, A = gg.frame, gg.A
    t = np.empty_like(pw.u1)
    # R(e_k, e_i, e_k, e_alpha) does not depend on the form and vanishes
    # for k == i, so S3 needs R(e1, e2, e1, e_alpha) and R(e2, e1, e2,
    # e_alpha): each is built once, for both forms' S3
    S3 = {idx: np.zeros_like(t) for idx in (1, 2)}
    for a in (3, 4):
        for k, pair in ((0, (1, a)), (1, (a, 2))):
            R = ambient_curvature(E[..., k, :], E[..., 1 - k, :], E[..., k, :],
                                  E[..., a - 1, :], gg.rhoM2, gg.rhoN2,
                                  gg.sigmaM, gg.sigmaN)
            for idx in (1, 2):
                _add_product(S3[idx], t, R, form_on_frame(gg, idx, *pair))
    del R
    comps: dict[str, np.ndarray] = {}
    for idx, u in ((1, pw.u1), (2, pw.u2)):
        lhs = laplace_beltrami_array(u, gg.metric, grid)
        np.negative(lhs, out=lhs)
        # S1 reads omega(e1, e2), omega(e2, e2) and omega(e1, e1) = 0
        w = {(1, 2): form_on_frame(gg, idx, 1, 2),
             (2, 2): form_on_frame(gg, idx, 2, 2), (1, 1): 0.0}
        S1 = np.zeros_like(u)
        for a in (3, 4):
            for k in (0, 1):
                for l in (0, 1):
                    Akl = A[..., a - 3, k, l]
                    _add_product(S1, t, A[..., a - 3, k, 0], Akl, w[(l + 1, 2)])
                    _add_product(S1, t, A[..., a - 3, k, 1], Akl, w[(1, l + 1)])
        del w
        S2 = np.zeros_like(u)
        for a in (3, 4):
            for b in (3, 4):
                w_ab = form_on_frame(gg, idx, a, b)
                for k in (0, 1):
                    _add_product(S2, t, 2.0, A[..., a - 3, k, 0],
                                 A[..., b - 3, k, 1], w_ab, subtract=True)
        del w_ab
        S1 += S2
        del S2
        S1 += S3.pop(idx)
        lhs -= S1
        comps[f"omega{idx}"] = lhs
    del t, S1
    return _make_report(gg, comps)


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
    grid = mapfield.grid
    u1, u2 = pw.u1, pw.u2
    nA2, sp = gg.norm_A_sq, gg.sigma_perp
    sM, sN = gg.sigmaM, gg.sigmaN
    if mutation == "flip_sigma_perp":
        sp = -sp
    elif mutation == "swap_curvatures":
        sM, sN = sN, sM
    elif mutation is not None:
        raise ConfigError(f"unknown mutation {mutation!r}")
    comps = {}
    for name, u in (("u1", u1), ("u2", u2)):
        comps[name] = laplace_beltrami_array(u, gg.metric, grid)
        np.negative(comps[name], out=comps[name])
    t, sq = np.empty_like(u1), np.empty_like(u1)
    q = u1 * u1                                   # 1 - u1^2 - u2^2
    np.subtract(1.0, q, out=q)
    _add_product(q, t, u2, u2, subtract=True)
    # each right-hand side is summed in one plane and subtracted in place
    rhs = nA2 * u1
    _add_product(rhs, t, 2.0, sp, u2)
    _add_product(rhs, t, sM, q, u1)
    np.multiply(u2, u2, out=sq)
    _add_product(rhs, t, 2.0, sN, u1, sq, subtract=True)
    comps["u1"] -= rhs
    np.multiply(nA2, u2, out=rhs)
    _add_product(rhs, t, 2.0, sp, u1)
    _add_product(rhs, t, sN, q, u2)
    np.multiply(u1, u1, out=sq)
    _add_product(rhs, t, 2.0, sM, sq, u2, subtract=True)
    comps["u2"] -= rhs
    del t, sq, q, rhs
    return _make_report(gg, comps, mutation=mutation)


def verify_gradient_identities(mapfield: MapField) -> ResidualReport:
    """Gradient and Laplacian equations for the angle sums phi and theta.

        2 |grad phi|^2   = (|A|^2 - 2 sigma_perp)(1 - phi^2)
        2 |grad theta|^2 = (|A|^2 + 2 sigma_perp)(1 - theta^2)
        -Delta phi   = (|A|^2 - 2 sp) phi
                       + (sigmaM (phi + theta) + sigmaN (phi - theta))(1 - phi^2)/2
        -Delta theta = (|A|^2 + 2 sp) theta
                       + (sigmaM (phi + theta) - sigmaN (phi - theta))(1 - theta^2)/2
    """
    gg = mapfield.graph
    pw = gg.pw
    grid = mapfield.grid
    phi, theta = pw.phi, pw.theta
    nA2, sp = gg.norm_A_sq, gg.sigma_perp
    sM, sN = gg.sigmaM, gg.sigmaN

    comps: dict[str, np.ndarray] = {}
    for name, u in (("phi", phi), ("theta", theta)):
        grad = gradient_norm_sq_array(u, gg.metric, grid)
        grad *= 2.0
        lap = laplace_beltrami_array(u, gg.metric, grid)
        np.negative(lap, out=lap)
        comps[f"grad_{name}"], comps[f"lap_{name}"] = grad, lap
    t = np.empty_like(phi)
    masked = 0
    # plus: the sign of sigma_perp in |A|^2 -+ 2 sp, and of the sigmaN term
    for name, u, plus in (("phi", phi, False), ("theta", theta, True)):
        grad, lap = comps[f"grad_{name}"], comps[f"lap_{name}"]
        q = u * u                                 # 1 - u^2
        np.subtract(1.0, q, out=q)
        a = 2.0 * sp                              # |A|^2 -+ 2 sp
        (np.add if plus else np.subtract)(nA2, a, out=a)
        _add_product(grad, t, a, q, subtract=True)
        # the curvature term, then the sum in its plane: s + a u is a u + s
        s = phi + theta
        s *= sM
        np.subtract(phi, theta, out=t)
        t *= sN
        if plus:
            s -= t
        else:
            s += t
        s *= 0.5
        s *= q
        lap -= _add_product(s, t, a, u)
        del a, s
        mask = q < ANGLE_MASK_FLOOR
        grad[mask] = np.nan
        lap[mask] = np.nan
        masked += int(np.count_nonzero(mask & np.isfinite(u)))
        del q, mask
    del t
    return _make_report(gg, comps, masked_points=masked)


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


def convergence_study(hs: Sequence[float], norms: Sequence[float],
                      *, floor: float = EXACT_FLOOR) -> ConvergenceStudy:
    """Contraction orders of norms measured on grids of spacings hs.

    The spacings must halve from one grid to the next. Orders are log2
    ratios of consecutive norms; if every norm sits below the floor the
    diagnostic is flagged exact instead.
    """
    if len(hs) < 3:
        raise ConfigError("refinement study needs at least three grids")
    for h0, h1 in zip(hs, hs[1:]):
        if not 0.49 < h1 / h0 < 0.51:
            raise ConfigError(
                f"grid spacings must halve between studies (got {h0:g} -> {h1:g})")
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
    gg = mapfield.graph
    pw = gg.pw
    grid = mapfield.grid
    h2 = grid.h ** 2
    if tol is None:
        tol = MINIMALITY_FACTOR * h2
    defect = gg.max_norm_H
    u = pw.phi if field_name == "phi" else pw.theta
    global_min, global_at = _argext(u, grid, True)

    lap_field = laplace_beltrami_array(u, gg.metric, grid)
    grad_field = gradient_norm_sq_array(u, gg.metric, grid)
    probe_ok = np.isfinite(u) & np.isfinite(lap_field)
    lap: Optional[float] = None
    grad: Optional[float] = None
    if probe_ok.any():
        masked = np.where(probe_ok, u, np.inf)
        i, j = np.unravel_index(int(np.argmin(masked)), u.shape)
        interior_min = float(u[i, j])
        interior_at = grid.point(int(i), int(j))
        lap = float(lap_field[i, j])
        if np.isfinite(grad_field[i, j]):
            grad = float(np.sqrt(max(grad_field[i, j], 0.0)))
    else:
        interior_min, interior_at = np.inf, global_at

    threshold = MINIMALITY_FACTOR * h2
    pde_bound = float(-hypotheses.sigma * interior_min
                      * (1.0 - interior_min ** 2))
    status = _probe_decision(global_min, interior_min, lap, pde_bound,
                             defect, threshold, tol,
                             check_hypotheses(mapfield, hypotheses).ok)
    show = status in (ProbeStatus.PASS, ProbeStatus.VIOLATION)
    if show:
        value, location = interior_min, interior_at
    else:
        value, location = global_min, global_at
    return MinimumProbe(status, field_name, value, location,
                        grad if show else None,
                        lap if show else None,
                        pde_bound if show else None, defect, tol)
