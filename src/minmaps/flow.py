"""Tension-field solver that relaxes a map to a minimal graph.

The unknown stays a map f: the update direction is the tension field of f
computed with respect to the graph metric g = gM + f*gN, which vanishes
exactly when the graph is minimal. Compared with moving the embedding by
its mean curvature vector this differs only by tangential
reparametrization, so the stationary points agree while the discretization
keeps a fixed chart.

Christoffel symbols of g are assembled by the product rule from analytic
factor-metric derivatives and finite differences of f (rather than by
differencing the induced metric a second time). The assembled derivative
agrees with direct differencing to second order but is valid one ring
closer to the boundary, so only the true Dirichlet ring is frozen.

The tension pass is cached on the map (`MapField.tension`) and reads the
field's factor samples. A step's candidate shares the current map's source
samples, so a step samples only the target factor, at the candidate's
image.

``step`` (iterated by ``run_to_minimal``) is one iteration of a
Laplacian-preconditioned fixed-point solver for tau(f) = 0:

    delta = (-a Lap_h)^-1 tau(f),    f <- f + delta,

per component, with Lap_h the 5-point Laplacian and a = max eig(g^-1)
over the grid. It is the dt -> inf limit of the linearly implicit step
(I - dt a Lap_h) delta = dt tau, which treats the constant-coefficient
majorant a Lap_h of the principal part g^{ij} d_ij f implicitly (the
stabilized splitting of Smereka 2003, applied to graph mean-curvature flow
as in Deckelnick, Dziuk & Elliott 2005). Every caller wants the minimal
map, not a time-accurate path, so the limit drops dt altogether. The solve
is direct, by a type-I sine transform; the Dirichlet ring stays pinned
(delta = 0 there). The iteration count to a given tension drop does not
grow with the grid.

Type-II Anderson mixing of depth ANDERSON_DEPTH (Walker & Ni, SIAM J.
Numer. Anal. 49, 2011) accelerates the iteration where g^-1 is far from
isotropic and a over-damps the weaker directions. Its secant history
belongs to the map it ends at: once a caller assigns `state.map`, the
next step is plain.

A guard rejects a candidate whose image leaves the target chart or whose
tension norm jumps by more than 10x. ``step`` then clears the history and
retries a plain step at half the length; a length underflow raises
NumericalError ("flow stalled").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import stencils
from .errors import ChartDomainError, ConfigError, NumericalError
from .floatfmt import write_table
from .graph_geometry import induced_metric_arrays, pullback_products
from .pointwise import MapField, area_cosines
from .surface import GridChart
from .verifier import Certificate, area_decreasing_certificate

__all__ = [
    "FlowConfig", "FlowState", "FlowResult", "MonitorRow",
    "tension_pass", "make_state", "step", "solve_laplacian", "run_to_minimal",
    "write_monitors_csv", "write_snapshot",
]

# secant pairs the solver mixes into a step
ANDERSON_DEPTH = 5
# Tikhonov weight of the mixing coefficients, relative to the trace of the
# secants' Gram matrix: directions of dR weaker than this add only
# rounding to the mixed step
_SECANT_RIDGE = 1e-8
REJECT_TENSION_FACTOR = 10.0
# a step halved below this length (a full step is 1) means a stall
LENGTH_UNDERFLOW = 1e-15
# the points the tension stencil reaches: all but the Dirichlet ring
_INTERIOR = np.s_[1:-1, 1:-1]

MONITOR_COLUMNS = ("step", "length", "depth", "min_phi", "min_theta",
                   "max_abs_jf", "norm_H", "norm_tau", "chart_exits",
                   "tension_jumps")


@dataclass(frozen=True)
class MonitorRow:
    step: int
    dt: float                  # accepted step length
    depth: int                 # secant pairs mixed into the step
    min_phi: float
    min_theta: float
    max_abs_jf: float
    norm_H: float
    norm_tau: float
    chart_exits: int           # rejected candidates, by guard
    tension_jumps: int


@dataclass(frozen=True)
class FlowConfig:
    stop_tension: float
    max_steps: int = 50000

    def __post_init__(self):
        # a NaN stop_tension would end the run unconverged at step 0
        if not (math.isfinite(self.stop_tension) and self.stop_tension > 0):
            raise ConfigError("stop_tension must be finite and positive "
                              f"(got {self.stop_tension!r})")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")


# ----------------------------------------------------------- tension kernel

@dataclass(frozen=True)
class TensionPass:
    """One evaluation of the tension field plus cheap per-step monitors."""

    tau: np.ndarray            # (nx, ny, 2), NaN on the Dirichlet ring
    norm_tau: float
    norm_H: float              # sup of |H| via the harmonic-map route
    min_phi: float
    min_theta: float
    max_abs_jf: float
    eig_max: float             # max eig(g^-1): the solver's a


def tension_pass(mapfield: MapField) -> TensionPass:
    """Evaluate the tension field of a map over its whole grid (cached as
    `mapfield.tension`, which `step` reads)."""
    # unrolled 2x2 component arithmetic throughout: the trailing dimensions
    # are tiny, so generic tensor contractions spend their time on overhead
    grid = mapfield.grid
    f1, f2 = mapfield.values[..., 0], mapfield.values[..., 1]

    f1x, f1y = grid.d_x(f1), grid.d_y(f1)
    f2x, f2y = grid.d_x(f2), grid.d_y(f2)
    f1xx, f1yy, f1xy = grid.d_xx(f1), grid.d_yy(f1), grid.d_xy(f1)
    f2xx, f2yy, f2xy = grid.d_xx(f2), grid.d_yy(f2), grid.d_xy(f2)

    rhoM2 = mapfield.source_samples.rho2
    uMx, uMy = mapfield.source_samples.log_rho_grad
    rhoN2 = mapfield.target_samples.rho2
    uNx, uNy = mapfield.target_samples.log_rho_grad

    p11, p12, p22 = pullback_products(f1x, f1y, f2x, f2y)
    m = induced_metric_arrays(p11, p12, p22, rhoM2, rhoN2)
    detg, gi11, gi12, gi22 = m.det, m.gi11, m.gi12, m.gi22

    # d_k g_ij assembled by the product rule (exact metric derivatives,
    # FD only on f): dg_kij = rhoN2 (f_ki . f_j + f_i . f_kj)
    #                       + d_k(rhoN2 o f) p_ij + d_k(rhoM^2) delta_ij
    dgMx, dgMy = 2.0 * rhoM2 * uMx, 2.0 * rhoM2 * uMy
    drx = 2.0 * rhoN2 * (uNx * f1x + uNy * f2x)
    dry = 2.0 * rhoN2 * (uNx * f1y + uNy * f2y)
    dgx11 = 2.0 * rhoN2 * (f1xx * f1x + f2xx * f2x) + drx * p11 + dgMx
    dgx12 = rhoN2 * (f1xx * f1y + f2xx * f2y + f1x * f1xy + f2x * f2xy) + drx * p12
    dgx22 = 2.0 * rhoN2 * (f1xy * f1y + f2xy * f2y) + drx * p22 + dgMx
    dgy11 = 2.0 * rhoN2 * (f1xy * f1x + f2xy * f2x) + dry * p11 + dgMy
    dgy12 = rhoN2 * (f1xy * f1y + f2xy * f2y + f1x * f1yy + f2x * f2yy) + dry * p12
    dgy22 = 2.0 * rhoN2 * (f1yy * f1y + f2yy * f2y) + dry * p22 + dgMy
    # the pass holds dozens of grid arrays at once; each `del` drops dead
    # ones, so a candidate's pass stays lean while the solver's secant
    # history is live
    del m, p11, p12, p22, dgMx, dgMy, drx, dry

    # br_l_ij = d_i g_jl + d_j g_il - d_l g_ij, then Gamma^k = ginv^kl br_l / 2
    brx11 = dgx11
    brx12 = dgy11
    brx22 = 2.0 * dgy12 - dgx22
    bry11 = 2.0 * dgx12 - dgy11
    bry12 = dgx22
    bry22 = dgy22
    G1_11 = 0.5 * (gi11 * brx11 + gi12 * bry11)
    G1_12 = 0.5 * (gi11 * brx12 + gi12 * bry12)
    G1_22 = 0.5 * (gi11 * brx22 + gi12 * bry22)
    G2_11 = 0.5 * (gi12 * brx11 + gi22 * bry11)
    G2_12 = 0.5 * (gi12 * brx12 + gi22 * bry12)
    G2_22 = 0.5 * (gi12 * brx22 + gi22 * bry22)

    # contractions c_k = g^{ij} Gamma^k_ij feed both the tension drift and
    # the tangential mean curvature component
    c1 = gi11 * G1_11 + 2.0 * gi12 * G1_12 + gi22 * G1_22
    c2 = gi11 * G2_11 + 2.0 * gi12 * G2_12 + gi22 * G2_22
    del (dgx11, dgx12, dgx22, dgy11, dgy12, dgy22,
         brx11, brx12, brx22, bry11, bry12, bry22,
         G1_11, G1_12, G1_22, G2_11, G2_12, G2_22)

    # target connection term: q_ab = g^{ij} df^a_i df^b_j against the
    # conformal Christoffels of the image metric
    q11 = gi11 * f1x * f1x + 2.0 * gi12 * f1x * f1y + gi22 * f1y * f1y
    q22 = gi11 * f2x * f2x + 2.0 * gi12 * f2x * f2y + gi22 * f2y * f2y
    q12 = gi11 * f1x * f2x + gi12 * (f1x * f2y + f1y * f2x) + gi22 * f1y * f2y
    conn1 = uNx * (q11 - q22) + 2.0 * uNy * q12
    conn2 = -uNy * (q11 - q22) + 2.0 * uNx * q12

    lap1 = gi11 * f1xx + 2.0 * gi12 * f1xy + gi22 * f1yy
    lap2 = gi11 * f2xx + 2.0 * gi12 * f2xy + gi22 * f2yy
    tau1 = lap1 - (c1 * f1x + c2 * f1y) + conn1
    tau2 = lap2 - (c1 * f2x + c2 * f2y) + conn2
    del f1xx, f1yy, f1xy, f2xx, f2yy, f2xy, q11, q12, q22, conn1, conn2, lap1, lap2
    tau = np.stack([tau1, tau2], axis=-1)
    tau_in = tau[_INTERIOR]
    bad = ~np.isfinite(tau_in)
    if bad.any():
        raise NumericalError(
            f"tension is not finite at {int(np.any(bad, axis=-1).sum())} "
            "points inside the stencil's reach")

    # mean curvature through the harmonic-map identity: tangential part from
    # the two Christoffel contractions, normal part is tau itself
    hM1 = uMx * (gi11 - gi22) + 2.0 * uMy * gi12 - c1
    hM2 = -uMy * (gi11 - gi22) + 2.0 * uMx * gi12 - c2
    normH2 = (rhoM2 * (hM1 * hM1 + hM2 * hM2)
              + rhoN2 * (tau1 * tau1 + tau2 * tau2))
    norm_H = float(np.sqrt(stencils.finite_abs_max(normH2)))

    # area monitors through the certificate's kernel
    _, _, jf, phi, theta = area_cosines(f1x, f1y, f2x, f2y, rhoM2, rhoN2, detg)
    min_phi = float(np.nanmin(phi))
    min_theta = float(np.nanmin(theta))
    max_jf = stencils.finite_abs_max(jf)

    # largest eigenvalue of ginv: the solver's coefficient
    tr = gi11 + gi22
    disc = np.sqrt(np.clip((gi11 - gi22) ** 2 + 4.0 * gi12 ** 2, 0.0, None))
    eig_max = float(np.max((0.5 * (tr + disc))[_INTERIOR]))
    return TensionPass(
        tau=tau,
        norm_tau=float(np.max(np.abs(tau_in))),
        norm_H=norm_H,
        min_phi=min_phi,
        min_theta=min_theta,
        max_abs_jf=max_jf,
        eig_max=eig_max,
    )


# ------------------------------------------------------------------ stepping

@dataclass
class _Secants:
    """Anderson history of the solver, ending at `map`: the increments dx
    of the last steps and the differences dr of their preconditioned
    tensions. The last step's dr waits for the next r, so it is one short;
    `r` is the preconditioned tension the last step started from."""

    map: MapField
    r: np.ndarray              # flat, like the increments
    dxs: list[np.ndarray]
    drs: list[np.ndarray]


@dataclass
class FlowState:
    """Mutable flow state: the current map, the solver's secant history and
    the monitors. The tension is the map's cached pass and the history is
    tied to the map it ends at, so a caller may assign `map`: the next step
    is then exactly a fresh state's first step from that map.

    `dt` is the last accepted step length (1 before any step).
    """

    map: MapField
    dt: float
    steps: int = 0
    monitors: list[MonitorRow] = field(default_factory=list)
    _secants: Optional[_Secants] = field(default=None, repr=False)

    @property
    def tension_norm(self) -> float:
        return self.map.tension.norm_tau

    @property
    def rejections(self) -> int:
        """Candidates the guards rejected over all steps."""
        return sum(r.chart_exits + r.tension_jumps for r in self.monitors)


def make_state(initial: MapField, config: FlowConfig) -> FlowState:
    """Evaluate the initial tension and seed the monitor series (step 0)."""
    state = FlowState(map=initial, dt=1.0)
    state.monitors.append(_row(state, 0, 0, 0))
    return state


def _row(state: FlowState, depth: int, exits: int, jumps: int) -> MonitorRow:
    tp = state.map.tension
    return MonitorRow(step=state.steps, dt=state.dt, depth=depth,
                      min_phi=tp.min_phi, min_theta=tp.min_theta,
                      max_abs_jf=tp.max_abs_jf, norm_H=tp.norm_H,
                      norm_tau=tp.norm_tau, chart_exits=exits,
                      tension_jumps=jumps)


def _anderson(r: np.ndarray, dxs: list[np.ndarray],
              drs: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Type-II Anderson update with mixing parameter 1, r - (dX + dR) gamma,
    and the number of secant pairs it mixes. gamma minimises
    |r - dR gamma|^2 + ridge |gamma|^2 through the k x k normal equations,
    whose Gram matrix comes from dot products; the ridge keeps gamma bounded
    where the dr are (nearly) dependent, and the system regular when every
    dr is zero. It is a linear solve, not a least-squares or eigenvalue
    call: the first such LAPACK call adds about 1 MB to the flow's peak
    memory, a solve about 0.25 MB."""
    # einsum, not a BLAS dot: its summation order does not change with the
    # BLAS thread count, and neither do the bytes of the solver's output
    gram = np.array([[np.einsum("i,i", a, b) for b in drs] for a in drs])
    gram += (_SECANT_RIDGE * gram.trace() + np.finfo(float).tiny) * np.eye(len(drs))
    gamma = np.linalg.solve(gram, np.array([np.einsum("i,i", d, r) for d in drs]))
    out = r.copy()
    for g, dx, dr in zip(gamma, dxs, drs):
        out -= g * (dx + dr)
    return out, len(drs)


def _take_secants(state: FlowState, r: np.ndarray):
    """Take the state's secant history, completed by the current r, as
    (dxs, drs) lists of at most ANDERSON_DEPTH pairs; both are empty
    unless the history ends at the current map. The state holds none
    while a step runs, so the pairs that fall out of the window are freed
    before the candidate's pass."""
    sec, state._secants = state._secants, None
    if sec is None or sec.map is not state.map:
        return [], []
    keep = max(0, len(sec.dxs) - ANDERSON_DEPTH)
    return sec.dxs[keep:], (sec.drs + [r - sec.r])[keep:]


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """Advance one accepted solver iteration (rejections retry inside).

    r = (-a Lap_h)^-1 tau with a = max eig(g^-1) is added on the structural
    interior, so Dirichlet boundary values are carried over bit-identically.
    With secant pairs from earlier steps of this map the first candidate is
    Anderson-mixed. A candidate is accepted when its image stays in the
    target chart and its tension norm grows at most 10x; each rejection
    halves the length and retries the plain step length * r, and after a
    rejection the next step is plain again.
    """
    current = state.map
    tp = current.tension
    shape = current.values[_INTERIOR].shape
    r = solve_laplacian(tp.tau[_INTERIOR], tp.eig_max, current.grid).reshape(-1)
    dxs, drs = _take_secants(state, r)
    # a full plain step is r itself
    mixed, depth = _anderson(r, dxs, drs) if dxs else (r, 0)

    limit = REJECT_TENSION_FACTOR * max(tp.norm_tau, config.stop_tension)
    length, update = 1.0, mixed
    exits = jumps = 0
    while True:
        candidate = current.values.copy()
        candidate[_INTERIOR] += update.reshape(shape)
        try:
            new_map = current.with_values(candidate)
        except ChartDomainError:
            exits += 1
        else:
            if new_map.tension.norm_tau <= limit:
                break
            jumps += 1
        length *= 0.5
        if length < LENGTH_UNDERFLOW:
            raise NumericalError(
                f"flow stalled: step length underflow after {exits} chart "
                f"exits and {jumps} tension jumps (tension {tp.norm_tau:.3e})")
        update = length * r

    state.map, state.dt = new_map, length
    state.steps += 1
    if exits + jumps:
        depth = 0
    else:
        state._secants = _Secants(new_map, r, dxs + [mixed], drs)
    state.monitors.append(_row(state, depth, exits, jumps))
    return state


# ------------------------------------------------------- fast Laplacian solve

def _sine_transform(v: np.ndarray, axis: int) -> np.ndarray:
    """Type-I discrete sine transform along one axis,
    S_k = sum_j v_j sin(pi j k / (m + 1)) for j, k = 1..m, from the real
    FFT of the odd extension (0, v, 0, -reversed v). Applied twice it gives
    (m + 1) / 2 times the identity."""
    v = np.moveaxis(v, axis, 0)
    m = v.shape[0]
    ext = np.zeros((2 * (m + 1),) + v.shape[1:])
    ext[1:m + 1] = v
    ext[m + 2:] = -v[::-1]
    out = -0.5 * np.fft.rfft(ext, axis=0)[1:m + 1].imag
    return np.moveaxis(out, 0, axis)


@functools.lru_cache(maxsize=8)
def _symbol_sum(nx: int, ny: int, hx: float, hy: float) -> np.ndarray:
    """Eigenvalues of -Lap_h on the interior's sine modes (read only):
    lx[:, None] + ly[None, :], with the 1-D symbols 4 sin^2(theta / 2) / h^2
    at theta = pi k / (n - 1), k = 1..n-2. Keyed on the grid's shape and
    spacings, not the chart, so no cached mesh is kept."""
    lx, ly = (4.0 * np.sin(0.5 * (np.pi * np.arange(1, n - 1) / (n - 1))) ** 2 / (h * h)
              for n, h in ((nx, hx), (ny, hy)))
    lsum = lx[:, None] + ly[None, :]
    lsum.flags.writeable = False
    return lsum


def solve_laplacian(rhs: np.ndarray, coef: float, grid: GridChart) -> np.ndarray:
    """Solve -coef Lap_h u = rhs on the structural interior: the solver's
    preconditioner. Lap_h is the 5-point Laplacian with the grid's spacings
    hx, hy; rhs and u cover the interior [1:-1, 1:-1] and u is zero on the
    ring. Trailing axes of rhs are independent components.
    """
    denom = coef * _symbol_sum(grid.nx, grid.ny, grid.hx, grid.hy)
    denom = denom.reshape(denom.shape + (1,) * (rhs.ndim - 2))
    spec = _sine_transform(_sine_transform(rhs, 0), 1) / denom
    scale = 4.0 / ((grid.nx - 1) * (grid.ny - 1))
    return scale * _sine_transform(_sine_transform(spec, 0), 1)


@dataclass(frozen=True)
class FlowResult:
    state: FlowState
    certificate: Certificate
    converged: bool


def run_to_minimal(initial: MapField, config: FlowConfig,
                   hypotheses=None, *, tol: float = 0.0) -> FlowResult:
    """Iterate `step` until the tension drops below stop_tension (or
    max_steps), then certify the final map with tolerance `tol`. A stall
    raises NumericalError; `converged` is true only when the tension
    reached stop_tension. The returned state drops the secant history,
    which is scratch memory of the solver, so stepping it further starts
    with a plain step."""
    state = make_state(initial, config)
    while state.tension_norm > config.stop_tension and state.steps < config.max_steps:
        step(state, config)
    state._secants = None
    cert = area_decreasing_certificate(state.map, hypotheses, tol=tol)
    return FlowResult(state=state, certificate=cert,
                      converged=state.tension_norm <= config.stop_tension)


# ---------------------------------------------------------------------- io

def write_monitors_csv(state: FlowState, path: str) -> None:
    """Monitor series: the header line `# minmaps flow monitors v2`, the
    column names, then one row for the starting map (step 0) and one per
    accepted step. Columns:

      step           accepted steps so far
      length         the step's length: 1 for a full solver step, halved
                     per rejection. Row 0, the starting map, holds 1
      depth          secant pairs Anderson-mixed into the step (0: plain)
      min_phi        min over the grid of phi = u1 - u2
      min_theta      min over the grid of theta = u1 + u2
      max_abs_jf     sup |J_f|
      norm_H         sup |H|, the graph's mean curvature
      norm_tau       sup |tau| on the structural interior
      chart_exits    candidates rejected because the image left the chart
      tension_jumps  candidates rejected because norm_tau grew over 10x

    The area columns share the certificate's kernel, `area_cosines`;
    norm_H is the flow's cheap harmonic-map route, not `graph_grid`'s A.
    """
    lines = ["# minmaps flow monitors v2", ",".join(MONITOR_COLUMNS)]
    for r in state.monitors:
        lines.append(f"{r.step},{r.dt:.17g},{r.depth},{r.min_phi:.17g},"
                     f"{r.min_theta:.17g},{r.max_abs_jf:.17g},"
                     f"{r.norm_H:.17g},{r.norm_tau:.17g},"
                     f"{r.chart_exits},{r.tension_jumps}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def write_snapshot(mapfield: MapField, path: str) -> None:
    """Plain-text grid dump: header `nx ny h x0 y0`, then one `f1 f2` row
    per point, x-index outermost. Requires square spacing."""
    grid = mapfield.grid
    if abs(grid.hx - grid.hy) > 1e-15 * max(grid.hx, grid.hy):
        raise ConfigError("snapshot format stores a single spacing; "
                          "grid must have hx == hy")
    write_table(path, f"{grid.nx} {grid.ny} {grid.hx:.17g} {grid.x0:.17g} "
                      f"{grid.y0:.17g}\n",
                np.moveaxis(mapfield.values, -1, 0), sep=" ")

