"""Tension-field solver that relaxes a map to a minimal graph.

The unknown stays a map f, moved by its tension tau with respect to the
graph metric g = gM + f*gN: the target part of the graph's mean curvature
H, which is the normal part of the traced ambient Hessian g^{ij} D_ij that
`graph_grid` projects. Normality gives H's source part as
-(rhoN^2 / rhoM^2) df^T tau, so tau is a closed-form 2x2 solve
(`tension_pass`) with no derivative of g, valid wherever f's width-3
stencils reach: only the Dirichlet ring is frozen. Moving f by tau rather
than the embedding by H differs only by tangential reparametrization, so
the stationary points agree while the chart stays fixed.

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
    norm_H: float              # sup of |H|, H the normal part of g^{ij} D_ij
    min_phi: float
    min_theta: float
    max_abs_jf: float
    eig_max: float             # max eig(g^-1): the solver's a


def tension_pass(mapfield: MapField) -> TensionPass:
    """Evaluate the tension field of a map over its whole grid (cached as
    `mapfield.tension`, which `step` reads).

    g^{ij} D_ij has source part a = g^{ij} Gamma_M(d_i, d_j) and target part
    b = g^{ij} (d_ij f + Gamma_N(d_i f, d_j f)), and H = (a - c, b - df c)
    for the tangent vector dF(c) that makes H normal: a - c = -k df^T tau
    with k = rhoN^2 / rhoM^2. Eliminating c, tau solves

        (I + k df df^T) tau = b - df a,     det = det g / rhoM^4,

    and |H|^2 = rhoM^2 k^2 |df^T tau|^2 + rhoN^2 |tau|^2.
    """
    # unrolled 2x2 component arithmetic throughout: the trailing dimensions
    # are tiny, so generic tensor contractions spend their time on overhead
    grid = mapfield.grid
    f1, f2 = mapfield.values[..., 0], mapfield.values[..., 1]
    f1x, f1y = grid.d_x(f1), grid.d_y(f1)
    f2x, f2y = grid.d_x(f2), grid.d_y(f2)
    rhoM2 = mapfield.source_samples.rho2
    uMx, uMy = mapfield.source_samples.log_rho_grad
    rhoN2 = mapfield.target_samples.rho2
    uNx, uNy = mapfield.target_samples.log_rho_grad

    p11, p12, p22 = pullback_products(f1x, f1y, f2x, f2y)
    m = induced_metric_arrays(p11, p12, p22, rhoM2, rhoN2)
    detg, (gi11, gi12, gi22) = m.det, m.inverse()
    # each `del` drops dead planes: a candidate's pass runs while the
    # solver's secant history is live
    del m, p11, p12, p22

    # a factor with u = log rho traces to g^{ij} Gamma(v_i, v_j) =
    # (ux (q11 - q22) + 2 uy q12, -uy (q11 - q22) + 2 ux q12), with
    # q_ab = g^{ij} v^a_i v^b_j: q = g^-1 for the source (v = id)
    a1 = uMx * (gi11 - gi22) + 2.0 * uMy * gi12
    a2 = -uMy * (gi11 - gi22) + 2.0 * uMx * gi12
    q11 = gi11 * f1x * f1x + 2.0 * gi12 * f1x * f1y + gi22 * f1y * f1y
    q22 = gi11 * f2x * f2x + 2.0 * gi12 * f2x * f2y + gi22 * f2y * f2y
    q12 = gi11 * f1x * f2x + gi12 * (f1x * f2y + f1y * f2x) + gi22 * f1y * f2y
    b1 = (gi11 * grid.d_xx(f1) + 2.0 * gi12 * grid.d_xy(f1) + gi22 * grid.d_yy(f1)
          + uNx * (q11 - q22) + 2.0 * uNy * q12)
    b2 = (gi11 * grid.d_xx(f2) + 2.0 * gi12 * grid.d_xy(f2) + gi22 * grid.d_yy(f2)
          - uNy * (q11 - q22) + 2.0 * uNx * q12)
    del q11, q12, q22

    # tau = adj(I + k df df^T) (b - df a) rhoM^4 / det g
    r1 = b1 - (f1x * a1 + f1y * a2)
    r2 = b2 - (f2x * a1 + f2y * a2)
    del a1, a2, b1, b2
    k = rhoN2 / rhoM2
    kP12 = k * (f1x * f2x + f1y * f2y)
    scale = rhoM2 * rhoM2 / detg
    tau1 = ((1.0 + k * (f2x * f2x + f2y * f2y)) * r1 - kP12 * r2) * scale
    tau2 = ((1.0 + k * (f1x * f1x + f1y * f1y)) * r2 - kP12 * r1) * scale
    del r1, r2, kP12, scale
    tau = np.stack([tau1, tau2], axis=-1)
    tau_in = tau[_INTERIOR]
    bad = ~np.isfinite(tau_in)
    if bad.any():
        raise NumericalError(
            f"tension is not finite at {int(np.any(bad, axis=-1).sum())} "
            "points inside the stencil's reach")

    # H_M = -k df^T tau
    hM1 = f1x * tau1 + f2x * tau2
    hM2 = f1y * tau1 + f2y * tau2
    normH2 = (rhoM2 * k * k * (hM1 * hM1 + hM2 * hM2)
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


def make_state(initial: MapField) -> FlowState:
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
    state = make_state(initial)
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
    norm_H is the normal part of the same ambient Hessian that `graph_grid`
    projects, so on a map without a formula it equals `verify`'s
    minimality_defect to rounding.
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

