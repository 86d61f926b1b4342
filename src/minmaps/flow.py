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

The tension pass is cached on the map (`MapField.tension`). It reads the
field's factor samples, df, induced metric and area cosines, the planes
that `graph_grid` and the certificate read, so every map has one mean
curvature and the closing certificate reads what the last pass cached.
A step's candidate shares the current map's source
samples, so a step samples only the target factor, at the candidate's
image.

``step`` (iterated by ``run_to_minimal``) is one iteration of a
Laplacian-preconditioned fixed-point solver for tau(f) = 0:

    delta = (-Lap_h)^-1 (tau(f) / a),    f <- f + delta,

per component, with Lap_h the 5-point Laplacian and a(x) = max eig(g^-1)
at each interior point. It is the dt -> inf limit of the linearly implicit
step (I - dt a Lap_h) delta = dt tau, which treats the majorant a Lap_h of
the principal part g^{ij} d_ij f implicitly with a frozen at each point
(the stabilized splitting of Smereka 2003, applied to graph mean-curvature
flow as in Deckelnick, Dziuk & Elliott 2005); dividing by a before a fast
Poisson solve preconditions the nonseparable operator as in Concus & Golub
(SIAM J. Numer. Anal. 10, 1973). Every caller wants the minimal map, not a
time-accurate path, so the limit drops dt altogether. The solve is direct,
by a type-I sine transform; the Dirichlet ring stays pinned (delta = 0
there). The iteration count to a given tension drop does not grow with
the grid.

Type-II Anderson mixing of depth ANDERSON_DEPTH (Walker & Ni, SIAM J.
Numer. Anal. 49, 2011) accelerates the iteration where g^-1 is far from
isotropic, which a scalar coefficient at each point cannot capture. Its
secant history belongs to the map it ends at: once a caller assigns
`state.map`, the next step is plain.

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

from .errors import ChartDomainError, ConfigError, NumericalError
from .floatfmt import open_fresh, write_table
from .pointwise import MapField
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
    eig_max: np.ndarray        # (nx-2, ny-2): max eig(g^-1) at each
                               # interior point, the solver's a(x)


def tension_pass(mapfield: MapField) -> TensionPass:
    """Evaluate the tension field of a map over its whole grid (cached as
    `mapfield.tension`, which `step` reads).

    g^{ij} D_ij has source part a = g^{ij} Gamma_M(d_i, d_j) and target part
    b = g^{ij} (d_ij f + Gamma_N(d_i f, d_j f)), and H = (a - c, b - df c)
    for the tangent vector dF(c) that makes H normal: a - c = -k df^T tau
    with k = rhoN^2 / rhoM^2. Eliminating c, tau solves

        (I + k df df^T) tau = b - df a,     det = det g / rhoM^4,

    and |H|^2 = rhoM^2 k^2 |df^T tau|^2 + rhoN^2 |tau|^2. df, g and the area
    monitors are the field's (`df_field`, `metric`, `area`), so sup |H| is
    `mapfield.graph.max_norm_H` to rounding. A tau or monitor that is not
    finite inside the stencils' reach raises NumericalError.
    """
    # unrolled 2x2 component arithmetic throughout: the trailing dimensions
    # are tiny, so generic tensor contractions spend their time on overhead
    grid = mapfield.grid
    f1, f2 = mapfield.values[..., 0], mapfield.values[..., 1]
    df = mapfield.df_field
    f1x, f1y, f2x, f2y = df[..., 0, 0], df[..., 0, 1], df[..., 1, 0], df[..., 1, 1]
    rhoM2 = mapfield.source_samples.rho2
    uMx, uMy = mapfield.source_samples.log_rho_grad
    rhoN2 = mapfield.target_samples.rho2
    uNx, uNy = mapfield.target_samples.log_rho_grad
    detg = mapfield.metric.det
    gi11, gi12, gi22 = mapfield.metric.inverse()

    # a factor with u = log rho traces to g^{ij} Gamma(v_i, v_j) =
    # (ux (q11 - q22) + 2 uy q12, -uy (q11 - q22) + 2 ux q12), with
    # q_ab = g^{ij} v^a_i v^b_j: q = g^-1 for the source (v = id). Shared
    # products are taken once, each in the order of the sum it enters, so
    # every bit matches the sums as written
    dg = gi11 - gi22
    tg12 = 2.0 * gi12
    a1 = uMx * dg + 2.0 * uMy * gi12
    a2 = -uMy * dg + 2.0 * uMx * gi12
    g11f1x, g22f1y = gi11 * f1x, gi22 * f1y
    q11 = g11f1x * f1x + tg12 * f1x * f1y + g22f1y * f1y
    q22 = gi11 * f2x * f2x + tg12 * f2x * f2y + gi22 * f2y * f2y
    q12 = g11f1x * f2x + gi12 * (f1x * f2y + f1y * f2x) + g22f1y * f2y
    # each `del` drops dead planes: a candidate's pass runs while the
    # solver's secant history is live
    del g11f1x, g22f1y
    dq = q11 - q22
    del q11, q22
    b1 = (gi11 * grid.d_xx(f1) + tg12 * grid.d_xy(f1) + gi22 * grid.d_yy(f1)
          + uNx * dq + 2.0 * uNy * q12)
    b2 = (gi11 * grid.d_xx(f2) + tg12 * grid.d_xy(f2) + gi22 * grid.d_yy(f2)
          - uNy * dq + 2.0 * uNx * q12)
    del dq, q12, tg12

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

    # area monitors: the field's area cosines, which the certificate reads.
    # Like tau they must be finite on the interior, where a NaN would
    # otherwise drop out of the extrema
    area = mapfield.area
    normH2, jf, phi, theta = (a[_INTERIOR] for a in (normH2, area.jf, area.phi,
                                                      area.theta))
    bad = ~(np.isfinite(normH2) & np.isfinite(jf) & np.isfinite(phi)
            & np.isfinite(theta))
    if bad.any():
        raise NumericalError(
            f"flow monitors (|H|, J_f, phi, theta) are not finite at "
            f"{int(bad.sum())} points inside the stencil's reach")

    # largest eigenvalue of ginv at each interior point: the solver's
    # coefficient
    tr = gi11 + gi22
    disc = np.sqrt(np.clip(dg ** 2 + 4.0 * gi12 ** 2, 0.0, None))
    eig_max = (0.5 * (tr + disc))[_INTERIOR]
    return TensionPass(
        tau=tau,
        norm_tau=float(np.max(np.abs(tau_in))),
        norm_H=float(np.sqrt(np.max(np.abs(normH2)))),
        min_phi=float(np.min(phi)),
        min_theta=float(np.min(theta)),
        max_abs_jf=float(np.max(np.abs(jf))),
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
    # gram is symmetric to the bit (the products commute exactly and the
    # summation order is the same), so one triangle is computed
    k = len(drs)
    gram = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            gram[i, j] = gram[j, i] = np.einsum("i,i", drs[i], drs[j])
    gram += (_SECANT_RIDGE * gram.trace() + np.finfo(float).tiny) * np.eye(k)
    gamma = np.linalg.solve(gram, np.array([np.einsum("i,i", d, r) for d in drs]))
    out = r.copy()
    for g, dx, dr in zip(gamma, dxs, drs):
        out -= g * (dx + dr)
    return out, k


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

    r = (-Lap_h)^-1 (tau / a), with a = max eig(g^-1) at each point, is
    added on the structural interior, so Dirichlet boundary values are
    carried over bit-identically.
    With secant pairs from earlier steps of this map the first candidate is
    Anderson-mixed. A candidate is accepted when its image stays in the
    target chart and its tension norm grows at most 10x; each rejection
    halves the length and retries the plain step length * r, and after a
    rejection the next step is plain again.
    """
    current = state.map
    tp = current.tension
    shape = current.values[_INTERIOR].shape
    r = solve_laplacian(tp.tau[_INTERIOR] / tp.eig_max[..., None],
                        current.grid).reshape(-1)
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

def _sine_lines(v: np.ndarray) -> np.ndarray:
    """Type-I discrete sine transform along the second-to-last axis of v,
    S_k = sum_j v_j sin(pi j k / (m + 1)) for j, k = 1..m, returned as the
    last axis. It is the real FFT of the odd extension (0, v, 0, -reversed
    v), built in one transposed copy so that the FFT runs along contiguous
    rows. Applied twice it gives (m + 1) / 2 times the identity, with both
    axes back in place."""
    m = v.shape[-2]
    ext = np.empty(v.shape[:-2] + (v.shape[-1], 2 * (m + 1)))
    ext[..., 0] = ext[..., m + 1] = 0.0
    ext[..., 1:m + 1] = np.swapaxes(v, -1, -2)
    np.negative(ext[..., m:0:-1], out=ext[..., m + 2:])
    return np.fft.rfft(ext)[..., 1:m + 1].imag * -0.5


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


def solve_laplacian(rhs: np.ndarray, grid: GridChart) -> np.ndarray:
    """Solve -Lap_h u = rhs on the structural interior: the solver's
    preconditioner. Lap_h is the 5-point Laplacian with the grid's spacings
    hx, hy; rhs and u cover the interior [1:-1, 1:-1] and u is zero on the
    ring. Trailing axes of rhs are independent components.
    """
    # the grid axes go last; each pair of transforms runs x, then y
    v = np.moveaxis(rhs, (0, 1), (-2, -1))
    spec = _sine_lines(_sine_lines(v)) / _symbol_sum(grid.nx, grid.ny,
                                                     grid.hx, grid.hy)
    scale = 4.0 / ((grid.nx - 1) * (grid.ny - 1))
    return np.moveaxis(scale * _sine_lines(_sine_lines(spec)), (-2, -1), (0, 1))


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

    The area columns are the field's area cosines, which the certificate
    reads; norm_H is the normal part of the same ambient Hessian, from the
    same df and metric, that `graph_grid` projects, so on every map it
    equals `verify`'s minimality_defect to rounding.
    """
    lines = ["# minmaps flow monitors v2", ",".join(MONITOR_COLUMNS)]
    for r in state.monitors:   # MonitorRow's fields in order: ints, %.17g floats
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in vars(r).values()))
    with open_fresh(path) as fh:
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

