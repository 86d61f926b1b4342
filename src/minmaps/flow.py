"""Tension-field flow that deforms a map toward a minimal graph.

The unknown stays a map f: the update direction is the tension field of f
computed with respect to the evolving graph metric g = gM + f*gN, which
vanishes exactly when the graph is minimal. Compared with flowing the
embedding by its mean curvature vector this differs only by tangential
reparametrization, so the stationary points agree while the discretization
keeps a fixed chart.

Christoffel symbols of g are assembled by the product rule from analytic
factor-metric derivatives and finite differences of f (rather than by
differencing the induced metric a second time). The assembled derivative
agrees with direct differencing to second order but is valid one ring
closer to the boundary, so only the true Dirichlet ring is frozen.

Two steppers share one step-control loop:

``step`` (used by ``run_to_minimal``) is linearly implicit. It solves

    (I - dt a Lap_h) delta = dt tau(f),    f <- f + delta,

per component, with Lap_h the 5-point Laplacian and a = max eig(g^-1)
over the grid. The principal part of tau is g^{ij} d_ij f; treating the
constant-coefficient a Lap_h implicitly and the rest of tau explicitly is
stable without a CFL cap as long as a I dominates g^-1 everywhere, and the
smallest such a keeps the splitting error smallest (the stabilized
semi-implicit scheme of Smereka 2003, applied to graph mean-curvature flow
as in Deckelnick, Dziuk & Elliott 2005). The solve is direct: a type-I
sine transform on Dirichlet grids (the ring stays pinned, delta = 0
there) and a real FFT on periodic grids, so the step count to a given
tension drop does not grow with the grid.

``explicit_step`` is explicit Euler with a CFL cap proportional to
h^2 / max eig(g^-1); it is the reference the heat-flow checks compare
against.

Both reject a step (and halve dt) when the image leaves the target chart or
the tension norm jumps by more than 10x, raise on dt underflow, and let dt
recover by doubling after a run of accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import stencils
from .errors import ChartDomainError, ConfigError, NumericalError, StencilError
from .graph_geometry import _window
from .pointwise import MapField
from .surface import BoundaryMode, ConformalMetric, GridChart
from .verifier import Certificate, area_decreasing_certificate

__all__ = [
    "FlowConfig", "FlowState", "FlowResult", "MonitorRow",
    "tension_field", "tension_pass", "make_state", "step", "explicit_step",
    "solve_shifted_laplacian", "run_to_minimal",
    "write_monitors_csv", "write_snapshot", "read_snapshot",
]

DT_UNDERFLOW_FACTOR = 1e-15
REJECT_TENSION_FACTOR = 10.0
RECOVERY_RUN = 20

MONITOR_COLUMNS = ("step", "t", "dt", "min_phi", "min_theta",
                   "max_abs_jf", "norm_H", "norm_tau")


@dataclass(frozen=True)
class MonitorRow:
    step: int
    t: float
    dt: float
    min_phi: float
    min_theta: float
    max_abs_jf: float
    norm_H: float
    norm_tau: float


@dataclass(frozen=True)
class FlowConfig:
    stop_tension: float
    max_steps: int = 50000
    cfl_factor: float = 0.2          # explicit_step only
    dt_initial: Optional[float] = None
    dt_max: float = 1e-2

    def __post_init__(self):
        if self.stop_tension <= 0 or self.max_steps < 1:
            raise ConfigError("stop_tension must be positive, max_steps >= 1")
        if not 0 < self.cfl_factor <= 1:
            raise ConfigError("cfl_factor must lie in (0, 1]")


# ----------------------------------------------------------- tension kernel

@dataclass(frozen=True)
class _Static:
    """Grid-fixed data shared by every flow step."""

    grid: GridChart
    source: ConformalMetric
    target: ConformalMetric
    rhoM2: np.ndarray
    uMx: np.ndarray      # gradient of log rhoM
    uMy: np.ndarray
    dgMx: np.ndarray     # d_x (rhoM^2), d_y (rhoM^2)
    dgMy: np.ndarray


def _static_data(grid: GridChart, source: ConformalMetric,
                 target: ConformalMetric) -> _Static:
    X, Y = grid.mesh()
    rhoM2 = np.broadcast_to(source.rho(X, Y) ** 2, X.shape).copy()
    ux, uy = source.log_rho_grad(X, Y)
    ux = np.broadcast_to(ux, X.shape)
    uy = np.broadcast_to(uy, X.shape)
    return _Static(grid, source, target, rhoM2, ux, uy,
                   2.0 * rhoM2 * ux, 2.0 * rhoM2 * uy)


@dataclass(frozen=True)
class TensionPass:
    """One evaluation of the tension field plus cheap per-step monitors."""

    tau: np.ndarray            # (nx, ny, 2), NaN on the Dirichlet ring
    norm_tau: float
    norm_H: float              # sup of |H| via the harmonic-map route
    min_phi: float
    min_theta: float
    max_abs_jf: float
    eig_max: float             # max eig(g^-1): the implicit step's a
    cfl_dt: float              # largest stable explicit dt for this metric


def _interior(grid: GridChart):
    """Index of the points the tension stencil reaches: all but the
    Dirichlet ring, or every point of a periodic grid."""
    return np.s_[:, :] if grid.periodic else np.s_[1:-1, 1:-1]


def _tension_arrays(values: np.ndarray, st: _Static) -> TensionPass:
    # unrolled 2x2 component arithmetic throughout: the trailing dimensions
    # are tiny, so generic tensor contractions spend their time on overhead
    grid = st.grid
    f1, f2 = values[..., 0], values[..., 1]

    f1x, f1y = grid.d_x(f1), grid.d_y(f1)
    f2x, f2y = grid.d_x(f2), grid.d_y(f2)
    f1xx, f1yy, f1xy = grid.d_xx(f1), grid.d_yy(f1), grid.d_xy(f1)
    f2xx, f2yy, f2xy = grid.d_xx(f2), grid.d_yy(f2), grid.d_xy(f2)

    rhoN2 = np.broadcast_to(st.target.rho(f1, f2) ** 2, f1.shape)
    uNx, uNy = st.target.log_rho_grad(f1, f2)
    uNx = np.broadcast_to(uNx, f1.shape)
    uNy = np.broadcast_to(uNy, f1.shape)

    # induced metric g = rhoM^2 I + rhoN2 * (df^T df)
    p11 = f1x * f1x + f2x * f2x
    p12 = f1x * f1y + f2x * f2y
    p22 = f1y * f1y + f2y * f2y
    g11 = st.rhoM2 + rhoN2 * p11
    g12 = rhoN2 * p12
    g22 = st.rhoM2 + rhoN2 * p22
    detg = g11 * g22 - g12 * g12
    gi11 = g22 / detg
    gi12 = -g12 / detg
    gi22 = g11 / detg

    # d_k g_ij assembled by the product rule (exact metric derivatives,
    # FD only on f): dg_kij = rhoN2 (f_ki . f_j + f_i . f_kj)
    #                       + d_k(rhoN2 o f) p_ij + d_k(rhoM^2) delta_ij
    drx = 2.0 * rhoN2 * (uNx * f1x + uNy * f2x)
    dry = 2.0 * rhoN2 * (uNx * f1y + uNy * f2y)
    dgx11 = 2.0 * rhoN2 * (f1xx * f1x + f2xx * f2x) + drx * p11 + st.dgMx
    dgx12 = rhoN2 * (f1xx * f1y + f2xx * f2y + f1x * f1xy + f2x * f2xy) + drx * p12
    dgx22 = 2.0 * rhoN2 * (f1xy * f1y + f2xy * f2y) + drx * p22 + st.dgMx
    dgy11 = 2.0 * rhoN2 * (f1xy * f1x + f2xy * f2x) + dry * p11 + st.dgMy
    dgy12 = rhoN2 * (f1xy * f1y + f2xy * f2y + f1x * f1yy + f2x * f2yy) + dry * p12
    dgy22 = 2.0 * rhoN2 * (f1yy * f1y + f2yy * f2y) + dry * p22 + st.dgMy

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
    tau = np.stack([tau1, tau2], axis=-1)
    interior = _interior(grid)
    tau_in = tau[interior]
    bad = ~np.isfinite(tau_in)
    if bad.any():
        raise NumericalError(
            f"tension is not finite at {int(np.any(bad, axis=-1).sum())} "
            "points inside the stencil's reach")

    # mean curvature through the harmonic-map identity: tangential part from
    # the two Christoffel contractions, normal part is tau itself
    hM1 = st.uMx * (gi11 - gi22) + 2.0 * st.uMy * gi12 - c1
    hM2 = -st.uMy * (gi11 - gi22) + 2.0 * st.uMx * gi12 - c2
    normH2 = (st.rhoM2 * (hM1 * hM1 + hM2 * hM2)
              + rhoN2 * (tau1 * tau1 + tau2 * tau2))
    norm_H = float(np.sqrt(stencils.finite_abs_max(normH2)))

    # area monitors via determinant ratios (no eigensolve):
    # u1 = sqrt(det gM / det g), u2 = det df sqrt(det gN / det g)
    u1 = np.sqrt(st.rhoM2 ** 2 / detg)
    u2 = (f1x * f2y - f1y * f2x) * np.sqrt(rhoN2 ** 2 / detg)
    with np.errstate(invalid="ignore", divide="ignore"):
        jf = u2 / u1
    min_phi = float(np.nanmin(u1 - u2))
    min_theta = float(np.nanmin(u1 + u2))
    max_jf = stencils.finite_abs_max(jf)

    # largest eigenvalue of ginv: the implicit coefficient, and the explicit
    # CFL cap dt <= cfl h^2 / eig_max
    tr = gi11 + gi22
    disc = np.sqrt(np.clip((gi11 - gi22) ** 2 + 4.0 * gi12 ** 2, 0.0, None))
    eig_max = float(np.max((0.5 * (tr + disc))[interior]))
    h2 = min(grid.hx, grid.hy) ** 2
    return TensionPass(
        tau=tau,
        norm_tau=float(np.max(np.abs(tau_in))),
        norm_H=norm_H,
        min_phi=min_phi,
        min_theta=min_theta,
        max_abs_jf=max_jf,
        eig_max=eig_max,
        cfl_dt=h2 / eig_max,
    )


def tension_pass(mapfield: MapField) -> TensionPass:
    """Evaluate the tension field of a map over its whole grid."""
    st = _static_data(mapfield.grid, mapfield.source, mapfield.target)
    return _tension_arrays(mapfield.values, st)


def tension_field(mapfield: MapField, p: tuple[int, int]) -> np.ndarray:
    """Tension 2-vector at grid index p."""
    sub, (ci, cj) = _window(mapfield, p)
    tau = tension_pass(sub).tau[ci, cj]
    if not np.all(np.isfinite(tau)):
        raise StencilError("tension stencil leaves the grid at this point")
    return tau


# ------------------------------------------------------------------ stepping

@dataclass
class FlowState:
    """Mutable flow state; owned and advanced exclusively by the stepper."""

    map: MapField
    t: float
    dt: float
    tension_norm: float
    steps: int = 0
    monitors: list[MonitorRow] = field(default_factory=list)
    _static: Optional[_Static] = None
    _last: Optional[TensionPass] = None
    _accept_run: int = 0


def make_state(initial: MapField, config: FlowConfig) -> FlowState:
    """Evaluate the initial tension and seed the monitor series (step 0).

    dt starts at dt_initial (or dt_max when unset); the explicit stepper
    applies its CFL cap on each step.
    """
    st = _static_data(initial.grid, initial.source, initial.target)
    tp = _tension_arrays(initial.values, st)
    dt = config.dt_max
    if config.dt_initial is not None:
        dt = min(dt, config.dt_initial)
    state = FlowState(map=initial, t=0.0, dt=dt, tension_norm=tp.norm_tau,
                      _static=st, _last=tp)
    state.monitors.append(_row(state, tp))
    return state


def _row(state: FlowState, tp: TensionPass) -> MonitorRow:
    return MonitorRow(step=state.steps, t=state.t, dt=state.dt,
                      min_phi=tp.min_phi, min_theta=tp.min_theta,
                      max_abs_jf=tp.max_abs_jf, norm_H=tp.norm_H,
                      norm_tau=tp.norm_tau)


def _current(state: FlowState) -> tuple[_Static, TensionPass]:
    if state._static is None or state._last is None:
        state._static = _static_data(state.map.grid, state.map.source,
                                     state.map.target)
        state._last = _tension_arrays(state.map.values, state._static)
        state.tension_norm = state._last.norm_tau
    return state._static, state._last


def _advance(state: FlowState, config: FlowConfig,
             increment: Callable[[float, np.ndarray, TensionPass], np.ndarray],
             dt_cap: Callable[[TensionPass], float]) -> FlowState:
    """Accept one step f <- f + increment(dt, tau, tp) on the structural
    interior (tau is the tension there), halving dt on a chart exit or a
    tension jump. dt is capped by dt_max and by the stepper's dt_cap."""
    st, tp = _current(state)
    interior = _interior(state.map.grid)
    tau = tp.tau[interior]
    h2 = state.map.grid.h ** 2
    dt = min(state.dt, config.dt_max, dt_cap(tp))
    while True:
        if dt < DT_UNDERFLOW_FACTOR * h2:
            raise NumericalError(
                f"flow stalled: dt underflow at t={state.t:.6g} "
                f"(tension {tp.norm_tau:.3e})")
        candidate = state.map.values.copy()
        candidate[interior] += increment(dt, tau, tp)
        f1, f2 = candidate[..., 0], candidate[..., 1]
        if not bool(np.all(st.target.contains(f1, f2))):
            dt *= 0.5
            state._accept_run = 0
            continue
        new_tp = _tension_arrays(candidate, st)
        if new_tp.norm_tau > REJECT_TENSION_FACTOR * max(tp.norm_tau, config.stop_tension):
            dt *= 0.5
            state._accept_run = 0
            continue
        break

    state.map = state.map.with_values(candidate)
    state.t += dt
    state.dt = dt
    state.steps += 1
    state.tension_norm = new_tp.norm_tau
    state._last = new_tp
    state._accept_run += 1
    if state._accept_run >= RECOVERY_RUN:
        state.dt = min(2.0 * dt, config.dt_max, dt_cap(new_tp))
        state._accept_run = 0
    state.monitors.append(_row(state, new_tp))
    return state


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """Advance one accepted linearly implicit step (rejections retry inside).

    Solves (I - dt a Lap_h) delta = dt tau with a = max eig(g^-1) and adds
    delta on the structural interior, so Dirichlet boundary values are
    carried over bit-identically. dt has no CFL cap.
    """
    grid = state.map.grid
    return _advance(
        state, config,
        lambda dt, tau, tp: solve_shifted_laplacian(dt * tau, dt * tp.eig_max, grid),
        lambda tp: math.inf)


def explicit_step(state: FlowState, config: FlowConfig) -> FlowState:
    """Advance one accepted explicit Euler step (rejections retry inside).

    Adds dt * tau on the structural interior, with dt capped at
    cfl_factor * h^2 / max eig(g^-1). Dirichlet boundary values are
    carried over bit-identically; periodic grids update every point.
    """
    return _advance(
        state, config,
        lambda dt, tau, tp: dt * tau,
        lambda tp: config.cfl_factor * tp.cfl_dt)


# ------------------------------------------------------ fast implicit solve

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


def _symbol(n: int, h: float, periodic: bool) -> np.ndarray:
    """Eigenvalues of the 1-D second difference -d_hh on the transform's
    modes: 4 sin^2(theta / 2) / h^2 with theta = 2 pi k / n (periodic) or
    pi k / (n - 1), k = 1..n-2 (Dirichlet interior)."""
    if periodic:
        theta = 2.0 * np.pi * np.arange(n) / n
    else:
        theta = np.pi * np.arange(1, n - 1) / (n - 1)
    return 4.0 * np.sin(0.5 * theta) ** 2 / (h * h)


def solve_shifted_laplacian(rhs: np.ndarray, coef: float,
                            grid: GridChart) -> np.ndarray:
    """Solve (I - coef Lap_h) u = rhs on the structural interior.

    Lap_h is the 5-point Laplacian with the grid's spacings hx, hy. On a
    Dirichlet grid rhs and u cover the interior [1:-1, 1:-1] and u is zero
    on the ring; on a periodic grid they cover the whole grid. Trailing
    axes of rhs are independent components.
    """
    lx = _symbol(grid.nx, grid.hx, grid.periodic)
    ly = _symbol(grid.ny, grid.hy, grid.periodic)
    if grid.periodic:
        ly = ly[:grid.ny // 2 + 1]
    denom = 1.0 + coef * (lx[:, None] + ly[None, :])
    denom = denom.reshape(denom.shape + (1,) * (rhs.ndim - 2))
    if grid.periodic:
        spec = np.fft.rfft2(rhs, axes=(0, 1)) / denom
        return np.fft.irfft2(spec, s=(grid.nx, grid.ny), axes=(0, 1))
    spec = _sine_transform(_sine_transform(rhs, 0), 1) / denom
    scale = 4.0 / ((grid.nx - 1) * (grid.ny - 1))
    return scale * _sine_transform(_sine_transform(spec, 0), 1)


@dataclass(frozen=True)
class FlowResult:
    state: FlowState
    certificate: Certificate
    converged: bool


def run_to_minimal(initial: MapField, config: FlowConfig,
                   hypotheses=None) -> FlowResult:
    """Flow until the tension drops below stop_tension (or max_steps)."""
    state = make_state(initial, config)
    while state.tension_norm > config.stop_tension and state.steps < config.max_steps:
        step(state, config)
    cert = area_decreasing_certificate(state.map, hypotheses)
    return FlowResult(state=state, certificate=cert,
                      converged=state.tension_norm <= config.stop_tension)


# ---------------------------------------------------------------------- io

def write_monitors_csv(state: FlowState, path: str) -> None:
    """Monitor time series, one row per accepted step (plus the seed row)."""
    lines = ["# minmaps flow monitors v1"]
    lines.append(",".join(MONITOR_COLUMNS))
    for r in state.monitors:
        lines.append(f"{r.step},{r.t:.17g},{r.dt:.17g},{r.min_phi:.17g},"
                     f"{r.min_theta:.17g},{r.max_abs_jf:.17g},"
                     f"{r.norm_H:.17g},{r.norm_tau:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_snapshot(mapfield: MapField, path: str) -> None:
    """Plain-text grid dump: header `nx ny h x0 y0`, then one `f1 f2` row
    per point, x-index outermost. Requires square spacing."""
    grid = mapfield.grid
    if abs(grid.hx - grid.hy) > 1e-15 * max(grid.hx, grid.hy):
        raise ConfigError("snapshot format stores a single spacing; "
                          "grid must have hx == hy")
    lines = [f"{grid.nx} {grid.ny} {grid.hx:.17g} {grid.x0:.17g} {grid.y0:.17g}"]
    vals = mapfield.values
    for i in range(grid.nx):
        for j in range(grid.ny):
            lines.append(f"{vals[i, j, 0]:.17g} {vals[i, j, 1]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path: str, source: ConformalMetric,
                  target: ConformalMetric,
                  boundary=None) -> MapField:
    """Rebuild a MapField from a snapshot file (inverse of write_snapshot)."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 5:
        raise ConfigError(f"snapshot {path!r} is truncated")
    nx, ny = int(tokens[0]), int(tokens[1])
    h, x0, y0 = float(tokens[2]), float(tokens[3]), float(tokens[4])
    body = tokens[5:]
    if len(body) != 2 * nx * ny:
        raise ConfigError(f"snapshot {path!r} has {len(body)} values, "
                          f"expected {2 * nx * ny}")
    vals = np.array(body, dtype=float).reshape(nx, ny, 2)
    mode = boundary if boundary is not None else BoundaryMode.DIRICHLET
    span_x = (nx - 1) * h if mode == BoundaryMode.DIRICHLET else nx * h
    span_y = (ny - 1) * h if mode == BoundaryMode.DIRICHLET else ny * h
    grid = GridChart(x0, x0 + span_x, y0, y0 + span_y, nx, ny, boundary=mode)
    return MapField(grid, source, target, vals)
