"""Tension-field evaluation and the two relaxation steppers (linearly
implicit and explicit Euler): step control, boundary pinning, stall
detection, the fast implicit solve, and agreement with plain heat flow."""

import math

import numpy as np
import pytest

from minmaps import (BoundaryMode, ConformalMetric, FlowConfig, GridChart,
                     MapExpr, MapField, TheoremHypotheses, flow, presets)
from minmaps.errors import ConfigError, NumericalError, StencilError

EUC = ConformalMetric.euclidean()


def heat_seed(n=32, eps=1e-3):
    """Constant map between flat factors plus tiny sine modes on a periodic
    grid; to O(eps^3) the tension is the 5-point Laplacian of f."""
    grid = GridChart(0.0, 2 * math.pi, 0.0, 2 * math.pi, n, n,
                     boundary=BoundaryMode.PERIODIC)
    expr = MapExpr.parse(f"0.1 + {eps}*sin(x)*sin(y), -0.2 + {eps}*sin(x)*cos(y)")
    return MapField.from_expr(grid, EUC, EUC, expr)


def mode_amplitudes(mf):
    X, Y = mf.grid.mesh()
    out = []
    for comp, mode in ((0, np.sin(X) * np.sin(Y)), (1, np.sin(X) * np.cos(Y))):
        out.append(float(np.sum(mf.values[..., comp] * mode) / np.sum(mode * mode)))
    return out


def affine_with_nan():
    mf = presets.affine_field()
    vals = mf.values.copy()
    vals[16, 16, 0] = np.nan
    return mf.with_values(vals)


def perturbed_z2(n=33, eps=0.01):
    base = presets.z_squared_field(n=n)
    g = base.grid
    X, Y = g.mesh()
    bump = eps * np.sin(np.pi * (X - g.x0) / (g.x1 - g.x0)) \
               * np.sin(np.pi * (Y - g.y0) / (g.y1 - g.y0))
    return MapField(g, base.source, base.target, base.values + bump[..., None])


# ------------------------------------------------------------------- tension

def test_minimal_fixtures_have_vanishing_tension(identity_33, affine_33):
    assert flow.tension_pass(identity_33).norm_tau <= 1e-13
    assert flow.tension_pass(affine_33).norm_tau == 0.0


def test_tension_refines_at_second_order_on_minimal_map():
    norms = [flow.tension_pass(presets.paper_example_field(nx=n)).norm_tau
             for n in (17, 33, 65)]
    assert 3.4 <= norms[0] / norms[1] <= 4.6
    assert 3.4 <= norms[1] / norms[2] <= 4.6


def test_tension_point_api(z2_33):
    tp = flow.tension_pass(z2_33)
    assert flow.tension_field(z2_33, (16, 16)) == pytest.approx(tp.tau[16, 16], rel=1e-12)
    with pytest.raises(StencilError):
        flow.tension_field(z2_33, (0, 5))


def test_tension_pass_monitors_match_pointwise_route(z2_33):
    # monitor extrema come from determinant ratios over the points the flow
    # can see (finite-difference interior); they must agree with the eigen
    # route of the pointwise pass on the same stencil-limited map
    tp = flow.tension_pass(z2_33)
    bare = MapField(z2_33.grid, z2_33.source, z2_33.target, z2_33.values).pointwise
    assert tp.min_phi == pytest.approx(np.nanmin(bare.phi), abs=1e-12)
    assert tp.min_theta == pytest.approx(np.nanmin(bare.theta), abs=1e-12)
    assert tp.max_abs_jf == pytest.approx(np.nanmax(np.abs(bare.jf)), abs=1e-12)
    assert tp.cfl_dt == pytest.approx(z2_33.grid.h ** 2 / tp.eig_max, rel=1e-15)


def test_nan_inside_stencil_reach_is_a_numerical_error():
    # one NaN sample in an otherwise tension-free map must not read as
    # machine zero: tension, run_to_minimal and both steppers all raise
    mf = affine_with_nan()
    with pytest.raises(NumericalError, match="not finite at 9 points"):
        flow.tension_pass(mf)
    with pytest.raises(NumericalError):
        flow.run_to_minimal(mf, FlowConfig(stop_tension=1e-8))
    cfg = FlowConfig(stop_tension=1e-8)
    for stepper in (flow.step, flow.explicit_step):
        state = flow.make_state(presets.affine_field(), cfg)
        state.map = mf
        with pytest.raises(NumericalError, match="not finite"):
            stepper(state, cfg)


# ------------------------------------------------------------------ stepping

def test_config_validation():
    with pytest.raises(ConfigError):
        FlowConfig(stop_tension=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(stop_tension=1e-6, cfl_factor=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(stop_tension=1e-6, cfl_factor=1.5)
    with pytest.raises(ConfigError):
        FlowConfig(stop_tension=1e-6, max_steps=0)


def test_already_minimal_map_converges_without_stepping(z2_33):
    result = flow.run_to_minimal(z2_33, FlowConfig(stop_tension=1.0))
    assert result.converged
    assert result.state.steps == 0
    assert len(result.state.monitors) == 1


def test_boundary_rows_are_pinned_bitwise():
    mf = perturbed_z2()
    before = mf.values.copy()
    cfg = FlowConfig(stop_tension=1e-8)
    for stepper in (flow.step, flow.explicit_step):
        state = flow.make_state(mf, cfg)
        for _ in range(3):
            stepper(state, cfg)
        after = state.map.values
        assert state.steps == 3
        for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            assert after[sl].tobytes() == before[sl].tobytes()
        assert not np.array_equal(after[1:-1, 1:-1], before[1:-1, 1:-1])


def test_monitor_series_grows_with_steps():
    mf = perturbed_z2()
    cfg = FlowConfig(stop_tension=1e-8)
    state = flow.make_state(mf, cfg)
    for _ in range(5):
        flow.step(state, cfg)
    assert [r.step for r in state.monitors] == list(range(6))
    assert len(state.monitors) == state.steps + 1
    taus = [r.norm_tau for r in state.monitors]
    assert taus[-1] < taus[0]
    assert all(r.dt > 0 for r in state.monitors)


def test_rejection_halves_dt_until_acceptable(z2_33):
    cfg = FlowConfig(stop_tension=1e-10, cfl_factor=1.0, dt_max=10.0)
    state = flow.make_state(z2_33, cfg)
    # the explicit stepper starts from its CFL-capped dt
    dt0 = min(state.dt, cfg.cfl_factor * state._last.cfl_dt)
    # a synthetic tension spike drives the candidate outside the disc and
    # above the tension-jump guard; the step must survive by halving dt
    state._last.tau[16, 16, :] = 500.0
    flow.explicit_step(state, cfg)
    assert state.steps == 1
    assert state.dt < dt0 / 4
    assert state.monitors[-1].dt == state.dt
    assert bool(np.all(np.hypot(state.map.values[..., 0],
                                state.map.values[..., 1]) < 1.0))


def test_implicit_rejection_halves_dt_until_acceptable(z2_33):
    cfg = FlowConfig(stop_tension=1e-10, dt_max=10.0)
    state = flow.make_state(z2_33, cfg)
    dt0 = state.dt
    assert dt0 == cfg.dt_max
    state._last.tau[16, 16, :] = 500.0
    flow.step(state, cfg)
    assert state.steps == 1
    assert state.dt < dt0 / 4
    assert state.monitors[-1].dt == state.dt
    assert bool(np.all(np.hypot(state.map.values[..., 0],
                                state.map.values[..., 1]) < 1.0))


def test_flow_stall_raises():
    base = presets.z_squared_field(n=33)
    cfg = FlowConfig(stop_tension=1e-10, cfl_factor=1.0)
    # a spike in the CURRENT values (not the update) cannot be halved away,
    # so every retry re-detects the tension jump and dt underflows
    for stepper in (flow.explicit_step, flow.step):
        state = flow.make_state(base, cfg)
        state.map = state.map.with_values(state.map.values.copy())
        state.map.values[16, 16, 0] += 5e-3
        with pytest.raises(NumericalError, match="stalled"):
            stepper(state, cfg)


def test_max_steps_bounds_work():
    result = flow.run_to_minimal(perturbed_z2(), FlowConfig(stop_tension=1e-30,
                                                            max_steps=5))
    assert not result.converged
    assert result.state.steps == 5


def test_relaxation_reduces_tension_and_certifies():
    mf = perturbed_z2()
    start = flow.tension_pass(mf).norm_tau
    cfg = FlowConfig(stop_tension=start / 4)
    result = flow.run_to_minimal(mf, cfg, hypotheses=TheoremHypotheses(1.0, 1.0))
    assert result.converged
    assert result.state.tension_norm <= start / 4
    assert result.certificate.hypothesis_ok is True
    assert result.certificate.min_phi > 0


def test_flow_agrees_with_heat_semidiscretization():
    # tiny sine perturbations of a constant map between flat factors evolve,
    # to O(amplitude^3), by the 5-point heat stencil whose modes decay as
    # (1 - dt lambda_h)^k with lambda_h = 8 sin^2(h/2) / h^2
    eps = 1e-3
    mf = heat_seed(eps=eps)
    dt = 1e-4
    cfg = FlowConfig(stop_tension=1e-9, cfl_factor=1.0,
                     dt_initial=dt, dt_max=dt)
    state = flow.make_state(mf, cfg)
    steps = 200
    for _ in range(steps):
        flow.explicit_step(state, cfg)
    assert all(r.dt == dt for r in state.monitors)
    assert state.t == pytest.approx(steps * dt, rel=1e-12)

    h = mf.grid.hx
    lam = 8.0 * math.sin(h / 2) ** 2 / h ** 2
    want = eps * (1.0 - dt * lam) ** steps
    for amp in mode_amplitudes(state.map):
        assert amp == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("dt, steps", [(1e-4, 200), (0.5, 10)])
def test_implicit_flow_matches_backward_euler_heat_decay(dt, steps):
    # with a = max eig(g^-1) = 1 on flat factors the implicit step is
    # backward Euler for the 5-point heat equation: modes decay as
    # (1 + dt lambda_h)^-k, also at dt far beyond the explicit CFL cap
    eps = 1e-3
    mf = heat_seed(eps=eps)
    cfg = FlowConfig(stop_tension=1e-12, dt_initial=dt, dt_max=dt)
    state = flow.make_state(mf, cfg)
    for _ in range(steps):
        flow.step(state, cfg)
    assert all(r.dt == dt for r in state.monitors)
    assert state.t == pytest.approx(steps * dt, rel=1e-12)
    if dt == 0.5:
        assert dt > 12 * state._last.cfl_dt

    h = mf.grid.hx
    lam = 8.0 * math.sin(h / 2) ** 2 / h ** 2
    want = eps * (1.0 + dt * lam) ** -steps
    for amp in mode_amplitudes(state.map):
        assert amp == pytest.approx(want, rel=1e-5)


def test_implicit_step_count_does_not_grow_with_grid():
    # criterion-7 start (z^2 plus a 0.01 sine bump), relaxed 1000x
    counts = []
    for n in (33, 65, 129):
        mf = perturbed_z2(n=n)
        tau0 = flow.tension_pass(mf).norm_tau
        result = flow.run_to_minimal(mf, FlowConfig(stop_tension=tau0 / 1000.0))
        assert result.converged
        assert result.certificate.area_decreasing
        counts.append(result.state.steps)
    assert max(counts) <= 1.1 * min(counts)


@pytest.mark.parametrize("boundary", [BoundaryMode.DIRICHLET, BoundaryMode.PERIODIC])
def test_shifted_laplacian_solve_residual(boundary):
    grid = GridChart(0.0, 1.0, 0.0, 2.5, 33, 20, boundary=boundary)
    assert grid.hx != grid.hy
    interior = np.s_[:, :] if grid.periodic else np.s_[1:-1, 1:-1]
    u = np.zeros((grid.nx, grid.ny, 2))
    rhs = np.random.default_rng(7).standard_normal(u[interior].shape)
    coef = 0.37
    u[interior] = flow.solve_shifted_laplacian(rhs, coef, grid)
    for k in range(2):
        lap = grid.d_xx(u[..., k]) + grid.d_yy(u[..., k])
        residual = (u[..., k] - coef * lap)[interior] - rhs[..., k]
        assert np.abs(residual).max() <= 1e-12


# ------------------------------------------------------------------------ io

def test_monitors_csv_format(tmp_path):
    mf = perturbed_z2()
    cfg = FlowConfig(stop_tension=1e-8)
    state = flow.make_state(mf, cfg)
    flow.step(state, cfg)
    out = tmp_path / "monitors.csv"
    flow.write_monitors_csv(state, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "# minmaps flow monitors v1"
    assert lines[1] == "step,t,dt,min_phi,min_theta,max_abs_jf,norm_H,norm_tau"
    assert len(lines) == 2 + len(state.monitors)
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert float(lines[3].split(",")[7]) == state.monitors[1].norm_tau


def test_snapshot_round_trip(tmp_path, z2_33):
    path = tmp_path / "map.txt"
    flow.write_snapshot(z2_33, str(path))
    back = flow.read_snapshot(str(path), z2_33.source, z2_33.target)
    assert np.array_equal(back.values, z2_33.values)
    assert back.grid.nx == 33 and back.grid.ny == 33
    assert back.grid.hx == pytest.approx(z2_33.grid.hx, rel=1e-15)
    assert back.grid.x0 == z2_33.grid.x0


def test_snapshot_requires_square_spacing(tmp_path, paper_33):
    with pytest.raises(ConfigError):
        flow.write_snapshot(paper_33, str(tmp_path / "nope.txt"))


def test_snapshot_rejects_truncation(tmp_path, z2_33):
    path = tmp_path / "map.txt"
    flow.write_snapshot(z2_33, str(path))
    text = path.read_text()
    clipped = tmp_path / "clipped.txt"
    clipped.write_text("\n".join(text.splitlines()[:-3]) + "\n")
    with pytest.raises(ConfigError):
        flow.read_snapshot(str(clipped), z2_33.source, z2_33.target)
