"""Tension-field evaluation and the stepper (the preconditioned,
Anderson-mixed solver): guards, secant history, boundary pinning, stall
detection, the fast Laplacian solve, and explicit Euler on the tension
pass against the heat semidiscretization."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from minmaps import (ConformalMetric, FlowConfig, GridChart,
                     MapExpr, MapField, TheoremHypotheses, floatfmt, flow,
                     presets)
from minmaps.errors import ConfigError, NumericalError

EUC = ConformalMetric.euclidean()


# one sine mode sin(p x) sin(q y) per component, as (text, p, q)
HEAT_MODES = (("sin(x)*sin(y)", 1, 1), ("sin(2*x)*sin(y)", 2, 1))


def heat_seed(n=32, eps=1e-3):
    """Constant map (0.1, -0.2) between flat factors plus tiny sine modes on
    [0, pi]^2, which vanish on the ring and are eigenvectors of the 5-point
    Laplacian; to O(eps^3) the tension is the 5-point Laplacian of f."""
    grid = GridChart(0.0, math.pi, 0.0, math.pi, n + 1, n + 1)
    (m1, _, _), (m2, _, _) = HEAT_MODES
    expr = MapExpr.parse(f"0.1 + {eps}*{m1}, -0.2 + {eps}*{m2}")
    return MapField.from_expr(grid, EUC, EUC, expr)


def heat_symbol(p, q, h):
    """Eigenvalue of -Lap_h on sin(p x) sin(q y)."""
    return 4.0 * (math.sin(p * h / 2) ** 2 + math.sin(q * h / 2) ** 2) / h ** 2


def mode_amplitudes(mf):
    X, Y = mf.grid.mesh()
    out = []
    for comp, (base, (mode, _, _)) in enumerate(zip((0.1, -0.2), HEAT_MODES)):
        mode = MapExpr.parse(f"{mode}, 0")(X, Y)[..., 0]
        out.append(float(np.sum((mf.values[..., comp] - base) * mode)
                         / np.sum(mode * mode)))
    return out


def affine_with_nan():
    mf = presets.affine_field()
    vals = mf.values.copy()
    vals[16, 16, 0] = np.nan
    return mf.with_values(vals)


def perturbed_z2(n=33, eps=0.01):
    return presets.sine_bump(presets.z_squared_field(n=n), eps)


# ------------------------------------------------------------------- tension

def test_minimal_fixtures_have_vanishing_tension(identity_33, affine_33):
    assert flow.tension_pass(identity_33).norm_tau <= 1e-13
    assert flow.tension_pass(affine_33).norm_tau == 0.0


def test_tension_refines_at_second_order_on_minimal_map():
    norms = [flow.tension_pass(presets.paper_example_field(n=n)).norm_tau
             for n in (17, 33, 65)]
    assert 3.4 <= norms[0] / norms[1] <= 4.6
    assert 3.4 <= norms[1] / norms[2] <= 4.6


def test_tension_queries_share_one_pass(monkeypatch):
    # every interior read goes through the field's one cached pass
    mf = presets.z_squared_field(n=33)
    real = flow.tension_pass
    calls = []
    monkeypatch.setattr(flow, "tension_pass",
                        lambda m: calls.append(m) or real(m))
    points = [(i, j) for i in range(1, 32) for j in range(1, 32)]
    answers = [mf.tension.tau[p] for p in points]
    assert len(points) == 961 and calls == [mf]
    tau = real(mf).tau
    for p, got in zip(points, answers):
        assert got.tobytes() == tau[p].tobytes()


def test_tension_pass_monitors_match_pointwise_route(z2_33):
    # monitor extrema and the pointwise pass share one kernel; on the same
    # stencil-limited map (no formula: finite-difference df) they are equal
    tp = flow.tension_pass(z2_33)
    bare = MapField(z2_33.grid, z2_33.source, z2_33.target, z2_33.values).pointwise
    assert tp.min_phi == np.nanmin(bare.phi)
    assert tp.min_theta == np.nanmin(bare.theta)
    assert tp.max_abs_jf == np.nanmax(np.abs(bare.jf))


def test_last_monitor_row_equals_the_certificate(z2_65):
    # criterion 7's start: after the first step the map has no formula, so
    # the flow's monitors and the certificate read the same df, metric and
    # kernel, and the last row is the certificate bit for bit
    start = presets.sine_bump(z2_65, 0.01)
    cfg = FlowConfig(stop_tension=flow.tension_pass(start).norm_tau / 1000.0)
    result = flow.run_to_minimal(start, cfg)
    assert result.converged and result.state.steps >= 1
    last, cert = result.state.monitors[-1], result.certificate
    for name in ("min_phi", "min_theta", "max_abs_jf"):
        assert getattr(last, name).hex() == getattr(cert, name).hex(), name


def test_nan_inside_stencil_reach_is_a_numerical_error():
    # one NaN sample in an otherwise tension-free map must not read as
    # machine zero: tension, run_to_minimal and step all raise
    mf = affine_with_nan()
    with pytest.raises(NumericalError, match="not finite at 9 points"):
        flow.tension_pass(mf)
    with pytest.raises(NumericalError):
        flow.run_to_minimal(mf, FlowConfig(stop_tension=1e-8))
    cfg = FlowConfig(stop_tension=1e-8)
    state = flow.make_state(presets.affine_field(), cfg)
    state.map = mf
    with pytest.raises(NumericalError, match="not finite"):
        flow.step(state, cfg)


# ------------------------------------------------------------------ stepping

def test_config_validation():
    with pytest.raises(ConfigError):
        FlowConfig(stop_tension=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(stop_tension=1e-6, max_steps=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-3],
                         ids=lambda v: f"stop_tension-{v}")
def test_config_rejects_nonfinite_or_nonpositive(value):
    # a NaN stop_tension would end the run unconverged after zero steps
    with pytest.raises(ConfigError, match="stop_tension"):
        FlowConfig(stop_tension=value)


def test_already_minimal_map_converges_without_stepping(z2_33):
    result = flow.run_to_minimal(z2_33, FlowConfig(stop_tension=1.0))
    assert result.converged
    assert result.state.steps == 0
    assert len(result.state.monitors) == 1


def test_boundary_rows_are_pinned_bitwise():
    mf = perturbed_z2()
    before = mf.values.copy()
    cfg = FlowConfig(stop_tension=1e-8)
    state = flow.make_state(mf, cfg)
    for _ in range(3):
        flow.step(state, cfg)
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


def test_guard_clears_history_and_halves_length():
    cfg = FlowConfig(stop_tension=1e-10)
    state = flow.make_state(perturbed_z2(), cfg)
    flow.step(state, cfg)
    flow.step(state, cfg)
    assert state.monitors[-1].depth == 1
    # a synthetic tension spike in the current pass drives the candidates
    # out of the disc and above the tension-jump guard; the step survives
    # as a plain step at a halved length
    state.map.tension.tau[16, 16, :] = 1e4
    flow.step(state, cfg)
    row = state.monitors[-1]
    assert state.steps == 3
    assert row.dt == state.dt < 1 / 4
    assert row.depth == 0
    assert row.chart_exits > 0 and row.tension_jumps > 0
    assert state.rejections == row.chart_exits + row.tension_jumps
    assert math.log2(1 / row.dt) == state.rejections
    assert bool(np.all(np.hypot(state.map.values[..., 0],
                                state.map.values[..., 1]) < 1.0))
    # the history restarts: a plain step, then one secant pair
    flow.step(state, cfg)
    flow.step(state, cfg)
    assert [r.depth for r in state.monitors[-2:]] == [0, 1]
    assert [r.dt for r in state.monitors[-2:]] == [1.0, 1.0]


def test_assigned_map_drives_the_next_step():
    # the state keeps no tension of its own: after `state.map = b` a step
    # is byte for byte the step of a fresh state made from b
    cfg = FlowConfig(stop_tension=1e-10)
    b = perturbed_z2(eps=-0.01)
    fresh = flow.make_state(b, cfg)
    flow.step(fresh, cfg)
    state = flow.make_state(perturbed_z2(eps=0.01), cfg)
    state.map = b
    flow.step(state, cfg)
    assert state.map.values.tobytes() == fresh.map.values.tobytes()
    assert state.tension_norm < flow.tension_pass(b).norm_tau
    # a map on another grid steps as well
    state = flow.make_state(perturbed_z2(), cfg)
    state.map = perturbed_z2(n=17)
    flow.step(state, cfg)
    flow.step(state, cfg)
    assert state.steps == 2 and state.map.grid.nx == 17


def test_assigned_map_restarts_the_secant_history():
    # the history belongs to the map it was built from: after two steps
    # from a, assigning b gives the bytes of a fresh state's steps from b
    cfg = FlowConfig(stop_tension=1e-10)
    b = perturbed_z2(eps=-0.01)
    fresh = flow.make_state(b, cfg)
    state = flow.make_state(perturbed_z2(eps=0.01), cfg)
    flow.step(state, cfg)
    flow.step(state, cfg)
    assert state.monitors[-1].depth == 1
    state.map = b
    for _ in range(3):
        flow.step(fresh, cfg)
        flow.step(state, cfg)
        assert state.map.values.tobytes() == fresh.map.values.tobytes()
    assert [r.depth for r in state.monitors[-3:]] == [0, 1, 2]


def test_anderson_update_matches_least_squares():
    # r - (dX + dR) gamma with gamma = argmin |r - dR gamma|^2 + ridge |gamma|^2,
    # checked against LAPACK least squares on the stacked system
    rng = np.random.default_rng(3)
    r = rng.standard_normal(200)
    dxs = [rng.standard_normal(200) for _ in range(4)]
    drs = [rng.standard_normal(200) for _ in range(4)]

    out, depth = flow._anderson(r, dxs, drs)
    DX, DR = np.stack(dxs, axis=1), np.stack(drs, axis=1)
    ridge = flow._SECANT_RIDGE * np.sum(DR * DR)
    gamma = np.linalg.lstsq(np.vstack([DR, math.sqrt(ridge) * np.eye(4)]),
                            np.concatenate([r, np.zeros(4)]), rcond=None)[0]
    assert depth == 4
    assert np.abs(out - (r - (DX + DR) @ gamma)).max() <= 1e-12
    # dependent secants stay bounded and mix as one direction: the update
    # is the minimum-norm least-squares one up to the ridge
    dxs, drs = [dxs[0], dxs[1]], [2.0 * drs[1], drs[1]]
    out, depth = flow._anderson(r, dxs, drs)
    DX, DR = np.stack(dxs, axis=1), np.stack(drs, axis=1)
    gamma = np.linalg.lstsq(DR, r, rcond=1e-8)[0]
    assert np.abs(out - (r - (DX + DR) @ gamma)).max() <= 1e-6
    # secants that moved nothing mix nothing
    zeros = [np.zeros(200), np.zeros(200)]
    out, depth = flow._anderson(r, zeros, zeros)
    assert out.tobytes() == r.tobytes()


def test_anderson_bytes_do_not_depend_on_blas_threads():
    # a threaded BLAS dot sums long vectors in an order that depends on its
    # thread count; the mixed step must not
    code = ("import hashlib, numpy as np; from minmaps import flow; "
            "rng = np.random.default_rng(5); "
            "v = [rng.standard_normal(130050) for _ in range(5)]; "
            "out = flow._anderson(v[0], v[1:3], v[3:5])[0]; "
            "print(hashlib.sha256(out.tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_anderson_halves_the_iterations_on_an_anisotropic_map(monkeypatch):
    # hyperbolic(0.5) over a stretched image: g^-1 is far from isotropic,
    # so a = max eig(g^-1) over-damps the plain iteration
    grid = GridChart(-0.4, 0.4, -0.4, 0.4, 33, 33)
    mf = MapField.from_expr(grid, ConformalMetric.poincare_disc(),
                            ConformalMetric.hyperbolic(0.5),
                            MapExpr.parse("0.5*x + 0.3*y^2, 0.3*y - 0.2*x*y"))
    cfg = FlowConfig(stop_tension=mf.tension.norm_tau / 1e6, max_steps=200)
    mixed = flow.run_to_minimal(mf, cfg)
    assert max(r.depth for r in mixed.state.monitors) == flow.ANDERSON_DEPTH
    monkeypatch.setattr(flow, "ANDERSON_DEPTH", 0)
    plain = flow.run_to_minimal(mf, cfg)
    assert mixed.converged and plain.converged
    assert all(r.depth == 0 for r in plain.state.monitors)
    assert mixed.state.rejections == plain.state.rejections == 0
    assert 2 * mixed.state.steps < plain.state.steps


def test_stop_below_roundoff_never_reads_converged():
    # the tension cannot reach 1e-300 in double precision: the run either
    # ends unconverged at max_steps or raises, never reads converged
    cfg = FlowConfig(stop_tension=1e-300, max_steps=60)
    try:
        result = flow.run_to_minimal(perturbed_z2(), cfg)
    except NumericalError as exc:
        assert "stalled" in str(exc)
    else:
        assert not result.converged
        assert result.state.steps == 60
        assert 0 < result.state.tension_norm < 1e-8


def test_flow_samples_the_source_factor_once(monkeypatch):
    # each step's candidate shares the source samples of the current map,
    # and the closing certificate reads them too
    mf = perturbed_z2()
    X, _ = mf.grid.mesh()
    sampled = []
    for name in ("rho", "log_rho_grad", "curvature"):
        def spy(self, x, y, _real=getattr(ConformalMetric, name), _name=name):
            if np.array_equal(x, X):
                sampled.append(_name)
            return _real(self, x, y)
        monkeypatch.setattr(ConformalMetric, name, spy)
    result = flow.run_to_minimal(mf, FlowConfig(stop_tension=1e-30, max_steps=5))
    assert result.state.steps == 5
    assert sorted(sampled) == ["log_rho_grad", "rho"]


def test_flow_stall_raises():
    cfg = FlowConfig(stop_tension=1e-10)
    # an infinite tension in the CURRENT pass (not the update) cannot be
    # halved away: every retry leaves the chart, so the length underflows
    state = flow.make_state(presets.z_squared_field(n=33), cfg)
    state.map.tension.tau[16, 16, 0] = np.inf
    with pytest.raises(NumericalError, match="stalled"), \
            np.errstate(invalid="ignore"):
        flow.step(state, cfg)


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
    # to O(amplitude^3), by the 5-point heat stencil: explicit Euler steps
    # f + dt tau(f) on the interior (the ring is pinned) decay the mode
    # sin(p x) sin(q y) as (1 - dt lambda_h)^k with lambda_h its symbol
    eps = 1e-3
    mf = heat_seed(eps=eps)
    dt, steps = 1e-4, 200
    for _ in range(steps):
        vals = mf.values.copy()
        vals[1:-1, 1:-1] += dt * mf.tension.tau[1:-1, 1:-1]
        mf = mf.with_values(vals)

    h = mf.grid.hx
    for amp, (_, p, q) in zip(mode_amplitudes(mf), HEAT_MODES):
        want = eps * (1.0 - dt * heat_symbol(p, q, h)) ** steps
        assert amp == pytest.approx(want, rel=1e-5)


def test_plain_iteration_removes_heat_modes():
    # on flat factors a = 1 and tau = Lap_h f + O(eps^3), so one plain
    # iteration f + (-Lap_h)^-1 tau removes the sine modes to O(eps^3)
    eps = 1e-3
    mf = heat_seed(eps=eps)
    cfg = FlowConfig(stop_tension=1e-30)
    state = flow.make_state(mf, cfg)
    flow.step(state, cfg)
    row = state.monitors[-1]
    assert (row.dt, row.depth, row.chart_exits, row.tension_jumps) == (1.0, 0, 0, 0)
    assert mf.tension.eig_max == 1.0
    for amp in mode_amplitudes(state.map):
        assert abs(amp) <= 2 * eps ** 3
    base = np.array([0.1, -0.2])
    assert np.abs(state.map.values - base).max() <= 2 * eps ** 3
    assert state.tension_norm <= 1e-5 * mf.tension.norm_tau


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


def test_laplacian_solve_residual():
    # the preconditioner solves -coef Lap_h u = rhs with u = 0 on the ring.
    # The symbol is cached per grid, so a second solve on the same grid
    # checks the cache too
    grid = GridChart(0.0, 1.0, 0.0, 2.5, 33, 20)
    assert grid.hx != grid.hy
    interior = np.s_[1:-1, 1:-1]
    for coef in (0.37, 2.5):
        u = np.zeros((grid.nx, grid.ny, 2))
        rhs = np.random.default_rng(7).standard_normal(u[interior].shape)
        u[interior] = flow.solve_laplacian(rhs, coef, grid)
        for k in range(2):
            lap = grid.d_xx(u[..., k]) + grid.d_yy(u[..., k])
            assert np.abs(-coef * lap[interior] - rhs[..., k]).max() <= 1e-12


def test_symbol_cache_keeps_no_chart_alive():
    # the solver's symbol cache keys on shape and spacings, so a chart and
    # the mesh it holds are freed once the caller drops them
    import gc
    import weakref

    grid = GridChart(0.0, 1.0, 0.0, 2.5, 21, 17)
    grid.mesh()
    alive = weakref.ref(grid)
    rhs = np.ones((grid.nx - 2, grid.ny - 2))
    first = flow.solve_laplacian(rhs, 1.0, grid)
    del grid
    gc.collect()
    assert alive() is None
    again = flow.solve_laplacian(rhs, 1.0, GridChart(0.0, 1.0, 0.0, 2.5, 21, 17))
    assert np.array_equal(first, again)


# ------------------------------------------------------------------------ io

def test_monitors_csv_format(tmp_path):
    mf = perturbed_z2()
    cfg = FlowConfig(stop_tension=1e-8)
    state = flow.make_state(mf, cfg)
    flow.step(state, cfg)
    out = tmp_path / "monitors.csv"
    flow.write_monitors_csv(state, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "# minmaps flow monitors v2"
    assert lines[1] == ("step,length,depth,min_phi,min_theta,max_abs_jf,"
                        "norm_H,norm_tau,chart_exits,tension_jumps")
    assert len(lines) == 2 + len(state.monitors)
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
    second = lines[3].split(",")
    assert second[:3] == ["1", "1", "0"] and second[8:] == ["0", "0"]
    assert float(second[3]) == state.monitors[1].min_phi
    assert float(second[7]) == state.monitors[1].norm_tau


def test_snapshot_matches_per_value_writer(tmp_path):
    from text_oracle import snapshot_bytes

    # 129 x 129 points span several write blocks, the last one partial; the
    # noise fills all 17 digits
    mf = presets.z_squared_field(n=129)
    full, rest = divmod(mf.grid.nx * mf.grid.ny, floatfmt._BLOCK_VALUES // 2)
    assert full >= 1 and rest
    noise = np.random.default_rng(7).standard_normal(mf.values.shape)
    mf = MapField(mf.grid, mf.source, mf.target, mf.values + 1e-3 * noise)
    path = tmp_path / "map.txt"
    flow.write_snapshot(mf, str(path))
    assert path.read_bytes() == snapshot_bytes(mf)


def test_snapshot_requires_square_spacing(tmp_path, paper_33):
    with pytest.raises(ConfigError):
        flow.write_snapshot(paper_33, str(tmp_path / "nope.txt"))

