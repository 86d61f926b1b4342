"""Per-point singular data: worked 2x2 cases, frame reconstruction, and
algebraic invariants under randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmaps import ConformalMetric, GridChart, MapExpr, MapField, flow, presets
from minmaps.errors import ChartDomainError
from minmaps.pointwise import area_cosines, singular_decomposition

from crosscheck_oracle import classification_masks

def decompose(df, rhoM2=1.0, rhoN2=1.0):
    return singular_decomposition(np.asarray(df, float), rhoM2, rhoN2)


# ------------------------------------------------------------- differential

def euclidean_field(expr_text, n=9, half=1.0):
    grid = GridChart(-half, half, -half, half, n, n)
    return MapField.from_expr(grid, ConformalMetric.euclidean(),
                              ConformalMetric.euclidean(),
                              MapExpr.parse(expr_text))


def fd_differential(mf):
    """df_field of the same samples without the formula: order-2 central
    differences, NaN on the Dirichlet ring."""
    return MapField(mf.grid, mf.source, mf.target, mf.values).df_field


def test_map_field_values_are_read_only():
    # the cached pointwise, graph and tension passes read `values`, so
    # writing into it must fail, also on a field made by with_values
    mf = euclidean_field("x + y, x*y")
    with pytest.raises(ValueError, match="read-only"):
        mf.values[4, 4, 0] = 1.0
    moved = mf.with_values(mf.values + 1.0)
    with pytest.raises(ValueError, match="read-only"):
        moved.values[..., 1] *= 2.0
    assert moved.source_samples is mf.source_samples


@pytest.mark.parametrize("make", ["with_values", "constructor"])
def test_map_field_keeps_a_private_copy(make):
    # the caller's array cannot change a field, or the passes it cached
    mf = presets.sine_bump(presets.z_squared_field(n=33), 0.01)
    raw = np.array(mf.values)
    m2 = mf.with_values(raw) if make == "with_values" else \
        MapField(mf.grid, mf.source, mf.target, raw)
    cached = m2.tension.norm_tau
    raw[5:10, 5:10] += 1e-3
    assert m2.values.tobytes() == mf.values.tobytes()
    assert cached == flow.tension_pass(mf).norm_tau
    assert flow.tension_pass(m2).norm_tau == cached


def test_with_values_checks_only_the_image(monkeypatch):
    # grid and source are inherited and were checked when the parent was
    # made: a with_values field evaluates the source domain zero times
    mf = presets.z_squared_field(n=33)
    checked = []
    real = ConformalMetric.check_domain
    monkeypatch.setattr(ConformalMetric, "check_domain",
                        lambda self, x, y, what="point":
                        checked.append(what) or real(self, x, y, what))
    moved = mf.with_values(mf.values * 0.5)
    assert checked == ["map image"]
    assert moved.source is mf.source and moved.grid is mf.grid
    with pytest.raises(ChartDomainError, match="map image"):
        mf.with_values(mf.values * 3.0)
    checked.clear()
    MapField(mf.grid, mf.source, mf.target, mf.values)
    assert checked == ["grid", "map image"]


def test_custom_factor_samples_rho_once_per_field():
    # rho^2, the positivity check of grad log rho and the r^2 of the
    # curvature share one evaluation of the compiled rho per factor
    disc = "custom:2/(1-x^2-y^2)"
    source, target = presets.parse_metric_spec(disc), presets.parse_metric_spec(disc)
    calls = {"source": 0, "target": 0}
    for side, metric in (("source", source), ("target", target)):
        programs = metric._programs

        def counted(x, y, side=side, rho=programs[0]):
            calls[side] += 1
            return rho(x, y)
        metric.__dict__["_programs"] = (counted, *programs[1:])
    chart = presets.SCENARIO_SPECS["z_squared"][3]
    mf = MapField.from_expr(GridChart(*chart, 33, 33), source, target,
                            presets.parse_map_spec("z_squared"))
    mf.pointwise, mf.graph, mf.tension
    assert calls == {"source": 1, "target": 1}
    # the curvature bytes of -(lap log rho) / (r r)
    for metric, samples, (x, y) in (
            (source, mf.source_samples, mf.grid.mesh()),
            (target, mf.target_samples, (mf.values[..., 0], mf.values[..., 1]))):
        r = metric._programs[0](x, y)
        want = -metric._programs[3](x, y) / (r * r)
        assert np.array_equal(samples.curvature, want)
        assert np.array_equal(metric.curvature(x, y), want)
        assert np.allclose(want, -1.0, atol=1e-12)


def test_differential_identity_and_affine_exact():
    df = fd_differential(euclidean_field("x, y"))
    assert df[4, 4] == pytest.approx(np.eye(2), abs=1e-15)
    df = fd_differential(euclidean_field("2*x, 3*y", half=0.5))
    # central differences are exact on affine maps
    assert df[2, 6] == pytest.approx(np.diag([2.0, 3.0]), abs=1e-13)


def test_differential_spec_map_at_origin():
    # d f(0,0) = diag(2, 1/2) for f = (e^x - 3e^-x)/2 (cos y/2, -sin y/2);
    # central differences approximate it at order h^2
    from minmaps.presets import paper_example_field
    exact = np.diag([2.0, 0.5])
    errs = []
    for nx in (65, 129):
        mf = paper_example_field(n=nx)
        i, j = mf.grid.nx // 2, mf.grid.ny // 2
        assert mf.grid.point(i, j) == (0.0, 0.0)
        errs.append(np.abs(fd_differential(mf)[i, j] - exact).max())
    assert errs[0] < 1.5e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_differential_boundary_stencil_raises():
    # on the ring x = x0 the central x-stencil leaves the Dirichlet grid:
    # the x-column of df is NaN there, the y-column is still computed
    df = fd_differential(euclidean_field("x, y"))
    assert np.all(np.isnan(df[0, 4, :, 0])) and np.all(np.isfinite(df[0, 4, :, 1]))
    assert np.all(np.isnan(df[-1, 4, :, 0]))
    assert np.all(np.isnan(df[4, 0, :, 1])) and np.all(np.isfinite(df[4, 0, :, 0]))
    assert np.all(np.isfinite(df[1:-1, 1:-1]))


# -------------------------------------------------- singular decomposition

def test_decomposition_identity():
    lam, mu, s, a1, a2, b1, b2 = decompose(np.eye(2))
    assert lam == pytest.approx(1.0) and mu == pytest.approx(1.0)
    assert s == 1.0


def test_decomposition_diag_orders_singular_values():
    # df = diag(2, 1/2): relative eigenvalues 4 and 1/4, so lam = 1/2 along
    # the y-axis and mu = 2 along the x-axis
    lam, mu, s, a1, a2, b1, b2 = decompose(np.diag([2.0, 0.5]))
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert mu == pytest.approx(2.0, abs=1e-12)
    assert s == 1.0
    assert abs(a1[0]) == pytest.approx(0.0, abs=1e-12)  # alpha1 is the y-axis
    assert abs(a1[1]) == pytest.approx(1.0, abs=1e-12)


def test_decomposition_zero_map():
    lam, mu, s, a1, a2, b1, b2 = decompose(np.zeros((2, 2)))
    assert lam == 0.0 and mu == 0.0 and s == 0.0
    # frames still orthonormal
    assert a1 @ a1 == pytest.approx(1.0)
    assert b1 @ b2 == pytest.approx(0.0, abs=1e-14)


def test_decomposition_negative_orientation():
    lam, mu, s, *_ = decompose(np.diag([1.0, -3.0]))
    assert s == -1.0
    assert (lam, mu) == pytest.approx((1.0, 3.0), abs=1e-12)


@pytest.mark.parametrize("d10", [5.85e-12, -5.85e-12, 0.0])
def test_decomposition_near_rank_loss_with_tensor_target_metric(d10):
    # lam / mu ~ 3e-12: beta1 is the g_N-complement of beta2, also when
    # rho_N != 1, and (beta1, beta2) is oriented like det df
    df = np.array([[1.0, 1.5], [d10, 0.0]])
    gN = 1.7 * np.eye(2)
    lam, mu, s, a1, a2, b1, b2 = decompose(df, 2.25, 1.7)
    assert float(lam) <= 1e-7 * float(mu)
    assert b1 @ gN @ b1 == pytest.approx(1.0, abs=1e-14)
    assert b2 @ gN @ b2 == pytest.approx(1.0, abs=1e-14)
    assert b1 @ gN @ b2 == pytest.approx(0.0, abs=1e-14)
    cross = b1[0] * b2[1] - b1[1] * b2[0]
    assert math.copysign(1.0, cross) == (-1.0 if s < 0 else 1.0)


# ------------------------------------------------------- derived quantities

def cosines(df, rhoM2=1.0, rhoN2=1.0):
    """area_cosines of one differential, with det g of its graph."""
    (f1x, f1y), (f2x, f2y) = np.asarray(df, float)
    g11 = rhoM2 + rhoN2 * (f1x * f1x + f2x * f2x)
    g12 = rhoN2 * (f1x * f1y + f2x * f2y)
    g22 = rhoM2 + rhoN2 * (f1y * f1y + f2y * f2y)
    out = area_cosines(f1x, f1y, f2x, f2y, rhoM2, rhoN2, g11 * g22 - g12 * g12)
    return tuple(float(v) for v in out)


@pytest.mark.parametrize("lam,mu,s,want", [
    (0.0, 0.0, 0.0, (1.0, 0.0)),
    (1.0, 1.0, 1.0, (0.5, 0.5)),
    (0.5, 2.0, 1.0, (0.4, 0.4)),
])
def test_jacobians_worked_cases(lam, mu, s, want):
    # (u1, u2) of the differential diag(lam, s mu), Euclidean factors
    u1, u2, *_ = cosines([[lam, 0.0], [0.0, s * mu]])
    assert (u1, u2) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("u1,u2,want", [
    (1.0, 0.0, (1.0, 1.0)),
    (0.5, 0.5, (0.0, 1.0)),
    (0.4, 0.4, (0.0, 0.8)),
])
def test_kahler_cosines_worked_cases(u1, u2, want):
    # the diagonal differential diag(a, b) with these area cosines:
    # ab = u2 / u1 and (1 + a^2)(1 + b^2) = 1 / u1^2
    jf = u2 / u1
    p = 1.0 / u1 ** 2 - 1.0 - jf ** 2
    a = 0.5 * (math.sqrt(p + 2.0 * jf) + math.sqrt(p - 2.0 * jf))
    b = 0.5 * (math.sqrt(p + 2.0 * jf) - math.sqrt(p - 2.0 * jf))
    *_, phi, theta = cosines([[a, 0.0], [0.0, b]])
    assert (phi, theta) == pytest.approx(want, abs=1e-15)


def test_jacobian_determinant():
    # J_f = det df rhoN^2 / rhoM^2, with its sign
    assert cosines([[1.0, 0.0], [0.0, 1.0]])[2] == pytest.approx(1.0)
    assert cosines([[0.5, 0.0], [0.0, 2.0]])[2] == pytest.approx(1.0)
    assert cosines([[2.0, 0.0], [0.0, -3.0]])[2] == pytest.approx(-6.0, rel=1e-12)
    assert cosines([[4.0, 0.0], [0.0, -6.0]], 4.0, 1.0)[2] == pytest.approx(
        -6.0, rel=1e-12)


def test_spec_map_jacobian_range():
    # J_f = -(e^{2x} - 9 e^{-2x})/8: 1 at x=0, 0 where e^{4x}=9
    from minmaps.presets import map_preset
    m = map_preset("paper_example")
    for x, want in ((0.0, 1.0), (math.log(3.0) / 2, 0.0), (-2.0, (9 * math.e ** 4 - math.e ** -4) / 8)):
        df = m.jacobian(np.array(x), np.array(0.3))
        lam, mu, s, *_ = decompose(df)
        assert float(s * lam * mu) == pytest.approx(want, abs=1e-8)


def test_classify_point_cases():
    # (phi, theta) -> the labels the point carries
    cases = [((0.0, 1.0), {"complex", "lagrangian_1"}),
             ((1.0, 1.0), {"complex"}),
             ((0.3, 0.5), {"generic"}),
             ((-1.0, 0.2), {"anti_complex"}),
             ((0.4, 0.0), {"lagrangian_2"})]
    phi, theta = np.array([pt for pt, _ in cases]).T
    masks = classification_masks(phi, theta)
    for k, (_, labels) in enumerate(cases):
        assert {name for name, m in masks.items() if m[k]} == labels


# ---------------------------------------------------------------- properties

finite_sv = st.floats(0.0, 50.0)
signs = st.sampled_from([-1.0, 0.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(finite_sv, finite_sv, signs, st.floats(0.2, 5.0), st.floats(0.2, 5.0))
def test_jacobian_algebra_properties(a, b, s, rM, rN):
    # area_cosines of a differential with singular values (lam, mu)
    # relative to rhoM^2 I, rhoN^2 I and sign s, against the (lam, mu)
    # definitions; the drawn values are the reference
    # (test_area_cosines_match_singular_values_on_presets compares with
    # singular_decomposition)
    lam, mu = min(a, b), max(a, b)
    if s == 0:
        lam = 0.0
    df = np.array([[lam, 0.0], [0.0, (s or 1.0) * mu]]) * (rM / rN)
    u1, u2, jf, phi, theta = cosines(df, rM ** 2, rN ** 2)
    # defining relation, exactly
    assert u1 ** 2 * (1 + lam ** 2) * (1 + mu ** 2) == pytest.approx(1.0, rel=1e-12)
    assert u2 == pytest.approx(s * lam * mu * u1, rel=1e-12, abs=1e-15)
    assert -1.0 < phi <= 1.0 + 1e-15
    assert -1.0 < theta <= 1.0 + 1e-15
    assert phi + theta == pytest.approx(2 * u1, rel=1e-12)
    assert phi + theta > 0
    assert jf == pytest.approx(s * lam * mu, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("name", sorted(presets.SCENARIOS))
def test_area_cosines_match_singular_values_on_presets(name):
    # pointwise_grid's u1, jf and the lam, mu, s of its singular data
    pw = presets.SCENARIOS[name](n=33).pointwise
    ok = np.isfinite(pw.u1)
    assert ok.sum() >= 31 * 31
    lam, mu, s = pw.lam[ok], pw.mu[ok], pw.s[ok]
    u1 = 1.0 / np.sqrt((1.0 + lam ** 2) * (1.0 + mu ** 2))
    assert pw.u1[ok] == pytest.approx(u1, rel=1e-12)
    assert pw.jf[ok] == pytest.approx(s * lam * mu, rel=1e-10, abs=1e-12)
    assert np.array_equal(pw.phi[ok], pw.u1[ok] - pw.u2[ok])
    assert np.array_equal(pw.theta[ok], pw.u1[ok] + pw.u2[ok])


@pytest.mark.parametrize("name,n", [(name, n) for name in sorted(presets.SCENARIOS)
                                    for n in (33, 65)] + [("bumped_z_squared", 65)])
def test_lam_is_jacobian_over_mu_to_rounding(name, n):
    # lam = |J_f| / mu within 8 ulp wherever lam > 0, also where lam << mu
    # (paper_example); the bumped map's df comes from finite differences
    if name == "bumped_z_squared":
        mf = presets.sine_bump(presets.z_squared_field(n=n), 0.01)
    else:
        mf = presets.SCENARIOS[name](n=n)
    pw = mf.pointwise
    ok = pw.lam > 0
    assert ok.any() or name == "constant"
    lam = pw.lam[ok]
    err = np.abs(lam - np.abs(pw.jf[ok]) / pw.mu[ok])
    assert np.all(err <= 8 * np.finfo(float).eps * lam)


matrix_entries = st.floats(-5.0, 5.0)
rho_vals = st.floats(0.2, 5.0)


@st.composite
def near_rank(draw):
    """A differential whose second row is t times its first plus noise of
    size 10^-16 ... 10^-4: lam / mu runs down to about 1e-17."""
    d00, d01, t = draw(matrix_entries), draw(matrix_entries), draw(matrix_entries)
    k = draw(st.floats(-16.0, -4.0))
    e0, e1 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    return d00, d01, t * d00 + e0 * 10.0 ** k, t * d01 + e1 * 10.0 ** k


differentials = st.one_of(
    st.tuples(matrix_entries, matrix_entries, matrix_entries, matrix_entries),
    near_rank())


@settings(max_examples=300, deadline=None)
@given(differentials, rho_vals, rho_vals)
# near rank loss (lam / mu ~ 3e-12): beta1 must still be g_N-orthogonal to
# beta2, and df alpha1 = lam beta1 to rounding
@example(entries=(1.0, 1.5, 5.85e-12, 0.0), rM=1.5, rN=1.0)
# df vanishes to subnormals: the frames stay orthonormal and df alpha_i
# = lambda_i beta_i still holds
@example(entries=(1.2145413401636572e-161, 1.2145413401636572e-161, 0.0, 0.0),
         rM=1.0, rN=1.0)
# an anticonformal df: lam = |det df| / (Q + R) rounds above mu unless capped
@example(entries=(0.1, 1.3, 1.3, -0.1), rM=1.0, rN=1.0)
# subnormal entries: unscaled, E ... R round so coarsely that |beta1|^2
# read 1.25
@example(entries=(5e-324, 5e-324, 1.5e-323, 1.5e-323), rM=1.0, rN=1.0)
# nearly conformal (R / Q = 5e-11): snapping to the conformal frame there
# missed df alpha_i = lam_i beta_i by R
@example(entries=(1.0, 0.0, 1e-10, 1.0), rM=1.0, rN=1.0)
def test_decomposition_reconstruction_property(entries, rM, rN):
    d00, d01, d10, d11 = entries
    df = np.array([[d00, d01], [d10, d11]])
    gM = rM ** 2 * np.eye(2)
    gN = rN ** 2 * np.eye(2)
    lam, mu, s, a1, a2, b1, b2 = singular_decomposition(df, rM ** 2, rN ** 2)
    lam, mu, s = float(lam), float(mu), float(s)
    assert 0.0 <= lam <= mu

    def gdot(g, u, v):
        return float(u @ g @ v)

    scale = 1.0 + mu
    # alpha gM-orthonormal, positively oriented; beta gN-orthonormal
    assert gdot(gM, a1, a1) == pytest.approx(1.0, abs=1e-8)
    assert gdot(gM, a2, a2) == pytest.approx(1.0, abs=1e-8)
    assert gdot(gM, a1, a2) == pytest.approx(0.0, abs=1e-8)
    assert a1[0] * a2[1] - a1[1] * a2[0] > 0
    assert gdot(gN, b1, b1) == pytest.approx(1.0, abs=1e-8)
    assert gdot(gN, b2, b2) == pytest.approx(1.0, abs=1e-8)
    assert gdot(gN, b1, b2) == pytest.approx(0.0, abs=1e-12)
    # df alpha_i = lambda_i beta_i
    assert df @ a1 == pytest.approx(lam * b1, abs=1e-12 * scale)
    assert df @ a2 == pytest.approx(mu * b2, abs=1e-12 * scale)
    # orientation coherence
    det = float(np.linalg.det(df))
    if abs(det) > 1e-8:
        assert s == math.copysign(1.0, det)
        jf = cosines(df, rM ** 2, rN ** 2)[2]
        assert math.copysign(1.0, jf) == math.copysign(1.0, det)
