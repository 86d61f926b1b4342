"""Per-point singular data: worked 2x2 cases, frame reconstruction, and
algebraic invariants under randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmaps import ConformalMetric, GridChart, MapExpr, MapField
from minmaps.errors import StencilError
from minmaps.pointwise import (PointClass, classify_point, differential,
                               graph_metric_singular_values,
                               jacobian_determinant, jacobians,
                               kahler_cosines, singular_decomposition)

EUC = np.eye(2)


def decompose(df, gM=EUC, gN=EUC):
    return singular_decomposition(np.asarray(df, float), gM, gN)


# ------------------------------------------------------------- differential

def euclidean_field(expr_text, n=9, half=1.0):
    grid = GridChart(-half, half, -half, half, n, n)
    return MapField.from_expr(grid, ConformalMetric.euclidean(),
                              ConformalMetric.euclidean(),
                              MapExpr.parse(expr_text))


def test_differential_identity_and_affine_exact():
    mf = euclidean_field("x, y")
    assert differential(mf, (4, 4)) == pytest.approx(np.eye(2), abs=1e-15)
    mf = euclidean_field("2*x, 3*y", half=0.5)
    # central differences are exact on affine maps
    assert differential(mf, (2, 6)) == pytest.approx(np.diag([2.0, 3.0]), abs=1e-13)


def test_differential_spec_map_at_origin():
    # d f(0,0) = diag(2, 1/2) for f = (e^x - 3e^-x)/2 (cos y/2, -sin y/2);
    # central differences approximate it at order h^2
    from minmaps.presets import paper_example_field
    exact = np.diag([2.0, 0.5])
    errs = []
    for nx in (65, 129):
        mf = paper_example_field(nx=nx)
        i, j = mf.grid.nx // 2, mf.grid.ny // 2
        assert mf.grid.point(i, j) == (0.0, 0.0)
        errs.append(np.abs(differential(mf, (i, j)) - exact).max())
    assert errs[0] < 1.5e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_differential_boundary_stencil_raises():
    mf = euclidean_field("x, y")
    with pytest.raises(StencilError):
        differential(mf, (0, 4))


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
    # lam / mu ~ 3e-12: beta1 is the g_N-complement of beta2, also for a
    # non-conformal g_N, and (beta1, beta2) is oriented like det df
    df = np.array([[1.0, 1.5], [d10, 0.0]])
    gN = np.array([[2.0, 0.3], [0.3, 1.0]])
    lam, mu, s, a1, a2, b1, b2 = decompose(df, 2.25 * EUC, gN)
    assert float(lam) <= 1e-7 * float(mu)
    assert b1 @ gN @ b1 == pytest.approx(1.0, abs=1e-14)
    assert b2 @ gN @ b2 == pytest.approx(1.0, abs=1e-14)
    assert b1 @ gN @ b2 == pytest.approx(0.0, abs=1e-14)
    cross = b1[0] * b2[1] - b1[1] * b2[0]
    assert math.copysign(1.0, cross) == (-1.0 if s < 0 else 1.0)


# ------------------------------------------------------- derived quantities

@pytest.mark.parametrize("lam,mu,s,want", [
    (0.0, 0.0, 0.0, (1.0, 0.0)),
    (1.0, 1.0, 1.0, (0.5, 0.5)),
    (0.5, 2.0, 1.0, (0.4, 0.4)),
])
def test_jacobians_worked_cases(lam, mu, s, want):
    u1, u2 = jacobians(np.array(lam), np.array(mu), np.array(s))
    assert (float(u1), float(u2)) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("u1,u2,want", [
    (1.0, 0.0, (1.0, 1.0)),
    (0.5, 0.5, (0.0, 1.0)),
    (0.4, 0.4, (0.0, 0.8)),
])
def test_kahler_cosines_worked_cases(u1, u2, want):
    phi, theta = kahler_cosines(np.array(u1), np.array(u2))
    assert (float(phi), float(theta)) == pytest.approx(want, abs=1e-15)


def test_jacobian_determinant():
    assert float(jacobian_determinant(np.array(0.5), np.array(0.5))) == pytest.approx(1.0)
    assert float(jacobian_determinant(np.array(0.4), np.array(0.4))) == pytest.approx(1.0)
    u1, u2 = jacobians(np.array(2.0), np.array(3.0), np.array(-1.0))
    assert float(jacobian_determinant(u1, u2)) == pytest.approx(-6.0, rel=1e-12)


def test_spec_map_jacobian_range():
    # J_f = -(e^{2x} - 9 e^{-2x})/8: 1 at x=0, 0 where e^{4x}=9
    from minmaps.presets import map_preset
    m = map_preset("paper_example")
    for x, want in ((0.0, 1.0), (math.log(3.0) / 2, 0.0), (-2.0, (9 * math.e ** 4 - math.e ** -4) / 8)):
        df = m.jacobian(np.array(x), np.array(0.3))
        lam, mu, s, *_ = decompose(df)
        assert float(s * lam * mu) == pytest.approx(want, abs=1e-8)


def test_classify_point_cases():
    c = classify_point(0.0, 1.0)
    assert c.primary is PointClass.COMPLEX
    assert PointClass.LAGRANGIAN_1 in c.labels
    assert (PointClass.COMPLEX, "J2") in c.triggers
    assert classify_point(1.0, 1.0).primary is PointClass.COMPLEX
    assert classify_point(0.3, 0.5).primary is PointClass.GENERIC
    assert classify_point(-1.0, 0.2).primary is PointClass.ANTI_COMPLEX
    assert classify_point(0.4, 0.0).primary is PointClass.LAGRANGIAN_2


def test_graph_metric_singular_values():
    assert graph_metric_singular_values(np.array(0.0), np.array(0.0)) == pytest.approx((0.0, 0.0))
    a, b = graph_metric_singular_values(np.array(1.0), np.array(1.0))
    assert (float(a), float(b)) == pytest.approx((1 / math.sqrt(2),) * 2)
    a, b = graph_metric_singular_values(np.array(0.5), np.array(2.0))
    assert (float(a), float(b)) == pytest.approx((1 / math.sqrt(5), 2 / math.sqrt(5)))


# ---------------------------------------------------------------- properties

finite_sv = st.floats(0.0, 50.0)
signs = st.sampled_from([-1.0, 0.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(finite_sv, finite_sv, signs)
def test_jacobian_algebra_properties(a, b, s):
    lam, mu = min(a, b), max(a, b)
    if lam == mu == 0:
        s = 0.0
    u1, u2 = jacobians(np.array(lam), np.array(mu), np.array(s))
    u1, u2 = float(u1), float(u2)
    # defining relation, exactly
    assert u1 ** 2 * (1 + lam ** 2) * (1 + mu ** 2) == pytest.approx(1.0, rel=1e-12)
    assert u2 == pytest.approx(s * lam * mu * u1, rel=1e-12, abs=1e-15)
    phi, theta = kahler_cosines(np.array(u1), np.array(u2))
    phi, theta = float(phi), float(theta)
    assert -1.0 < phi <= 1.0 + 1e-15
    assert -1.0 < theta <= 1.0 + 1e-15
    assert phi + theta == pytest.approx(2 * u1, rel=1e-12)
    assert phi + theta > 0
    if u1 > 0:
        assert float(jacobian_determinant(np.array(u1), np.array(u2))) == pytest.approx(
            s * lam * mu, rel=1e-10, abs=1e-12)


matrix_entries = st.floats(-5.0, 5.0)
rho_vals = st.floats(0.2, 5.0)


@settings(max_examples=150, deadline=None)
@given(matrix_entries, matrix_entries, matrix_entries, matrix_entries,
       rho_vals, rho_vals)
# near rank loss (lam / mu ~ 3e-12) df(alpha1) has no reliable direction;
# beta1 must still be exactly g_N-orthogonal to beta2
@example(d00=1.0, d01=1.5, d10=5.85e-12, d11=0.0, rM=1.5, rN=1.0)
# df vanishes and its pullback underflows to subnormals: the eigenvectors
# are not normalised, so both frames must come from the chart axes
@example(d00=1.2145413401636572e-161, d01=1.2145413401636572e-161,
         d10=0.0, d11=0.0, rM=1.0, rN=1.0)
def test_decomposition_reconstruction_property(d00, d01, d10, d11, rM, rN):
    df = np.array([[d00, d01], [d10, d11]])
    gM = rM ** 2 * np.eye(2)
    gN = rN ** 2 * np.eye(2)
    lam, mu, s, a1, a2, b1, b2 = singular_decomposition(df, gM, gN)
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
    assert gdot(gN, b1, b2) == pytest.approx(0.0, abs=1e-8)
    # df alpha_i = lambda_i beta_i
    assert df @ a1 == pytest.approx(lam * b1, abs=5e-8 * scale)
    assert df @ a2 == pytest.approx(mu * b2, abs=5e-8 * scale)
    # orientation coherence
    det = float(np.linalg.det(df))
    if abs(det) > 1e-8:
        assert s == math.copysign(1.0, det)
        u1, u2 = jacobians(np.array(lam), np.array(mu), np.array(s))
        assert math.copysign(1.0, float(u2 / u1)) == math.copysign(1.0, det)
