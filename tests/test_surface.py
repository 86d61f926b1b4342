"""Conformal metric presets against a symbolic differentiation oracle.

Expected curvatures and Christoffel symbols are recomputed here from the
defining formulas K = -rho^-2 Delta log rho and Gamma(log rho) with sympy,
independently of the closed forms hard-wired in the package.
"""

import math

import numpy as np
import pytest
import sympy as sp

from minmaps import ConformalMetric, GridChart, TheoremHypotheses
from minmaps.errors import ChartDomainError, ConfigError

X, Y = sp.symbols("x y", real=True)


def oracle_curvature(rho_expr, x, y):
    u = sp.log(rho_expr)
    K = -(sp.diff(u, X, 2) + sp.diff(u, Y, 2)) / rho_expr ** 2
    return float(K.subs({X: x, Y: y}))


def oracle_christoffels(rho_expr, x, y):
    u = sp.log(rho_expr)
    ux = float(sp.diff(u, X).subs({X: x, Y: y}))
    uy = float(sp.diff(u, Y).subs({X: x, Y: y}))
    return np.array([[[ux, uy], [uy, -ux]],
                     [[-uy, ux], [ux, uy]]])


POINTS = [(0.0, 0.0), (0.5, 0.0), (0.3, -0.4), (-0.2, 0.35)]

PRESETS = [
    (ConformalMetric.euclidean(), sp.Integer(1)),
    (ConformalMetric.poincare_disc(), 2 / (1 - X ** 2 - Y ** 2)),
    (ConformalMetric.hyperbolic(2.0), 2 / (sp.sqrt(2) * (1 - X ** 2 - Y ** 2))),
    (ConformalMetric.sphere(), 2 / (1 + X ** 2 + Y ** 2)),
]


@pytest.mark.parametrize("metric,rho_expr", PRESETS,
                         ids=["euclidean", "poincare", "hyperbolic2", "sphere"])
@pytest.mark.parametrize("p", POINTS)
def test_curvature_matches_symbolic_oracle(metric, rho_expr, p):
    assert float(metric.curvature(*p)) == pytest.approx(
        oracle_curvature(rho_expr, *p), abs=1e-10)


def test_curvature_preset_values():
    assert float(ConformalMetric.euclidean().curvature(0.7, -0.3)) == 0.0
    assert float(ConformalMetric.poincare_disc().curvature(0.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
    assert float(ConformalMetric.sphere().curvature(0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 5.0])
def test_hyperbolic_scaled_curvature_is_constant(sigma):
    metric = ConformalMetric.hyperbolic(sigma)
    for p in POINTS:
        assert float(metric.curvature(*p)) == pytest.approx(-sigma, abs=1e-10)


@pytest.mark.parametrize("metric,rho_expr", PRESETS,
                         ids=["euclidean", "poincare", "hyperbolic2", "sphere"])
@pytest.mark.parametrize("p", POINTS)
def test_christoffels_match_symbolic_oracle(metric, rho_expr, p):
    got = metric.christoffel_tensor(*p)
    want = oracle_christoffels(rho_expr, *p)
    assert got == pytest.approx(want, abs=1e-12)


def test_christoffels_euclidean_zero_and_poincare_center():
    assert np.all(ConformalMetric.euclidean().christoffel_tensor(0.4, -0.1) == 0.0)
    assert np.all(ConformalMetric.poincare_disc().christoffel_tensor(0.0, 0.0) == 0.0)


def test_christoffel_symmetry_exact():
    for metric, _ in PRESETS:
        for p in POINTS:
            g = metric.christoffel_tensor(*p)
            assert np.array_equal(g[:, 0, 1], g[:, 1, 0])


def test_poincare_outside_disc_raises():
    with pytest.raises(ChartDomainError):
        ConformalMetric.poincare_disc().curvature(1.2, 0.0)
    with pytest.raises(ChartDomainError):
        ConformalMetric.poincare_disc().rho(np.array(0.8), np.array(0.8))


def test_custom_factor_geometry_is_exact():
    # expression factors differentiate log rho symbolically, so curvature and
    # Christoffels agree with the sympy oracle to rounding
    cases = [("exp(0.3*sin(x)*cos(y))",
              sp.exp(sp.Rational(3, 10) * sp.sin(X) * sp.cos(Y))),
             ("2/(1-x^2-y^2)", 2 / (1 - X ** 2 - Y ** 2))]
    for text, rho_expr in cases:
        metric = ConformalMetric.custom_expression(text)
        for p in POINTS:
            assert abs(float(metric.curvature(*p))
                       - oracle_curvature(rho_expr, *p)) <= 1e-12
            assert np.abs(metric.christoffel_tensor(*p)
                          - oracle_christoffels(rho_expr, *p)).max() <= 1e-12


def test_custom_factor_must_be_positive():
    metric = ConformalMetric.custom_expression("x")
    with pytest.raises(Exception):
        metric.rho(np.array(-1.0), np.array(0.0))


def test_grid_requires_five_points():
    with pytest.raises(ConfigError):
        GridChart(0.0, 1.0, 0.0, 1.0, 4, 9)


def test_grid_spacings_and_mesh():
    g = GridChart(-1.0, 1.0, 0.0, 4.0, 5, 9)
    assert g.hx == pytest.approx(0.5)
    assert g.hy == pytest.approx(0.5)
    assert g.h == pytest.approx(0.5)
    Xm, Ym = g.mesh()
    assert Xm.shape == (5, 9)
    assert Xm[0, 0] == -1.0 and Xm[-1, 0] == 1.0
    assert Ym[0, -1] == 4.0


def test_mesh_is_built_once_and_read_only():
    g = GridChart(-1.0, 1.0, 0.0, 4.0, 5, 9)
    Xm, Ym = g.mesh()
    again = g.mesh()
    assert again[0] is Xm and again[1] is Ym
    for a in (Xm, Ym):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        with pytest.raises(ValueError):
            a += 1.0
    assert Xm[0, 0] == -1.0 and Ym[0, -1] == 4.0


def test_fields_never_alias_the_mesh():
    from minmaps import MapExpr, MapField, presets

    g = GridChart(-0.5, 0.5, -0.5, 0.5, 9, 9)
    disc = ConformalMetric.poincare_disc()
    Xm, Ym = g.mesh()
    kept = Xm.copy(), Ym.copy()
    mf = MapField.from_expr(g, disc, disc, MapExpr.parse("x, y"))
    bumped = presets.sine_bump(mf, 0.01)
    for a in (mf.values, mf.df_field, bumped.values,
              mf.source_samples.rho2, mf.target_samples.rho2):
        assert not np.shares_memory(a, Xm) and not np.shares_memory(a, Ym)
    assert np.array_equal(mf.values[..., 0], Xm)
    assert np.array_equal(Xm, kept[0]) and np.array_equal(Ym, kept[1])


def test_grid_refine_halves_spacing():
    g = GridChart(0.0, 1.0, 0.0, 2.0, 5, 9)
    r = g.refine()
    assert r.hx == pytest.approx(g.hx / 2)
    assert r.hy == pytest.approx(g.hy / 2)


def test_hypotheses_validation():
    TheoremHypotheses(sigma=1.0, beta=2.0)
    with pytest.raises(ConfigError):
        TheoremHypotheses(sigma=0.0, beta=1.0)
    with pytest.raises(ConfigError):
        TheoremHypotheses(sigma=2.0, beta=1.0)
