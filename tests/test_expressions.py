"""Expression grammar: parse errors with byte offsets, evaluation, and
symbolic-derivative agreement against sympy."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaps import MapExpr
from minmaps.expressions import ExprError, evaluate, parse_map, parse_scalar


def test_identity_map_parses():
    m = MapExpr.parse("x, y")
    out = m(np.array([0.3]), np.array([-0.7]))
    assert out[..., 0] == pytest.approx(0.3)
    assert out[..., 1] == pytest.approx(-0.7)


def test_syntax_error_reports_offset():
    with pytest.raises(ExprError) as exc:
        MapExpr.parse("x, +")
    assert exc.value.offset == 3


def test_unknown_identifier_reports_offset():
    with pytest.raises(ExprError) as exc:
        parse_scalar("x + zz*2")
    assert exc.value.offset == 4


def test_unknown_function_rejected():
    with pytest.raises(ExprError):
        parse_scalar("tan(x)")


def test_map_needs_two_components():
    with pytest.raises(ExprError):
        MapExpr.parse("x + y")


def test_power_and_functions():
    node = parse_scalar("exp(x)^2 + sqrt(y) - log(x)*cos(y) + sin(x)/2")
    x, y = 1.3, 0.49
    want = math.exp(x) ** 2 + math.sqrt(y) - math.log(x) * math.cos(y) + math.sin(x) / 2
    assert evaluate(node, np.array(x), np.array(y)) == pytest.approx(want, rel=1e-14)


def test_unary_minus_and_precedence():
    node = parse_scalar("-x^2 + 2*-y")
    # ^ binds tighter than unary minus: -(x^2) + 2*(-y)
    assert evaluate(node, np.array(3.0), np.array(1.5)) == pytest.approx(-12.0)


def test_spec_expression_matches_named_map():
    # the same map written as a raw expression and as the named preset
    text = ("0.5*(exp(x)-3*exp(-x))*cos(y/2), "
            "-0.5*(exp(x)-3*exp(-x))*sin(y/2)")
    from minmaps.presets import map_preset
    a = MapExpr.parse(text)
    b = map_preset("paper_example")
    xs = np.linspace(-1.5, 1.5, 7)
    ys = np.linspace(-2.0, 2.0, 7)
    Xg, Yg = np.meshgrid(xs, ys, indexing="ij")
    assert np.allclose(a(Xg, Yg), b(Xg, Yg), atol=1e-12)
    assert np.allclose(a.jacobian(Xg, Yg), b.jacobian(Xg, Yg), atol=1e-12)


def test_jacobian_matches_sympy():
    text = "exp(x)*cos(y) - x^2*y, sqrt(1 + x^2) + sin(x*y)"
    m = MapExpr.parse(text)
    X, Y = sp.symbols("x y", real=True)
    f1 = sp.exp(X) * sp.cos(Y) - X ** 2 * Y
    f2 = sp.sqrt(1 + X ** 2) + sp.sin(X * Y)
    pts = [(0.2, -0.3), (1.1, 0.7), (-0.5, 0.4)]
    for x, y in pts:
        got = m.jacobian(np.array(x), np.array(y))
        want = np.array([[float(sp.diff(f, v).subs({X: x, Y: y}))
                          for v in (X, Y)] for f in (f1, f2)])
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_polynomial_evaluation_property(x, y, a, b, c):
    node = parse_scalar(f"{a!r}*x^2 + {b!r}*x*y + {c!r} - y")
    got = float(evaluate(node, np.array(x), np.array(y)))
    want = a * x * x + b * x * y + c - y
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
def test_map_components_parse_independently(x, y):
    m = MapExpr.parse("sin(x) + y, cos(y) - x")
    out = m(np.array(x), np.array(y))
    assert float(out[..., 0]) == pytest.approx(math.sin(x) + y, abs=1e-14)
    assert float(out[..., 1]) == pytest.approx(math.cos(y) - x, abs=1e-14)


# ------------------------------------------------------------- compilation

def _z2_chart_mesh(n=257):
    from minmaps.presets import SCENARIO_SPECS
    from minmaps.surface import GridChart
    return GridChart(*SCENARIO_SPECS["z_squared"][3], n, n).mesh()


def test_square_is_the_exact_product_on_the_chart():
    # the z_squared chart at n=257 holds negative bases on both axes
    X, Y = _z2_chart_mesh()
    assert X.min() < 0 and Y.min() < 0
    assert np.array_equal(evaluate(parse_scalar("x^2"), X, Y), X * X)
    assert np.array_equal(evaluate(parse_scalar("x^2 - y^2"), X, Y), X * X - Y * Y)
    assert np.array_equal(evaluate(parse_scalar("(x-y)^(1+1)"), X, Y),
                          (X - Y) * (X - Y))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=16))
def test_square_is_bitwise_product_for_finite_floats(xs):
    x = np.array(xs)
    with np.errstate(over="ignore"):
        got = evaluate(parse_scalar("x^2"), x, np.zeros_like(x))
        assert got.tobytes() == (x * x).tobytes()


def test_constants_fold_to_the_full_array_values():
    # + - * / and negation fold exactly; other powers and calls keep numpy's
    # full-array ufuncs, so their bytes are those of the unfolded tree
    X, Y = _z2_chart_mesh(33)
    ones = np.ones_like(X)
    cases = {"2*pi*x - 1/3": 2 * np.pi * X - 1 / 3,
             "(0.3)^2*y": (0.3 * 0.3) * Y,
             "x*2^0.5": X * np.power(2 * ones, 0.5 * ones),
             "exp(1)*y + sin(-0.5)": np.exp(ones) * Y + np.sin(-0.5 * ones)}
    for text, want in cases.items():
        assert np.array_equal(evaluate(parse_scalar(text), X, Y), want), text


@pytest.mark.parametrize("text", ["x^-1", "x^(1+1)", "(x-1)^(2*1)",
                                  "x^(-3)*y", "(x+y)^-(4/2)",
                                  # exponents that do not fold to a float
                                  "x^(2^1)", "x^sqrt(4)", "x^exp(0)",
                                  "(x*y)^(3^1)"])
def test_constant_exponent_derivative_is_finite_at_negative_bases(text):
    X, Y = sp.symbols("x y", real=True)
    f = sp.sympify(text.replace("^", "**"), locals={"x": X, "y": Y})
    m = MapExpr.parse(f"{text}, y")
    for x, y in [(-0.5, 0.3), (-1.7, -0.4), (0.6, -1.2)]:
        got = m.jacobian(np.array(x), np.array(y))[0]
        want = [float(sp.diff(f, v).subs({X: x, Y: y})) for v in (X, Y)]
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(want, rel=1e-14)


def test_reciprocal_derivative_at_negative_base():
    df = MapExpr.parse("x^-1, y").jacobian(np.array(-0.5), np.array(0.0))
    assert df[0, 0] == -4.0


def _count_top_level_diffs(monkeypatch):
    """Patch diff where expressions and surface look it up; count the calls
    that do not come from diff itself."""
    from minmaps import expressions, surface

    original, depth, calls = expressions.diff, [0], []

    def counted(node, var):
        if depth[0] == 0:
            calls.append(var)
        depth[0] += 1
        try:
            return original(node, var)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(expressions, "diff", counted)
    monkeypatch.setattr(surface, "diff", counted)
    return calls


def test_programs_differentiate_once(monkeypatch):
    from minmaps import ConformalMetric

    calls = _count_top_level_diffs(monkeypatch)
    m = MapExpr.parse("x^2 - y^2, 2*x*y")
    metric = ConformalMetric.custom_expression("exp(x^2 + y)")
    X, Y = _z2_chart_mesh(17)
    for _ in range(3):
        m(X, Y)
        m.jacobian(X, Y)
        m.jacobian(np.array(0.1), np.array(0.2))
        metric.rho(X, Y)
        metric.log_rho_grad(X, Y)
        metric.curvature(X, Y)
    # f1, f2 by x and y; u = log rho by x and y, then u_x by x, u_y by y
    assert sorted(calls) == ["x"] * 4 + ["y"] * 4


@pytest.mark.parametrize("x, y", [
    (np.linspace(-0.5, 0.5, 35).reshape(7, 5), np.zeros((7, 5))),
    (np.array(0.3), np.array(-0.1)),
])
def test_constant_map_returns_fresh_full_arrays(x, y):
    from minmaps.presets import map_preset

    m = map_preset("constant", 0.15, -0.2)
    shape = np.broadcast(x, y).shape
    values, df = m(x, y), m.jacobian(x, y)
    assert values.shape == shape + (2,) and df.shape == shape + (2, 2)
    assert np.all(values[..., 0] == 0.15) and np.all(values[..., 1] == -0.2)
    assert np.all(df == 0.0)
    for a in (values, df):
        assert a.flags.writeable
        a[...] = 7.0                       # writes touch no cached state
    assert np.all(m(x, y)[..., 0] == 0.15) and np.all(m.jacobian(x, y) == 0.0)
