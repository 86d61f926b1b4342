"""Graph-embedding geometry: induced metric, adapted frame, second
fundamental form, curvature scalars, and Laplace-Beltrami operators."""

import numpy as np
import pytest

from minmaps import (ConformalMetric, GridChart, MapExpr, MapField, flow,
                     presets)
from minmaps.graph_geometry import (ambient_curvature, form_on_frame,
                                    gradient_norm_sq_array, graph_grid,
                                    laplace_beltrami_array)

from crosscheck_oracle import (kahler_angle_crosscheck, product_inner,
                               sigma_perp_commutator)

EUC = ConformalMetric.euclidean()


def euclidean_map(expr_text, n=9, half=1.0):
    grid = GridChart(-half, half, -half, half, n, n)
    return MapField.from_expr(grid, EUC, EUC, MapExpr.parse(expr_text))


def interior_mask(arr):
    return np.isfinite(arr if arr.ndim == 2 else arr.reshape(arr.shape[:2] + (-1,)).sum(-1))


def metric_at(mf, p):
    """The induced metric g at grid index p, as a 2x2 matrix."""
    m = mf.graph.metric
    return np.array([[m.g11[p], m.g12[p]], [m.g12[p], m.g22[p]]])


# ------------------------------------------------------------ induced metric

def test_induced_metric_identity_euclidean():
    mf = euclidean_map("x, y")
    assert metric_at(mf, (4, 4)) == pytest.approx(2.0 * np.eye(2), abs=1e-14)


def test_induced_metric_constant_map_is_source_metric(constant_33):
    p = (5, 7)
    g = metric_at(constant_33, p)
    assert g == pytest.approx(constant_33.source_samples.rho2[p] * np.eye(2), rel=1e-14)


def test_induced_metric_affine():
    mf = euclidean_map("2*x, 3*y")
    assert metric_at(mf, (4, 4)) == pytest.approx(np.diag([5.0, 10.0]), abs=1e-13)


# -------------------------------------------------------------- frame checks

ALL_FIXTURES = ["z2_33", "z2_mixed_33", "paper_33", "identity_33",
                "constant_33", "mobius_33", "affine_33"]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_frame_is_product_orthonormal(name, request):
    mf = request.getfixturevalue(name)
    gg = graph_grid(mf)
    ok = np.all(np.isfinite(gg.frame), axis=(-2, -1))
    assert ok.any()
    for a in range(4):
        for b in range(4):
            got = product_inner(gg.rhoM2, gg.rhoN2, gg.frame[..., a, :], gg.frame[..., b, :])
            want = 1.0 if a == b else 0.0
            assert np.abs(got[ok] - want).max() <= 1e-12


def test_frame_positively_oriented_across_sign_change(paper_33):
    # the fixture's jacobian determinant changes sign inside the chart; the
    # signed fourth leg keeps the frame orientation constant anyway
    gg = graph_grid(paper_33)
    assert float(gg.pw.jf.min()) < 0 < float(gg.pw.jf.max())
    dets = np.linalg.det(gg.frame)
    assert dets.min() > 0


# ------------------------------------------------ conformal kernel vs tensors

@pytest.mark.parametrize("name", ALL_FIXTURES + ["bumped_z2"])
def test_conformal_kernel_matches_tensor_oracle(name, request):
    # the rho^2 kernel against the general (..., 2, 2) metric-tensor route it
    # replaced; the bumped map has no formula, so its df and A carry a NaN ring
    from tensor_oracle import tensor_graph

    if name == "bumped_z2":
        mf = presets.sine_bump(presets.z_squared_field(n=33), 0.01)
    else:
        mf = request.getfixturevalue(name)
    gg, ref = mf.graph, tensor_graph(mf)
    pw = gg.pw
    for got, want in ((pw.lam, ref.lam), (pw.mu, ref.mu),
                      (pw.alpha1, ref.alpha1), (pw.alpha2, ref.alpha2),
                      (pw.beta1, ref.beta1), (pw.beta2, ref.beta2),
                      (gg.frame, ref.frame), (gg.A, ref.A),
                      (gg.rtilde_1234, ref.rtilde_1234)):
        ok = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), ok)
        assert ok.any()
        err = np.abs(got[ok] - want[ok]) / np.maximum(1.0, np.abs(want[ok]))
        assert err.max() <= 1e-12


@pytest.mark.parametrize("n", [33, 65])
def test_graph_and_tension_routes_agree_on_mean_curvature(n):
    # |H| from the second fundamental form against the flow's tension pass;
    # both build g^-1 through induced_metric_arrays
    mf = presets.sine_bump(presets.z_squared_field(n=n), 0.01)
    want = flow.tension_pass(mf).norm_H
    assert want > 0.1
    assert mf.graph.max_norm_H == pytest.approx(want, rel=1e-12)

    # and as vectors: graph_grid's H = sum_alpha H^alpha e_{alpha+3} has
    # target part tau and, being normal, source part -k df^T tau with
    # k = rhoN^2 / rhoM^2 (a curved target, so k is not constant)
    mf = presets.sine_bump(presets.z_squared_mixed_field(n=n), 0.01)
    gg, tau = mf.graph, mf.tension.tau
    H = (gg.H[..., 0, None] * gg.frame[..., 2, :]
         + gg.H[..., 1, None] * gg.frame[..., 3, :])
    k = gg.rhoN2 / gg.rhoM2
    source = -k[..., None] * np.einsum("...ai,...a->...i", gg.pw.df, tau)
    for got, want in ((H[..., 2:], tau), (H[..., :2], source)):
        ok = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), ok)
        assert ok.any()
        scale = np.abs(want[ok]).max()
        assert scale > 0.005
        assert np.abs(got[ok] - want[ok]).max() <= 1e-13 * scale


# --------------------------------------------------- second fundamental form

def test_affine_and_isometry_have_zero_A(affine_33, identity_33):
    for mf in (affine_33, identity_33):
        gg = graph_grid(mf)
        ok = interior_mask(gg.A)
        assert np.abs(gg.A[ok]).max() <= 1e-12
        assert np.nanmax(gg.norm_H) <= 1e-12


def test_A_symmetric(z2_65):
    gg = graph_grid(z2_65)
    ok = interior_mask(gg.A)
    assert np.abs(gg.A[ok][:, :, 0, 1] - gg.A[ok][:, :, 1, 0]).max() <= 1e-12


def test_mean_curvature_of_minimal_map_refines_at_order_two():
    vals = []
    for n in (17, 33):
        gg = graph_grid(presets.paper_example_field(n=n))
        vals.append(gg.max_norm_H)
    assert 3.4 <= vals[0] / vals[1] <= 4.6


def test_mean_curvature_point_api(paper_33):
    # a point reads the cached grid, which holds NaN where a stencil does
    # not reach (the Dirichlet ring of the second derivatives)
    gg = paper_33.graph
    H = gg.H[16, 16]
    assert H.shape == (2,)
    assert np.abs(H).max() < 1e-3
    assert np.all(np.isnan(gg.A[0, 3]))


def test_normal_scalars_worked_example():
    # A3 = diag(1, -1), A4 = [[0, 1], [1, 0]]: |A|^2 = 4, sigma_perp = -2
    A = np.array([[[1.0, 0.0], [0.0, -1.0]],
                  [[0.0, 1.0], [1.0, 0.0]]])
    assert float(sigma_perp_commutator(A)) == -2.0
    sp = (-A[0, 0, 0] * A[1, 0, 1] + A[0, 0, 1] * A[1, 0, 0]
          - A[0, 0, 1] * A[1, 1, 1] + A[0, 1, 1] * A[1, 0, 1])
    assert sp == -2.0
    assert float(np.sum(A ** 2)) == 4.0


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_sigma_perp_matches_commutator_route(name, request):
    gg = graph_grid(request.getfixturevalue(name))
    ok = interior_mask(gg.A)
    diff = gg.sigma_perp[ok] - sigma_perp_commutator(gg.A[ok])
    assert np.abs(diff).max() <= 1e-14


def test_norm_A_sq_dominates_twice_sigma_perp(z2_65, paper_33):
    # <[A3,A4]e2, e1> is bounded by |A|^2/2 for any pair of symmetric shapes
    for mf in (z2_65, paper_33):
        gg = graph_grid(mf)
        ok = interior_mask(gg.A)
        slack = gg.norm_A_sq[ok] - 2.0 * np.abs(gg.sigma_perp[ok])
        assert slack.min() >= -1e-12


# ---------------------------------------------------------- ambient curvature

def test_ambient_curvature_convention():
    e = np.eye(4)
    rhoM2 = rhoN2 = 1.0
    # sectional curvature of each factor plane; mixed planes are flat
    assert float(ambient_curvature(e[0], e[1], e[0], e[1], rhoM2, rhoN2, 3.0, 5.0)) == 3.0
    assert float(ambient_curvature(e[2], e[3], e[2], e[3], rhoM2, rhoN2, 3.0, 5.0)) == 5.0
    assert float(ambient_curvature(e[0], e[2], e[0], e[2], rhoM2, rhoN2, 3.0, 5.0)) == 0.0
    assert float(ambient_curvature(e[0], e[1], e[2], e[3], rhoM2, rhoN2, 0.0, 0.0)) == 0.0


def test_ambient_term_flat_product_is_zero(paper_33, affine_33):
    for mf in (paper_33, affine_33):
        gg = graph_grid(mf)
        assert np.abs(gg.rtilde_1234[np.isfinite(gg.rtilde_1234)]).max() == 0.0


def test_ambient_term_identity_fixture_closed_form(identity_33):
    # equal factors of curvature -2, u1 = u2 = 1/2: R(e1,e2,e3,e4) = -1
    gg = graph_grid(identity_33)
    ok = np.isfinite(gg.rtilde_1234)
    assert np.abs(gg.rtilde_1234[ok] + 1.0).max() <= 1e-12
    assert identity_33.graph.rtilde_1234[7, 7] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_ambient_term_product_formula(name, request):
    # R(e1,e2,e3,e4) = (sigma_M + sigma_N) u1 u2 with the signed frame
    gg = graph_grid(request.getfixturevalue(name))
    pw = gg.pw
    want = (gg.sigmaM + gg.sigmaN) * pw.u1 * pw.u2
    ok = np.isfinite(gg.rtilde_1234) & np.isfinite(want)
    assert np.abs(gg.rtilde_1234[ok] - want[ok]).max() <= 1e-10


# --------------------------------------------------------- scalar operators

def test_laplace_beltrami_exact_cases():
    mf = euclidean_map("x, y")  # g = 2 I
    g, grid = mf.graph.metric, mf.grid
    X, Y = grid.mesh()
    const = laplace_beltrami_array(np.full_like(X, 3.7), g, grid)
    assert const[4, 4] == pytest.approx(0.0, abs=1e-13)
    quad = laplace_beltrami_array(X ** 2 + Y ** 2, g, grid)
    assert quad[4, 4] == pytest.approx(2.0, rel=1e-12)
    lin = gradient_norm_sq_array(X.copy(), g, grid)
    assert lin[4, 4] == pytest.approx(0.5, rel=1e-13)


def test_gradient_norm_sq_anisotropic():
    mf = euclidean_map("2*x, 3*y")  # g = diag(5, 10)
    g, grid = mf.graph.metric, mf.grid
    X, Y = grid.mesh()
    grad = gradient_norm_sq_array(X + Y, g, grid)
    assert grad[4, 4] == pytest.approx(1 / 5 + 1 / 10, rel=1e-12)
    # one stencil level loses the Dirichlet ring, two nested levels two rings
    assert np.isnan(grad[0, 4])
    assert np.isnan(laplace_beltrami_array(X + Y, g, grid)[1, 4])


def test_laplace_beltrami_against_symbolic_oracle():
    import sympy as sp

    x, y = sp.symbols("x y")
    r = (sp.exp(x) - 3 * sp.exp(-x)) / 2
    f1, f2 = r * sp.cos(y / 2), -r * sp.sin(y / 2)
    df = sp.Matrix([[sp.diff(f1, x), sp.diff(f1, y)],
                    [sp.diff(f2, x), sp.diff(f2, y)]])
    g = sp.eye(2) + df.T * df
    gi = g.inv()
    sq = sp.sqrt(g.det())
    u = sp.sin(x) * sp.cos(y)
    ux, uy = sp.diff(u, x), sp.diff(u, y)
    lap = (sp.diff(sq * (gi[0, 0] * ux + gi[0, 1] * uy), x)
           + sp.diff(sq * (gi[1, 0] * ux + gi[1, 1] * uy), y)) / sq
    grad = gi[0, 0] * ux ** 2 + 2 * gi[0, 1] * ux * uy + gi[1, 1] * uy ** 2
    at = {x: sp.Rational(3, 8), y: sp.Rational(1, 2)}
    lap_want = float(lap.subs(at))
    grad_want = float(grad.subs(at))

    lap_err, grad_err = [], []
    for n, idx in ((33, 20), (65, 40)):
        mf = presets.paper_example_field(n=n)
        assert mf.grid.point(idx, idx) == (0.375, 0.5)
        g, grid = graph_grid(mf).metric, mf.grid
        X, Y = grid.mesh()
        u = np.sin(X) * np.cos(Y)
        lap_err.append(abs(laplace_beltrami_array(u, g, grid)[idx, idx] - lap_want))
        grad_err.append(abs(gradient_norm_sq_array(u, g, grid)[idx, idx] - grad_want))
    assert lap_err[1] < 2e-3
    assert 3.3 <= lap_err[0] / lap_err[1] <= 4.7
    assert 3.3 <= grad_err[0] / grad_err[1] <= 4.7


# ------------------------------------------------------------- form algebra

@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_pullback_forms_reproduce_projection_jacobians(name, request):
    gg = graph_grid(request.getfixturevalue(name))
    pw = gg.pw
    ok = np.all(np.isfinite(gg.frame), axis=(-2, -1))
    w1 = form_on_frame(gg, 1, 1, 2)
    w2 = form_on_frame(gg, 2, 1, 2)
    assert np.abs(w1[ok] - pw.u1[ok]).max() <= 1e-10
    assert np.abs(w2[ok] - pw.u2[ok]).max() <= 1e-10
    # source form on the normal legs has size lam mu u1
    w1n = form_on_frame(gg, 1, 3, 4)
    want = pw.lam * pw.mu * pw.u1
    assert np.abs(np.abs(w1n[ok]) - want[ok]).max() <= 1e-10


def test_kahler_angle_crosscheck_examples():
    gg = graph_grid(euclidean_map("x, y"))
    phi, theta = kahler_angle_crosscheck(gg)
    assert np.abs(phi).max() <= 1e-13
    assert np.abs(theta - 1.0).max() <= 1e-13


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_kahler_angle_crosscheck_fixtures(name, request):
    gg = graph_grid(request.getfixturevalue(name))
    pw = gg.pw
    phi, theta = kahler_angle_crosscheck(gg)
    ok = np.all(np.isfinite(gg.frame), axis=(-2, -1))
    assert np.abs(phi[ok] - pw.phi[ok]).max() <= 1e-10
    assert np.abs(theta[ok] - pw.theta[ok]).max() <= 1e-10


def test_fd_only_map_needs_interior_points(z2_33):
    bare = MapField(z2_33.grid, z2_33.source, z2_33.target, z2_33.values)
    # on the ring x = x0 only g22 (from d f / dy) is defined
    assert np.array_equal(np.isnan(metric_at(bare, (0, 5))), [[True, True], [True, False]])
    g = metric_at(bare, (5, 5))
    assert g == pytest.approx(metric_at(z2_33, (5, 5)), rel=1e-6)


# ---------------------------------------------------------- storage layout

def layout_field(case):
    """One field per kind of point: conformal, df = 0, rank one, no formula."""
    if case == "conformal":
        return presets.z_squared_field(n=17)
    if case == "rank0":
        return presets.constant_field(n=17)
    if case == "rank1":          # det df = 2y: rank one on the middle row
        return euclidean_map("x, x + y*y", n=17)
    # no formula: df from finite differences, NaN on the Dirichlet ring
    return presets.sine_bump(presets.z_squared_field(n=17), 0.01)


@pytest.mark.parametrize("case", ["conformal", "rank0", "rank1", "grid_only"])
def test_vector_and_tensor_fields_are_stored_as_planes(case):
    # every [..., a, b] component is a contiguous (nx, ny) plane, and each
    # field keeps its point-major shape and index meaning
    mf = layout_field(case)
    pw, gg = mf.pointwise, mf.graph
    if case == "conformal":
        assert np.array_equal(pw.lam, pw.mu)
    elif case == "rank0":
        assert np.all(pw.mu == 0.0)
    elif case == "rank1":
        assert np.all(pw.lam[:, 8] == 0.0) and np.all(pw.mu[:, 8] > 0.0)
    else:
        assert mf.expr is None and np.isnan(pw.lam[0]).all()
    nx, ny = mf.grid.nx, mf.grid.ny
    fields = {"df": (pw.df, (2, 2)), "alpha1": (pw.alpha1, (2,)),
              "alpha2": (pw.alpha2, (2,)), "beta1": (pw.beta1, (2,)),
              "beta2": (pw.beta2, (2,)), "frame": (gg.frame, (4, 4)),
              "A": (gg.A, (2, 2, 2)), "H": (gg.H, (2,))}
    for name, (arr, comps) in fields.items():
        assert arr.shape == (nx, ny) + comps, name
        for idx in np.ndindex(comps):
            assert arr[(...,) + idx].flags.c_contiguous, (name, idx)


@pytest.mark.parametrize("case", ["z_squared", "paper_example", "grid_only"])
def test_norm_A_sq_sums_in_numpys_order(case):
    # |A|^2 is summed plane by plane in the order np.sum takes over the
    # eight contiguous components of a point-major A, bit for bit
    if case == "grid_only":
        mf = presets.sine_bump(presets.z_squared_field(n=65), 0.01)
    else:
        mf = presets.SCENARIOS[case](n=65)
    gg = mf.graph
    want = np.sum(np.ascontiguousarray(gg.A) ** 2, axis=(-3, -2, -1))
    assert gg.norm_A_sq.tobytes() == want.tobytes()


def block_frame_field(case, n):
    if case == "reversing_affine":   # det df < 0: e4 takes the sgn branch
        return presets.affine_field(2.0, 0.0, 0.0, -0.5, n=n)
    if case == "grid_only":          # df by differences, NaN on the ring
        return presets.sine_bump(presets.z_squared_field(n=n), 0.01)
    return presets.SCENARIOS[case](n=n)


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("case", ["z_squared", "mobius", "reversing_affine",
                                  "grid_only"])
def test_block_frames_match_the_whole_grid_frame(case, n):
    # frame rows built from one block's pointwise data are the whole-grid
    # frame's rows bit for bit: NaN positions and sign bits included
    from minmaps.graph_geometry import _row_blocks

    gg = block_frame_field(case, n).graph
    frame = gg.frame
    if case == "reversing_affine":
        assert np.all(gg.pw.s < 0)
    if case == "grid_only":
        assert np.isnan(frame[0]).all() and np.isfinite(frame[1:-1, 1:-1]).all()
    blocks = _row_blocks(frame.shape)
    assert len(blocks) > 1
    for b in blocks:
        rows = gg.frame_rows(b)
        assert rows.shape == frame[b].shape
        assert rows.tobytes() == frame[b].tobytes(), b


# ------------------------------------------------ kept and derived planes

def test_passes_keep_no_derivable_plane():
    # a verify pass reads alpha1, beta1, df^T df, H and R(e1, e2, e3, e4)
    # nowhere after graph_grid: they are derived on read, not stored; nor
    # is g^-1 or sqrt(det g) kept by the identities and probes that read them
    from dataclasses import fields

    from minmaps import TheoremHypotheses
    from minmaps.graph_geometry import GraphGrid, InducedMetric
    from minmaps.pointwise import PointwiseGrid
    from minmaps.verifier import (ResidualReport, interior_minimum_probe,
                                  verify_form_laplacian,
                                  verify_gradient_identities,
                                  verify_jacobian_laplacians,
                                  verify_pullback_derivative)

    stored = {cls: {f.name for f in fields(cls)}
              for cls in (PointwiseGrid, InducedMetric, GraphGrid, ResidualReport)}
    assert stored[PointwiseGrid].isdisjoint({"alpha1", "beta1"})
    assert stored[InducedMetric].isdisjoint({"p11", "p12", "p22"})
    assert stored[GraphGrid].isdisjoint({"H", "rtilde_1234"})
    assert "residual_field" not in stored[ResidualReport]
    mf = presets.z_squared_field(n=17)
    gg = mf.graph
    for obj in (gg.pw, gg.metric, gg):
        arrays = {k for k, v in vars(obj).items() if isinstance(v, np.ndarray)}
        assert arrays <= stored[type(obj)], type(obj).__name__
    assert "rtilde_1234" not in vars(gg)
    gg.rtilde_1234
    assert "rtilde_1234" in vars(gg)
    for check in (verify_pullback_derivative, verify_form_laplacian,
                  verify_jacobian_laplacians, verify_gradient_identities):
        check(mf)
    for field in ("phi", "theta"):
        interior_minimum_probe(mf, field, TheoremHypotheses(1.0, 1.0))
    assert {k for k, v in vars(gg.metric).items()
            if isinstance(v, np.ndarray)} == {"g11", "g12", "g22", "det"}


@pytest.mark.parametrize("case", ["rank1", "grid_only"] + sorted(presets.SCENARIOS))
def test_derived_planes_match_stored_formulas(case):
    # alpha1, beta1, H and R(e1, e2, e3, e4) equal their plane-by-plane
    # formulas bit for bit; the public singular_decomposition returns the
    # same frames
    from minmaps.pointwise import singular_decomposition
    from tensor_oracle import stored_planes

    if case in presets.SCENARIOS:
        mf = presets.SCENARIOS[case](n=17)
    else:
        mf = layout_field(case)
    pw, gg = mf.pointwise, mf.graph
    got = (pw.alpha1, pw.beta1, gg.H, gg.rtilde_1234)
    for name, a, b in zip(("alpha1", "beta1", "H", "rtilde_1234"), got,
                          stored_planes(pw, gg)):
        assert a.shape == b.shape, name
        assert (np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes()), name
    with np.errstate(invalid="ignore", divide="ignore"):
        full = singular_decomposition(pw.df, mf.source_samples.rho2,
                                      mf.target_samples.rho2)
    for a, b in zip(full, (pw.lam, pw.mu, pw.s, pw.alpha1, pw.alpha2,
                           pw.beta1, pw.beta2)):
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
