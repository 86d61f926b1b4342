"""Residual verification of the curvature identities, refinement studies,
hypothesis checks, certificates, and the interior minimum probe."""

import functools

import numpy as np
import pytest

from minmaps import GridChart, TheoremHypotheses, presets, verifier
from minmaps.errors import ConfigError
from minmaps.graph_geometry import gradient_norm_sq_array
from minmaps.verifier import (MUTATIONS, Certificate, ProbeStatus,
                              _nan_pointwise_max, _probe_decision,
                              area_decreasing_certificate, check_hypotheses,
                              interior_minimum_probe, refinement_study,
                              verify_form_laplacian,
                              verify_gradient_identities,
                              verify_jacobian_laplacians,
                              verify_pullback_derivative)

ALL_IDENTITIES = (verify_pullback_derivative, verify_form_laplacian,
                  verify_jacobian_laplacians, verify_gradient_identities)


@functools.lru_cache(maxsize=None)
def cached_field(name, n):
    if name == "paper":
        return presets.paper_example_field(n=n)
    if name == "z2":
        return presets.z_squared_field(n=n)
    if name == "z2_mixed":
        return presets.z_squared_mixed_field(n=n)
    if name == "affine":
        return presets.affine_field(n=n)
    raise KeyError(name)


# ------------------------------------------------------------ exact fixtures

@pytest.mark.parametrize("verify", ALL_IDENTITIES)
@pytest.mark.parametrize("fixture", ["identity_33", "constant_33"])
def test_exact_fixtures_have_machine_precision_residuals(verify, fixture, request):
    report = verify(request.getfixturevalue(fixture))
    assert report.norm_inf <= 1e-10
    assert report.norm_l2 <= report.norm_inf + 1e-15
    assert report.h > 0
    # a conformal (phi = theta = 1) chart may mask every gradient-identity
    # point; anything else must leave finite residuals behind
    assert np.isfinite(report.residual_field).any() or report.masked_points > 0


def test_gradient_identities_mask_conformal_points(identity_33):
    # phi = 0 on the whole chart, so the division-by-(1 - phi^2) forms are
    # masked everywhere and only the Laplacian forms contribute
    report = verify_gradient_identities(identity_33)
    assert report.masked_points == 33 * 33
    assert set(report.components) == {"grad_phi", "grad_theta",
                                      "lap_phi", "lap_theta"}


def stacked_nan_max(arrays):
    """The stack-based pointwise max of |a| that _nan_pointwise_max replaced."""
    stacked = np.abs(np.stack(arrays, axis=0))
    out = np.where(np.isnan(stacked), -np.inf, stacked).max(axis=0)
    return np.where(np.isnan(stacked).all(axis=0), np.nan, out)


# the bumped map is not minimal; only the residual fields matter here
@pytest.mark.filterwarnings("ignore:map is not numerically minimal")
@pytest.mark.parametrize("name", ["z_squared", "paper_example", "grid_only"])
def test_nan_pointwise_max_matches_stacked_formula(name):
    if name == "grid_only":
        mf = presets.sine_bump(presets.z_squared_field(n=33), 0.01)
    else:
        mf = presets.SCENARIOS[name](n=33)
    comps = list(verify_gradient_identities(mf).components.values())
    signed_zeros = np.where(np.arange(comps[0].size).reshape(comps[0].shape) % 2,
                            -0.0, 0.0)
    comps += [np.full_like(comps[0], np.nan), signed_zeros]
    for arrays in (comps, comps[-2:], comps[-1:]):
        got = _nan_pointwise_max(arrays)
        assert got.tobytes() == stacked_nan_max(arrays).tobytes()
    assert np.isnan(_nan_pointwise_max(comps[-2:-1])).all()


def _freeze(obj):
    """Make every array attribute of obj (cached ones included) read-only."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


@pytest.mark.filterwarnings("ignore:map is not numerically minimal")
@pytest.mark.parametrize("bump", [0.0, 0.01])
def test_identities_write_no_cached_plane(bump):
    # the identities write their residuals only into planes they own: with
    # every cached plane of the field read-only (the Laplacian pair too) they
    # still run, to the same bits
    fresh = presets.sine_bump(presets.z_squared_mixed_field(n=17), bump)
    mf = presets.sine_bump(presets.z_squared_mixed_field(n=17), bump)
    for obj in (mf.pointwise, mf.graph, mf.graph.metric):
        _freeze(obj)
    for lap in mf.graph.laplacians:
        lap.flags.writeable = False
    checks = ALL_IDENTITIES + (
        functools.partial(verify_jacobian_laplacians, mutation="flip_sigma_perp"),
        functools.partial(verify_jacobian_laplacians, mutation="swap_curvatures"))
    for check in checks:
        got, want = check(mf), check(fresh)
        assert got.components.keys() == want.components.keys()
        for name, residual in got.components.items():
            assert residual.tobytes() == want.components[name].tobytes()


@pytest.mark.filterwarnings("ignore:map is not numerically minimal")
@pytest.mark.parametrize("bump", [0.0, 0.01])
def test_row_blocks_do_not_move_a_bit(monkeypatch, bump):
    # every pointwise sum is elementwise within a block of grid rows, so one
    # row per block and the whole grid as one block give the same bytes. A
    # NaN compares as one word: the sign numpy gives the product of two NaNs
    # depends on the length of the loop (the writer prints nan either way)
    from minmaps import graph_geometry

    def bits(a):
        return np.where(np.isnan(a), np.nan, a).tobytes()

    def outputs(block_points):
        monkeypatch.setattr(graph_geometry, "BLOCK_POINTS", block_points)
        assert len(graph_geometry._row_blocks((33, 33))) == (
            33 if block_points == 1 else 1)
        out = {}
        for name, build in sorted(presets.SCENARIOS.items()):
            mf = presets.sine_bump(build(n=33), bump)
            out[name, "frame"] = bits(mf.graph.frame_rows(slice(None)))
            for field in ("A", "norm_H", "norm_A_sq", "sigma_perp"):
                out[name, field] = bits(getattr(mf.graph, field))
            for check in ALL_IDENTITIES:
                for comp, residual in check(mf).components.items():
                    out[name, check.__name__, comp] = bits(residual)
        return out

    assert outputs(1) == outputs(33 * 33)


def test_frame_is_built_once_per_block_and_pass(monkeypatch):
    # the graph pass, the pullback identity and the form-Laplacian identity
    # each build every row block's frame once, from that block's rows; a
    # one-block grid builds its frame once for all of them
    from minmaps import graph_geometry

    built = []
    original = graph_geometry._adapted_frame_arrays
    monkeypatch.setattr(graph_geometry, "_adapted_frame_arrays",
                        lambda pw: built.append(pw.lam.shape) or original(pw))
    for n in (65, 257):
        built.clear()
        mf = presets.z_squared_field(n=n)
        for check in ALL_IDENTITIES:
            check(mf)
        rows = [(b.stop - b.start, n) for b in graph_geometry._row_blocks((n, n))]
        assert built == rows * (1 if n == 65 else 3)
    assert len(built) == 48 and max(built) < (257, 257)


def test_residual_field_is_built_from_components():
    # the report keeps its component planes only; the pointwise max is
    # rebuilt on read, and the norms are those of that max
    from minmaps import stencils

    mf = cached_field("z2", 33)
    for check in ALL_IDENTITIES:
        report = check(mf)
        want = _nan_pointwise_max(list(report.components.values()))
        assert report.residual_field.tobytes() == want.tobytes()
        assert report.norm_inf == stencils.finite_abs_max(want)


def test_max_norm_H_is_reduced_once_per_field(monkeypatch):
    # the four reports and the probe share one sup of |H| per field
    from minmaps import stencils

    mf = presets.z_squared_field(n=33)
    gg = mf.graph
    reduced = []
    original = stencils.finite_abs_max
    monkeypatch.setattr(stencils, "finite_abs_max",
                        lambda a: reduced.append(a is gg.norm_H) or original(a))
    reports = [check(mf) for check in ALL_IDENTITIES]
    interior_minimum_probe(mf, "phi", TheoremHypotheses(sigma=1.0, beta=1.0))
    assert reduced.count(True) == 1
    assert {r.minimality_defect for r in reports} == {original(gg.norm_H)}


def test_one_laplacian_pair_per_field(monkeypatch):
    # the four identities and both minimum probes read the one pair
    # (Delta u1, Delta u2) the graph keeps; the verifier builds no Laplacian
    # of its own
    from minmaps import graph_geometry, verifier

    built = []
    original = graph_geometry.laplace_beltrami_array
    monkeypatch.setattr(graph_geometry, "laplace_beltrami_array",
                        lambda u, *args: built.append(u) or original(u, *args))
    mf = presets.z_squared_field(n=33)
    for check in ALL_IDENTITIES:
        check(mf)
    for field in ("phi", "theta"):
        interior_minimum_probe(mf, field, TheoremHypotheses(sigma=1.0, beta=1.0))
    assert len(built) == 2
    assert built[0] is mf.pointwise.u1 and built[1] is mf.pointwise.u2
    assert not hasattr(verifier, "laplace_beltrami_array")


@pytest.mark.filterwarnings("ignore:map is not numerically minimal")
@pytest.mark.parametrize("bump", [0.0, 0.05])
@pytest.mark.parametrize("n", [17, 65])
@pytest.mark.parametrize("name", sorted(presets.SCENARIOS))
def test_derived_laplacian_identities_are_jacobian_plus_algebra(name, n, bump):
    # the form and angle Laplacian identities read the Jacobian identity's
    # Laplacians (Delta phi = Delta u1 - Delta u2, Delta theta = Delta u1 +
    # Delta u2), so their residuals differ from its residual by pointwise
    # algebra only: rounding, on minimal and non-minimal maps alike
    mf = presets.sine_bump(presets.SCENARIOS[name](n=n), bump)
    jac = verify_jacobian_laplacians(mf).components
    form = verify_form_laplacian(mf).components
    grad = verify_gradient_identities(mf).components
    pairs = {"omega1": (form["omega1"], jac["u1"]),
             "omega2": (form["omega2"], jac["u2"]),
             "lap_phi": (grad["lap_phi"], jac["u1"] - jac["u2"]),
             "lap_theta": (grad["lap_theta"], jac["u1"] + jac["u2"])}
    for comp, (got, want) in pairs.items():
        both = np.isfinite(got) & np.isfinite(want)
        if comp.startswith("omega"):    # never masked
            assert both.any(), comp
        gap = np.abs(got[both] - want[both]).max(initial=0.0)
        assert gap <= 1e-14, (comp, gap)


# --------------------------------------------------------- refinement orders

def test_affine_study_is_exact():
    study = refinement_study(
        lambda n: cached_field("affine", n), (17, 33, 65),
        lambda mf: verify_pullback_derivative(mf).norm_inf)
    assert study.exact
    assert study.second_order
    assert max(study.norms) < 1e-12


@pytest.mark.parametrize("verify", ALL_IDENTITIES)
@pytest.mark.parametrize("name", ["z2", "paper"])
def test_identities_contract_at_second_order(verify, name):
    study = refinement_study(lambda n: cached_field(name, n), (17, 33, 65),
                             lambda mf: verify(mf).norm_inf)
    assert not study.exact
    assert 1.5 <= study.estimated_order <= 2.5, study.norms


def test_study_input_validation():
    with pytest.raises(ConfigError):
        refinement_study(lambda n: cached_field("z2", n), (17, 33),
                         lambda mf: 1.0)
    with pytest.raises(ConfigError):
        refinement_study(lambda n: cached_field("z2", n), (17, 33, 60),
                         lambda mf: 1.0)


# ----------------------------------------------------------------- mutations

def test_mutated_rhs_destroys_convergence():
    for name, mutation in (("z2", "flip_sigma_perp"),
                           ("z2_mixed", "swap_curvatures")):
        study = refinement_study(
            lambda n: cached_field(name, n), (17, 33, 65),
            lambda mf: verify_jacobian_laplacians(mf, mutation=mutation).norm_inf)
        assert study.estimated_order < 1.0, (name, mutation, study.orders)


def test_swap_curvatures_is_silent_on_equal_factors():
    # both factors have curvature -1, so swapping them is a no-op and the
    # mutation must NOT be detectable on this fixture
    study = refinement_study(
        lambda n: cached_field("z2", n), (17, 33, 65),
        lambda mf: verify_jacobian_laplacians(mf, mutation="swap_curvatures").norm_inf)
    assert study.estimated_order > 1.5


@pytest.mark.filterwarnings("ignore:map is not numerically minimal")
def test_form_gap_sees_swapped_ambient_curvature(monkeypatch):
    # the form-Laplacian residual minus the Jacobian one checks the frame,
    # A, R and sigma_perp against each other: with sigma_M and sigma_N
    # swapped inside R, the gap is O(1) where the factors differ, while the
    # Jacobian residual, which reads no R, keeps every bit
    from minmaps import verifier

    def run(name):
        mf = presets.sine_bump(presets.SCENARIOS[name](n=17), 0.05)
        form = verify_form_laplacian(mf).components
        jac = verify_jacobian_laplacians(mf).components
        gap = max(np.nanmax(np.abs(form[f"omega{i}"] - jac[f"u{i}"]))
                  for i in (1, 2))
        return gap, [c.tobytes() for c in jac.values()]

    clean = {name: run(name) for name in ("z_squared_mixed", "identity_hyperbolic")}
    original = verifier.ambient_curvature
    monkeypatch.setattr(
        verifier, "ambient_curvature",
        lambda X, Y, Z, W, rM, rN, sM, sN: original(X, Y, Z, W, rM, rN, sN, sM))
    mutated = {name: run(name) for name in clean}
    # z_squared_mixed: sigma_M = -1, sigma_N = -2
    assert clean["z_squared_mixed"][0] <= 1e-14
    assert mutated["z_squared_mixed"][0] > 0.1
    assert mutated["z_squared_mixed"][1] == clean["z_squared_mixed"][1]
    # identity_hyperbolic: both factors have curvature -1, so the swap
    # changes no value of R and the gap stays at rounding
    assert mutated["identity_hyperbolic"][0] <= 1e-14


def test_unknown_mutation_rejected(z2_33):
    assert set(MUTATIONS) == {None, "flip_sigma_perp", "swap_curvatures"}
    with pytest.raises(ConfigError):
        verify_jacobian_laplacians(z2_33, mutation="negate_everything")


def test_mutation_recorded_in_report(z2_33):
    report = verify_jacobian_laplacians(z2_33, mutation="flip_sigma_perp")
    assert report.mutation == "flip_sigma_perp"
    assert verify_jacobian_laplacians(z2_33).mutation is None


# ------------------------------------------------------------------ pinching

def test_check_hypotheses_accepts_matching_charts(z2_33, z2_mixed_33, identity_33):
    assert check_hypotheses(z2_33, TheoremHypotheses(1.0, 1.0)).ok
    for sigma in (1.0, 2.0):
        assert check_hypotheses(z2_mixed_33, TheoremHypotheses(sigma, 2.0)).ok
    assert check_hypotheses(identity_33, TheoremHypotheses(2.0, 2.0)).ok


def test_check_hypotheses_rejects_flat_or_overpinched(affine_33, identity_33, z2_mixed_33):
    flat = check_hypotheses(affine_33, TheoremHypotheses(1.0, 1.0))
    assert not flat.ok
    assert flat.max_sigma_target == 0.0
    assert not check_hypotheses(identity_33, TheoremHypotheses(3.0, 3.0)).ok
    # beta must reach down to the most negative target curvature
    assert not check_hypotheses(z2_mixed_33, TheoremHypotheses(1.0, 1.5)).ok


def test_hypotheses_validation():
    with pytest.raises(ConfigError):
        TheoremHypotheses(-1.0, 1.0)
    with pytest.raises(ConfigError):
        TheoremHypotheses(2.0, 1.0)


# -------------------------------------------------------------- certificates

def test_certificate_identity_is_exactly_conformal(identity_33):
    cert = area_decreasing_certificate(identity_33)
    assert cert.min_phi == 0.0
    assert cert.min_theta == 1.0
    assert cert.max_abs_jf == 1.0
    assert cert.area_decreasing
    assert cert.hypothesis_ok is None


def test_certificate_z_squared(z2_65):
    cert = area_decreasing_certificate(z2_65, TheoremHypotheses(1.0, 1.0))
    assert cert.area_decreasing
    assert cert.hypothesis_ok is True
    assert cert.min_phi == pytest.approx(0.12451361867704286, rel=1e-12)
    corner = 0.6 / np.sqrt(2.0)
    assert cert.min_phi_at == pytest.approx((-corner, -corner), rel=1e-12)
    assert cert.max_abs_jf == pytest.approx(0.7785467128027681, rel=1e-12)
    assert cert.min_theta >= 1.0 - 1e-12


def test_certificate_expanding_map_refused():
    mf = presets.scenario_field("euclidean", "euclidean", "affine:2,0,0,2",
                                GridChart(-1.0, 1.0, -1.0, 1.0, 17, 17))
    cert = area_decreasing_certificate(mf, TheoremHypotheses(1.0, 1.0))
    assert not cert.area_decreasing
    assert cert.hypothesis_ok is False
    assert cert.min_phi == pytest.approx(-0.6, rel=1e-14)
    assert cert.max_abs_jf == pytest.approx(4.0, rel=1e-14)
    assert cert.min_theta == pytest.approx(1.0, rel=1e-14)


def test_certificate_tolerance_reclassifies():
    mf = presets.scenario_field("euclidean", "euclidean", "affine:1,0,0,1.0000001",
                                GridChart(-1.0, 1.0, -1.0, 1.0, 9, 9))
    strict = area_decreasing_certificate(mf)
    assert not strict.area_decreasing
    loose = area_decreasing_certificate(mf, tol=1e-6)
    assert loose.area_decreasing


def test_certificate_reads_the_area_cosines_without_the_singular_data():
    # the certificate needs phi, theta and J_f only: on a fresh field it
    # builds the area cosines and no pointwise grid, and a later pointwise
    # grid holds those same planes
    mf = presets.z_squared_field(n=33)
    cert = area_decreasing_certificate(mf)
    assert "area" in vars(mf) and "pointwise" not in vars(mf)
    assert cert.min_phi == np.nanmin(mf.area.phi)
    pw = mf.pointwise
    for name in ("u1", "u2", "jf", "phi", "theta"):
        assert getattr(pw, name) is getattr(mf.area, name), name


# ------------------------------------------------------------- minimum probe

HYP_POINCARE = TheoremHypotheses(1.0, 1.0)


def test_probe_identity_passes_with_flat_diagnostics(identity_33):
    probe = interior_minimum_probe(identity_33, "phi", TheoremHypotheses(2.0, 2.0))
    assert probe.status is ProbeStatus.PASS
    assert probe.value == 0.0
    assert probe.gradient_norm == pytest.approx(0.0, abs=1e-12)
    assert probe.laplacian == pytest.approx(0.0, abs=1e-10)
    assert probe.minimality_defect <= 1e-10


def test_probe_z_squared_passes(z2_65):
    for field in ("phi", "theta"):
        probe = interior_minimum_probe(z2_65, field, HYP_POINCARE)
        assert probe.status is ProbeStatus.PASS, field
        assert probe.value > 0
        assert probe.minimality_defect <= probe.tol


@pytest.mark.parametrize("bump", [0.0, 0.05])
def test_probe_gradient_matches_the_whole_grid(monkeypatch, z2_65, bump):
    # the probe reads |grad u|^2 on the three rows around its minimiser; the
    # whole-grid plane holds the same bits there. A huge minimality factor
    # lets the bumped field through to a reported gradient
    monkeypatch.setattr(verifier, "MINIMALITY_FACTOR", np.inf)
    mf = presets.sine_bump(z2_65, bump)
    gg = mf.graph
    L1, L2 = gg.laplacians
    for name, u, lap in (("phi", gg.pw.phi, L1 - L2),
                         ("theta", gg.pw.theta, L1 + L2)):
        probe = interior_minimum_probe(mf, name, HYP_POINCARE)
        assert probe.status is ProbeStatus.PASS
        rows = np.isfinite(u) & np.isfinite(lap)
        at = np.unravel_index(np.argmin(np.where(rows, u, np.inf)), u.shape)
        whole = gradient_norm_sq_array(u, gg.metric, mf.grid)[at]
        assert probe.gradient_norm == float(np.sqrt(max(whole, 0.0))), name


def test_probe_refuses_non_minimal_input(z2_65):
    g = z2_65.grid
    perturbed = presets.sine_bump(z2_65, 0.05)
    probe = interior_minimum_probe(perturbed, "phi", HYP_POINCARE)
    assert probe.status is ProbeStatus.REFUSED_NOT_MINIMAL
    assert probe.minimality_defect > 10 * g.h ** 2


def test_probe_flat_target_is_inconclusive(paper_33):
    probe = interior_minimum_probe(paper_33, "phi", HYP_POINCARE)
    assert probe.status is ProbeStatus.INCONCLUSIVE_BOUNDARY
    assert probe.value < 0


def test_probe_rejects_unknown_field(z2_33):
    with pytest.raises(ConfigError):
        interior_minimum_probe(z2_33, "jf", HYP_POINCARE)


def test_probe_decision_table():
    kw = dict(tol=1e-3)
    # certified interior violation: negative min, vanishing Laplacian,
    # strictly positive PDE right-hand side
    assert _probe_decision(-0.5, -0.5, 0.0, 0.3, 1e-9, **kw) \
        is ProbeStatus.VIOLATION
    # same data with failed pinching cannot certify anything
    assert _probe_decision(-0.5, -0.5, 0.0, 0.3, 1e-9, hypotheses_ok=False, **kw) \
        is ProbeStatus.INCONCLUSIVE_BOUNDARY
    # defect dominates every other consideration
    assert _probe_decision(-0.5, -0.5, 0.0, 0.3, 0.5, **kw) \
        is ProbeStatus.REFUSED_NOT_MINIMAL
    # nonnegative global minimum is the positive certificate
    assert _probe_decision(0.0, 0.2, None, 0.0, 1e-9, **kw) is ProbeStatus.PASS
    assert _probe_decision(-1e-9, 0.2, None, 0.0, 1e-9, **kw) is ProbeStatus.PASS
    # negative minimum escaping to the boundary ring
    assert _probe_decision(-0.5, -0.4, 0.0, 0.3, 1e-9, **kw) \
        is ProbeStatus.INCONCLUSIVE_BOUNDARY
    # no usable Laplacian, or one too negative to certify a minimum
    assert _probe_decision(-0.5, -0.5, None, 0.3, 1e-9, **kw) \
        is ProbeStatus.INCONCLUSIVE_BOUNDARY
    assert _probe_decision(-0.5, -0.5, -1.0, 0.3, 1e-9, **kw) \
        is ProbeStatus.INCONCLUSIVE_BOUNDARY
    # PDE bound indistinguishable from zero
    assert _probe_decision(-0.5, -0.5, 0.0, 0.0, 1e-9, **kw) \
        is ProbeStatus.INCONCLUSIVE_BOUNDARY


def test_probe_report_fields(z2_65):
    probe = interior_minimum_probe(z2_65, "phi", HYP_POINCARE)
    x, y = probe.location
    g = z2_65.grid
    assert g.x0 <= x <= g.x1 and g.y0 <= y <= g.y1
    assert probe.field_name == "phi"
    assert probe.tol > 0
