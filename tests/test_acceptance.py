"""Acceptance gate: one test per primary shipping criterion, each printing a
single PASS/FAIL line (run with -s or -rP to see them on success)."""

import functools
import math
import time

import numpy as np
import pytest

from minmaps import (ConformalMetric, FlowConfig, GridChart,
                     MapExpr, MapField, TheoremHypotheses, flow, presets)
from minmaps.graph_geometry import form_on_frame, graph_grid
from minmaps.verifier import (area_decreasing_certificate, refinement_study,
                              verify_form_laplacian,
                              verify_gradient_identities,
                              verify_jacobian_laplacians,
                              verify_pullback_derivative)

from crosscheck_oracle import (classification_masks, kahler_angle_crosscheck,
                               product_inner, sigma_perp_commutator)

ALL_IDENTITIES = (verify_pullback_derivative, verify_form_laplacian,
                  verify_jacobian_laplacians, verify_gradient_identities)

FIXTURES = ("paper_example", "z_squared", "z_squared_mixed",
            "identity_hyperbolic", "constant", "mobius", "affine")


def report(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=None)
def field(name, n=None):
    make = presets.SCENARIOS[name]
    return make() if n is None else make(n=n)


def test_criterion_1_minimal_fixture_mean_curvature_refines():
    t0 = time.perf_counter()
    maxH = [graph_grid(field("paper_example", n)).max_norm_H
            for n in (65, 129, 257)]
    wall = time.perf_counter() - t0
    ratios = [maxH[0] / maxH[1], maxH[1] / maxH[2]]
    ok = all(3.5 <= r <= 4.5 for r in ratios) and wall < 60.0
    report(1, "minimal fixture |H| refinement", ok,
           f"maxH={maxH[0]:.3e}/{maxH[1]:.3e}/{maxH[2]:.3e} "
           f"ratios={ratios[0]:.4f},{ratios[1]:.4f} wall={wall:.2f}s")


def test_criterion_2_jacobian_takes_every_value():
    # closed form -(e^{2x} - 9e^{-2x})/8: equals 1 on the x = 0 line, crosses
    # zero at e^{4x} = 9 (x = ln(3)/2), and reaches (9e^4 - e^-4)/8 at x = -2
    expr = presets.map_preset("paper_example")
    euc = ConformalMetric.euclidean()

    def jf_at(x_center, y_center):
        grid = GridChart(x_center - 0.5, x_center + 0.5,
                         y_center - 0.5, y_center + 0.5, 17, 17)
        pw = MapField.from_expr(grid, euc, euc, expr).pointwise
        return pw.jf[8, :]

    mid = field("paper_example", 65).pointwise.jf[32, :]
    err_one = np.abs(mid - 1.0).max()
    err_zero = np.abs(jf_at(math.log(3.0) / 2, 0.0)).max()
    big = (9 * math.e ** 4 - math.e ** -4) / 8
    err_big = abs(float(jf_at(-2.0, 0.0)[8]) - big)
    ok = err_one <= 1e-8 and err_zero <= 1e-8 and err_big <= 1e-6
    report(2, "jacobian range on canonical map", ok,
           f"|J-1|={err_one:.2e} |J(ln3/2)|={err_zero:.2e} |J-{big:.4f}|={err_big:.2e}")


def test_criterion_3_holomorphic_map_is_area_decreasing():
    mf = field("z_squared", 65)
    gg = graph_grid(mf)
    cert = area_decreasing_certificate(mf)
    bound = 10.0 * mf.grid.h ** 2
    ok = (gg.max_norm_H <= bound
          and cert.max_abs_jf <= 1.0 + 1e-8
          and cert.min_phi >= -bound
          and cert.min_theta >= -bound)
    report(3, "holomorphic fixture certificate", ok,
           f"|H|={gg.max_norm_H:.2e}<=?{bound:.2e} maxJf={cert.max_abs_jf:.6f} "
           f"minphi={cert.min_phi:.4f} mintheta={cert.min_theta:.4f}")


def evaluated(name, reports):
    """The fewest finite residual points of any identity component, and the
    components with none: an empty component reads as empty, not as zero."""
    counts = {f"{verify.__name__[7:13]}.{comp}": k
              for verify, rep in zip(ALL_IDENTITIES, reports)
              for comp, k in rep.evaluated.items()}
    empty = "+".join(c for c, k in counts.items() if k == 0) or "none"
    return f"{name[:5]}:min={min(counts.values())},empty={empty}"


def test_criterion_4_identity_suite_orders():
    details = []
    counts = []
    ok = True
    for name in ("z_squared", "paper_example"):
        for verify in ALL_IDENTITIES:
            study = refinement_study(lambda n: field(name, n), (17, 33, 65),
                                     lambda mf: verify(mf).norm_inf)
            ok &= 1.5 <= study.estimated_order <= 2.5
            details.append(f"{name[:5]}/{verify.__name__[7:13]}={study.estimated_order:.2f}")
        counts.append(evaluated(name, [verify(field(name, 65))
                                       for verify in ALL_IDENTITIES]))
    for name in ("identity_hyperbolic", "constant"):
        reports = [verify(field(name)) for verify in ALL_IDENTITIES]
        worst = max(rep.norm_inf for rep in reports)
        ok &= worst <= 1e-10
        details.append(f"{name[:5]}<={worst:.1e}")
        counts.append(evaluated(name, reports))
    report(4, "identity residual convergence", ok,
           " ".join(details) + " evaluated " + " ".join(counts))


def test_criterion_5_pointwise_crosschecks_every_fixture():
    worst = {"gram": 0.0, "ustar": 0.0, "angle": 0.0, "commutator": 0.0}
    for name in FIXTURES:
        gg = graph_grid(field(name))
        pw = gg.pw
        okf = np.all(np.isfinite(gg.frame), axis=(-2, -1))
        for a in range(4):
            for b in range(4):
                gram = product_inner(gg.rhoM2, gg.rhoN2, gg.frame[..., a, :],
                                     gg.frame[..., b, :])
                err = np.abs(gram[okf] - (1.0 if a == b else 0.0)).max()
                worst["gram"] = max(worst["gram"], float(err))
        w1 = form_on_frame(gg, 1, 1, 2)
        w2 = form_on_frame(gg, 2, 1, 2)
        worst["ustar"] = max(worst["ustar"],
                             float(np.abs(w1[okf] - pw.u1[okf]).max()),
                             float(np.abs(w2[okf] - pw.u2[okf]).max()))
        phi, theta = kahler_angle_crosscheck(gg)
        worst["angle"] = max(worst["angle"],
                             float(np.abs(phi[okf] - pw.phi[okf]).max()),
                             float(np.abs(theta[okf] - pw.theta[okf]).max()))
        oka = np.isfinite(gg.sigma_perp)
        comm = sigma_perp_commutator(gg.A[oka])
        worst["commutator"] = max(worst["commutator"],
                                  float(np.abs(gg.sigma_perp[oka] - comm).max()))
    ok = (worst["gram"] <= 1e-12 and worst["ustar"] <= 1e-10
          and worst["angle"] <= 1e-10 and worst["commutator"] <= 1e-14)
    report(5, "per-point algebra crosschecks", ok,
           " ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_6_mutation_guards():
    flip = refinement_study(
        lambda n: field("z_squared", n), (17, 33, 65),
        lambda mf: verify_jacobian_laplacians(mf, mutation="flip_sigma_perp").norm_inf)
    # the curvature swap is invisible between equal factors, so it runs on
    # the mixed-curvature variant of the same holomorphic map
    swap = refinement_study(
        lambda n: field("z_squared_mixed", n), (17, 33, 65),
        lambda mf: verify_jacobian_laplacians(mf, mutation="swap_curvatures").norm_inf)
    ok = flip.estimated_order < 1.0 and swap.estimated_order < 1.0
    points = {name: verify_jacobian_laplacians(field(name, 65), mutation=m).evaluated
              for name, m in (("z_squared", "flip_sigma_perp"),
                              ("z_squared_mixed", "swap_curvatures"))}
    report(6, "mutation guards break convergence", ok,
           f"flip_order={flip.estimated_order:.3f} swap_order={swap.estimated_order:.3f} "
           f"evaluated flip={min(points['z_squared'].values())} "
           f"swap={min(points['z_squared_mixed'].values())}")


def test_criterion_7_flow_relaxes_and_matches_heat():
    start = presets.sine_bump(field("z_squared", 65), 0.01)
    tau0 = flow.tension_pass(start).norm_tau
    t0 = time.perf_counter()
    result = flow.run_to_minimal(
        start, FlowConfig(stop_tension=tau0 / 1000.0, max_steps=50000),
        hypotheses=TheoremHypotheses(1.0, 1.0))
    relax_wall = time.perf_counter() - t0
    reduction = tau0 / result.state.tension_norm
    flow_ok = (result.converged and result.state.steps <= 50000
               and reduction >= 1000.0 and result.certificate.area_decreasing)

    # flat factors, tiny sine seed on [0, pi]^2 (zero on the pinned ring):
    # explicit Euler steps f + dt tau(f) on the interior must track the
    # 5-point heat semidiscretization mode decay (1 - dt lambda_h)^k
    n, eps, dt, steps = 32, 1e-3, 1e-4, 100
    grid = GridChart(0.0, math.pi, 0.0, math.pi, n + 1, n + 1)
    euc = ConformalMetric.euclidean()
    mf = MapField.from_expr(grid, euc, euc, MapExpr.parse(
        f"0.1 + {eps}*sin(x)*sin(y), -0.2 + {eps}*sin(2*x)*sin(y)"))
    for _ in range(steps):
        vals = mf.values.copy()
        vals[1:-1, 1:-1] += dt * mf.tension.tau[1:-1, 1:-1]
        mf = mf.with_values(vals)
    h = grid.hx
    lam = 8.0 * math.sin(h / 2) ** 2 / h ** 2
    want = eps * (1.0 - dt * lam) ** steps
    mode = np.sin(grid.mesh()[0]) * np.sin(grid.mesh()[1])
    amp = float(np.sum((mf.values[..., 0] - 0.1) * mode) / np.sum(mode * mode))
    heat_err = abs(amp - want) / want
    heat_ok = heat_err <= 1e-4

    report(7, "tension flow relaxation + heat agreement", flow_ok and heat_ok,
           f"reduction={reduction:.1f}x steps={result.state.steps} "
           f"relax_wall={relax_wall:.2f}s "
           f"cert={result.certificate.area_decreasing} heat_rel_err={heat_err:.1e}")


def test_criterion_8_rigidity_spot_check():
    mf = field("identity_hyperbolic")
    pw = mf.pointwise
    gg = graph_grid(mf)
    masks = classification_masks(pw.phi, pw.theta)
    okA = np.all(np.isfinite(gg.A), axis=(-3, -2, -1))
    max_phi = float(np.abs(pw.phi).max())
    max_dtheta = float(np.abs(pw.theta - 1.0).max())
    max_A = float(np.abs(gg.A[okA]).max())
    ok = (max_phi <= 1e-12 and max_dtheta <= 1e-12 and max_A <= 1e-12
          and bool(masks["lagrangian_1"].all()))
    report(8, "conformal identity rigidity", ok,
           f"|phi|={max_phi:.1e} |theta-1|={max_dtheta:.1e} |A|={max_A:.1e} "
           f"lagrangian_1={bool(masks['lagrangian_1'].all())}")
