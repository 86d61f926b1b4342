"""End-to-end scenario runner checks: artifacts, schemas, config parsing,
determinism, and exit codes. All invocations go through main(argv)."""

import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from minmaps.cli import main

Z2_HALF = 0.6 / math.sqrt(2.0)


def read_summary(path):
    entries = {}
    for line in path.read_text().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            entries[key.strip()] = value.strip()
    return entries


def load_csv(path, skiprows=2):
    return np.loadtxt(path, delimiter=",", skiprows=skiprows)


# ------------------------------------------------------------------ tables

def test_point_table_layout(tmp_path):
    from minmaps.cli import _write_table

    a = np.arange(6.0).reshape(2, 3) / 3.0
    b = np.array([[np.nan, 1e-300, -0.0], [np.inf, 2.5, 1e17]])
    _write_table(tmp_path / "t.csv", "t", ["a", "b"], [a, b])
    lines = ["# minmaps t csv v1", "a,b"]
    lines += [f"{a[i, j]:.17g},{b[i, j]:.17g}" for i in range(2) for j in range(3)]
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


# ----------------------------------------------------------------- curvature

def test_curvature_preset_poincare(tmp_path):
    assert main(["curvature", "--preset", "poincare_disc",
                 "--out", str(tmp_path), "--grid", "9"]) == 0
    lines = (tmp_path / "curvature.csv").read_text().splitlines()
    assert lines[0] == "# minmaps curvature csv v1"
    assert lines[1] == "x,y,K"
    data = load_csv(tmp_path / "curvature.csv")
    assert data.shape == (81, 3)
    assert np.abs(data[:, 2] + 1.0).max() <= 1e-10
    summary = read_summary(tmp_path / "summary.txt")
    assert summary["scenario"] == "curvature"
    assert float(summary["K.min"]) == pytest.approx(-1.0, abs=1e-10)


def test_curvature_domain_violation_exits_3(tmp_path, capsys):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(textwrap.dedent("""\
        [source]
        metric = poincare_disc
        [grid]
        nx = 9
        half_width = 1.5
    """))
    code = main(["curvature", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert code == 3
    assert "chart domain violation" in capsys.readouterr().err


# ------------------------------------------------------------------- analyze

def test_analyze_jacobian_profile_from_config(tmp_path):
    cfgfile = tmp_path / "scenario.ini"
    cfgfile.write_text(textwrap.dedent("""\
        [scenario]
        kind = analyze
        [source]
        metric = euclidean
        [target]
        metric = euclidean
        [map]
        spec = expr:0.5*(exp(x)-3*exp(-x))*cos(y/2), -0.5*(exp(x)-3*exp(-x))*sin(y/2)
        [grid]
        nx = 129
        x0 = -2
        x1 = 2
        y0 = -3.141592653589793
        y1 = 3.141592653589793
    """))
    out = tmp_path / "run"
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 0
    header = (out / "analysis.csv").read_text().splitlines()[1]
    assert header == "x,y,lambda,mu,s,u1,u2,jf,phi,theta"
    data = load_csv(out / "analysis.csv")
    assert data.shape == (129 * 129, 10)
    x, jf = data[:, 0], data[:, 7]
    want = -(np.exp(2 * x) - 9 * np.exp(-2 * x)) / 8
    assert np.abs(jf - want).max() <= 1e-6
    summary = read_summary(out / "summary.txt")
    assert summary["certificate.area_decreasing"] == "false"


def test_analyze_grid_override(tmp_path):
    assert main(["analyze", "--preset", "z_squared", "--grid", "9",
                 "--out", str(tmp_path)]) == 0
    assert load_csv(tmp_path / "analysis.csv").shape == (81, 10)


def test_analyze_preset_and_expr_config_agree_bytewise(tmp_path):
    a = tmp_path / "preset"
    b = tmp_path / "config"
    assert main(["analyze", "--preset", "z_squared", "--grid", "17",
                 "--out", str(a)]) == 0
    cfgfile = tmp_path / "scenario.ini"
    cfgfile.write_text(textwrap.dedent(f"""\
        [source]
        metric = poincare_disc
        [target]
        metric = poincare_disc
        [map]
        spec = expr:x^2 - y^2, 2*x*y
        [grid]
        nx = 17
        half_width = {Z2_HALF!r}
    """))
    assert main(["analyze", "--config", str(cfgfile), "--out", str(b)]) == 0
    assert (a / "analysis.csv").read_bytes() == (b / "analysis.csv").read_bytes()


def test_runs_are_deterministic(tmp_path):
    outs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        assert main(["analyze", "--preset", "mobius", "--grid", "17",
                     "--out", str(d)]) == 0
        outs.append((d / "analysis.csv").read_bytes())
    assert outs[0] == outs[1]


# -------------------------------------------------------------------- verify

def test_verify_identity_preset_reports_machine_zero(tmp_path):
    assert main(["verify", "--preset", "identity_hyperbolic",
                 "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "summary.txt")
    for name in ("pullback", "form_laplacian", "jacobians", "gradients"):
        assert float(summary[f"{name}.norm_inf"]) <= 1e-10
    assert float(summary["minimality_defect"]) <= 1e-10
    header = (tmp_path / "verify.csv").read_text().splitlines()
    assert header[0] == "# minmaps verify csv v1"
    cols = header[1].split(",")
    assert cols[:2] == ["x", "y"]
    assert len(cols) == 14
    assert "pullback.u1_e1" in cols and "gradients.lap_theta" in cols


# -------------------------------------------------------------------- refine

def test_refine_affine_is_exact(tmp_path):
    assert main(["refine", "--preset", "affine", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "refine.csv").read_text().splitlines()
    assert lines[0] == "# minmaps refine csv v1"
    assert lines[1] == "h,pullback,form_laplacian,jacobians,gradients"
    assert len(lines) == 5
    summary = read_summary(tmp_path / "summary.txt")
    assert summary["grids"] == "17 33 65"
    for name in ("pullback", "form_laplacian", "jacobians", "gradients"):
        assert summary[f"{name}.exact"] == "true"
        assert summary[f"{name}.second_order"] == "true"


# ---------------------------------------------------------------------- flow

def test_flow_relaxes_perturbed_holomorphic_map(tmp_path):
    cfgfile = tmp_path / "flow.ini"
    cfgfile.write_text(textwrap.dedent(f"""\
        [scenario]
        kind = flow
        [source]
        metric = poincare_disc
        [target]
        metric = poincare_disc
        [map]
        spec = z_squared
        perturb = 0.01
        [grid]
        nx = 33
        half_width = {Z2_HALF!r}
        [tolerances]
        stop_tension = 1e-4
    """))
    out = tmp_path / "run"
    assert main(["flow", "--config", str(cfgfile), "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    assert summary["converged"] == "true"
    assert float(summary["norm_tau"]) <= 1e-4
    assert summary["snapshot"] == "final_map.txt"
    assert summary["certificate.area_decreasing"] == "true"
    rows = (out / "monitors.csv").read_text().splitlines()
    assert rows[0] == "# minmaps flow monitors v1"
    last = rows[-1].split(",")
    assert int(last[0]) == int(summary["steps"])
    assert float(last[3]) >= -1e-6  # final min_phi
    assert (out / "final_map.txt").exists()


def test_flow_nan_sample_is_numerical_failure(tmp_path, capsys):
    # 0 * log(0) puts one NaN sample at the origin of an affine map; the
    # flow must fail loudly rather than report a converged zero tension
    cfgfile = tmp_path / "flow.ini"
    cfgfile.write_text(textwrap.dedent("""\
        [scenario]
        kind = flow
        [source]
        metric = euclidean
        [target]
        metric = euclidean
        [map]
        spec = expr:2*x + 0*log(x^2 + y^2), 0.5*y
        [grid]
        nx = 33
        half_width = 1
    """))
    with np.errstate(divide="ignore", invalid="ignore"):
        code = main(["flow", "--config", str(cfgfile), "--out", str(tmp_path / "run")])
    assert code == 4
    assert "tension is not finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "summary.txt").exists()


# ------------------------------------------------------------------ plumbing

def test_missing_spec_is_config_error(tmp_path, capsys):
    assert main(["analyze", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_and_preset_conflict(tmp_path):
    cfgfile = tmp_path / "x.ini"
    cfgfile.write_text("[grid]\nnx = 9\nhalf_width = 1\n")
    assert main(["analyze", "--config", str(cfgfile),
                 "--preset", "z_squared", "--out", str(tmp_path)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path)]) == 2


def test_kind_mismatch_rejected(tmp_path):
    cfgfile = tmp_path / "x.ini"
    cfgfile.write_text(textwrap.dedent("""\
        [scenario]
        kind = flow
        [source]
        metric = euclidean
        [target]
        metric = euclidean
        [map]
        spec = affine
        [grid]
        nx = 9
        half_width = 1
    """))
    assert main(["analyze", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2


def test_unknown_metric_spec(tmp_path):
    assert main(["curvature", "--preset", "klein_bottle",
                 "--out", str(tmp_path)]) == 2


def test_tiny_grid_is_numerical_failure(tmp_path, capsys):
    assert main(["analyze", "--preset", "z_squared", "--grid", "3",
                 "--out", str(tmp_path)]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_unknown_preset_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["analyze", "--preset", "not_a_fixture", "--out", str(tmp_path)])


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "minmaps", "curvature", "--preset", "euclidean",
         "--out", str(tmp_path), "--grid", "9"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "curvature.csv").exists()
