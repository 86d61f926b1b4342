"""End-to-end scenario runner checks: artifacts, schemas, config parsing,
determinism, and exit codes. All invocations go through main(argv)."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from minmaps import presets
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


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("preset", ["z_squared", "paper_example", "bumped_z_squared"])
def test_point_tables_match_per_value_writer(tmp_path, monkeypatch, preset, n):
    # the bumped map has no formula: its df comes from finite differences,
    # the path of every flow output, snapshot and perturbed start
    from minmaps import cli, floatfmt
    from text_oracle import table_bytes

    source = ["--preset", preset, "--grid", str(n)]
    if preset == "bumped_z_squared":
        cfgfile = tmp_path / "bumped.ini"
        cfgfile.write_text(textwrap.dedent(f"""\
            [source]
            metric = poincare_disc
            [target]
            metric = poincare_disc
            [map]
            spec = z_squared
            perturb = 0.01
            [grid]
            nx = {n}
            half_width = {Z2_HALF!r}
        """))
        source = ["--config", str(cfgfile)]
    expected, blocks = {}, {}
    write_table = cli._write_table

    def spy(path, name, columns, fields):
        expected[path.name] = table_bytes(name, columns, fields)
        blocks[path.name] = divmod(n * n, floatfmt._BLOCK_VALUES // len(columns))
        write_table(path, name, columns, fields)

    monkeypatch.setattr(cli, "_write_table", spy)
    for kind in ("analyze", "verify"):
        assert main([kind, *source, "--out", str(tmp_path)]) == 0
    assert sorted(expected) == ["analysis.csv", "verify.csv"]
    assert b",nan," in expected["verify.csv"]       # the residuals' NaN ring
    if n == 65:     # whole write blocks, then a last one that ends inside
        assert all(full >= 1 and rest for full, rest in blocks.values())
    for name, want in expected.items():
        assert (tmp_path / name).read_bytes() == want


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


def test_analyze_samples_no_log_rho_gradient(tmp_path, monkeypatch):
    # the pointwise pass and the certificate read rho^2 only; the gradient
    # and curvature samples stay unevaluated
    from minmaps import ConformalMetric

    called = []
    for name in ("log_rho_grad", "curvature"):
        monkeypatch.setattr(ConformalMetric, name,
                            lambda self, x, y, _name=name: called.append(_name))
    assert main(["analyze", "--preset", "z_squared", "--grid", "17",
                 "--out", str(tmp_path)]) == 0
    assert called == []


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


def _spec_config(path, kind, source, target, spec, chart, n):
    x0, x1, y0, y1 = chart
    lines = ["[source]", f"metric = {source}"]
    if kind != "curvature":
        lines += ["[target]", f"metric = {target}", "[map]", f"spec = {spec}"]
    lines += ["[grid]", f"nx = {n}", f"x0 = {x0!r}", f"x1 = {x1!r}",
              f"y0 = {y0!r}", f"y1 = {y1!r}"]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("kind", ["analyze", "verify", "refine"])
@pytest.mark.parametrize("name", sorted(presets.SCENARIO_SPECS))
def test_preset_and_its_config_agree_bytewise(tmp_path, kind, name):
    # --preset NAME is shorthand for its SCENARIO_SPECS row, at its default n
    cfgfile = _spec_config(tmp_path / "scenario.ini", kind,
                           *presets.SCENARIO_SPECS[name])
    a, b = tmp_path / "preset", tmp_path / "config"
    assert main([kind, "--preset", name, "--out", str(a)]) == 0
    assert main([kind, "--config", str(cfgfile), "--out", str(b)]) == 0
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir()) and len(files) == 2
    for file in files:
        assert (a / file).read_bytes() == (b / file).read_bytes()


def test_curvature_preset_and_its_config_agree_bytewise(tmp_path):
    # a curvature preset is a metric on +-0.7 (disc charts) at n = 65
    cfgfile = _spec_config(tmp_path / "scenario.ini", "curvature",
                           "poincare_disc", None, None,
                           (-0.7, 0.7, -0.7, 0.7), 65)
    a, b = tmp_path / "preset", tmp_path / "config"
    assert main(["curvature", "--preset", "poincare_disc", "--out", str(a)]) == 0
    assert main(["curvature", "--config", str(cfgfile), "--out", str(b)]) == 0
    for file in ("curvature.csv", "summary.txt"):
        assert (a / file).read_bytes() == (b / file).read_bytes()


def test_runs_are_deterministic(tmp_path):
    outs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        assert main(["analyze", "--preset", "mobius", "--grid", "17",
                     "--out", str(d)]) == 0
        outs.append((d / "analysis.csv").read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------------------ fresh files

def _verify_into(out):
    assert main(["verify", "--preset", "z_squared", "--grid", "17",
                 "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_rerun_writes_the_same_bytes_into_new_files(tmp_path):
    # each output is unlinked and created anew, not truncated in place. The
    # old inodes stay open, so the filesystem cannot hand their numbers out
    first = _verify_into(tmp_path)
    held = {name: os.open(tmp_path / name, os.O_RDONLY) for name in first}
    try:
        assert _verify_into(tmp_path) == first
        for name, fd in held.items():
            assert os.fstat(fd).st_ino != os.stat(tmp_path / name).st_ino, name
    finally:
        for fd in held.values():
            os.close(fd)


def test_rerun_leaves_a_hard_link_with_the_old_bytes(tmp_path):
    out = tmp_path / "out"
    first = _verify_into(out)
    os.link(out / "verify.csv", tmp_path / "kept.csv")
    (out / "verify.csv").write_bytes(b"old\n")     # through both links
    assert _verify_into(out)["verify.csv"] == first["verify.csv"]
    assert (tmp_path / "kept.csv").read_bytes() == b"old\n"
    assert not os.path.samefile(out / "verify.csv", tmp_path / "kept.csv")


def test_output_symlink_is_written_through(tmp_path):
    want = _verify_into(tmp_path / "plain")["verify.csv"]
    out, target = tmp_path / "out", tmp_path / "elsewhere.csv"
    out.mkdir()
    target.write_bytes(b"stale\n")
    (out / "verify.csv").symlink_to(target)
    _verify_into(out)
    assert os.readlink(out / "verify.csv") == str(target)
    assert target.read_bytes() == want


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


def test_verify_counts_evaluated_points(tmp_path):
    # an identity component with no finite residual reads as empty (0
    # points), not as a machine-zero norm: constant masks all four gradient
    # components, z_squared (theta = 1) the two theta ones
    counts = {}
    for preset in ("constant", "z_squared"):
        out = tmp_path / preset
        assert main(["verify", "--preset", preset, "--grid", "33",
                     "--out", str(out)]) == 0
        assert (out / "summary.txt").read_text().startswith("# minmaps summary v5\n")
        summary = read_summary(out / "summary.txt")
        counts[preset] = {key.split(".")[-1]: int(v) for key, v in summary.items()
                          if key.startswith("gradients.evaluated.")}
        assert int(summary["pullback.evaluated.u1_e1"]) > 0
    assert counts["constant"] == dict.fromkeys(
        ("grad_phi", "grad_theta", "lap_phi", "lap_theta"), 0)
    z2 = counts["z_squared"]
    assert z2["grad_theta"] == z2["lap_theta"] == 0
    assert z2["grad_phi"] > 0 and z2["lap_phi"] > 0


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


def test_refine_takes_no_grid_flag(tmp_path, capsys):
    # refine's sizes come from its ladder ([refine] grids): a --grid it
    # would ignore is a usage error that names the flag, and writes nothing
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--preset", "z_squared", "--grid", "33", "--out", str(out)])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err
    assert not out.exists()


def test_refine_counts_evaluated_points_per_grid(tmp_path):
    # a refine says when an identity evaluated nothing: one count per
    # ladder grid, 0 0 0 for a component that is masked on every grid
    counts = {}
    for preset in ("constant", "z_squared"):
        out = tmp_path / preset
        assert main(["refine", "--preset", preset, "--out", str(out)]) == 0
        assert (out / "summary.txt").read_text().startswith("# minmaps summary v5\n")
        summary = read_summary(out / "summary.txt")
        counts[preset] = {key.split(".")[-1]: [int(k) for k in v.split()]
                          for key, v in summary.items()
                          if key.startswith("gradients.evaluated.")}
        assert len(summary["pullback.evaluated.u1_e1"].split()) == 3
    assert counts["constant"]["grad_phi"] == [0, 0, 0]
    z2 = counts["z_squared"]
    assert z2["grad_theta"] == z2["lap_theta"] == [0, 0, 0]
    assert all(k > 0 for k in z2["grad_phi"] + z2["lap_phi"])


def test_refine_reports_mean_curvature_per_grid(tmp_path):
    # the summary's mean_curvature lines: max |H| on each grid, the value
    # `verify` prints as minimality_defect, with its orders like an identity's
    cfgfile = tmp_path / "z2.ini"
    cfgfile.write_text(textwrap.dedent(f"""\
        [source]
        metric = poincare_disc
        [target]
        metric = poincare_disc
        [map]
        spec = z_squared
        [grid]
        nx = 9
        half_width = {Z2_HALF!r}
        [refine]
        grids = 9, 17, 33
    """))
    out = tmp_path / "refine"
    assert main(["refine", "--config", str(cfgfile), "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    assert summary["grids"] == "9 17 33"
    for name in ("pullback", "form_laplacian", "jacobians", "gradients"):
        assert len(summary[f"{name}.orders"].split()) == 2, name
        assert summary[f"{name}.exact"] == "false", name
    # z^2 is minimal and quadratic, so its second differences are exact and
    # |H| is rounding on every grid
    norms = summary["mean_curvature.norm_inf"].split()
    assert len(norms) == 3
    assert all(0.0 < float(v) < 1e-12 for v in norms)
    assert summary["mean_curvature.exact"] == "true"
    assert summary["mean_curvature.orders"] == "none"
    assert main(["verify", "--config", str(cfgfile), "--grid", "33",
                 "--out", str(tmp_path / "verify")]) == 0
    assert read_summary(tmp_path / "verify" / "summary.txt")[
        "minimality_defect"] == norms[2]


# a perturbed Moebius map: not minimal, so every identity check warns
PERTURBED_MOBIUS = textwrap.dedent("""\
    [source]
    metric = poincare_disc
    [target]
    metric = poincare_disc
    [map]
    spec = mobius:0.3
    perturb = 0.01
    [grid]
    nx = 17
    half_width = 0.45
""")


def test_verify_records_identity_warnings(tmp_path, capsys):
    # each identity's warning goes to the summary once, sorted, not stderr
    cfgfile = tmp_path / "verify.ini"
    cfgfile.write_text(PERTURBED_MOBIUS)
    out = tmp_path / "run"
    assert main(["verify", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    notes = [line for line in (out / "summary.txt").read_text().splitlines()
             if line.startswith("warning = ")]
    assert [line.split(":")[0] for line in notes] == [
        "warning = form_laplacian", "warning = gradients",
        "warning = jacobians", "warning = pullback"]
    assert all(": map is not numerically minimal " in line for line in notes)


def test_refine_records_identity_warnings(tmp_path, capsys):
    # the identity checks warn on every grid, and the refine summary keeps
    # each distinct warning once per grid
    cfgfile = tmp_path / "refine.ini"
    cfgfile.write_text(PERTURBED_MOBIUS + "[refine]\ngrids = 17, 33, 65\n")
    out = tmp_path / "run"
    assert main(["refine", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert "not numerically minimal" not in capsys.readouterr().err
    notes = [line for line in (out / "summary.txt").read_text().splitlines()
             if line.startswith("warning = ")]
    assert [line.split(":")[0] for line in notes] == [
        "warning = n=17", "warning = n=33", "warning = n=65"]
    assert all("map is not numerically minimal" in line for line in notes)


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
    assert rows[0] == "# minmaps flow monitors v2"
    last = rows[-1].split(",")
    assert int(last[0]) == int(summary["steps"])
    assert float(last[3]) >= -1e-6  # final min_phi
    # two header lines, the starting map, then one row per step
    assert len(rows) == 3 + int(summary["steps"])
    assert (out / "final_map.txt").read_text().startswith("33 33 ")


def test_flow_summary_counts_rejections(tmp_path):
    # summary.txt gives the guard rejections, monitors.csv their reasons
    cfgfile = tmp_path / "flow.ini"
    cfgfile.write_text(textwrap.dedent(f"""\
        [source]
        metric = poincare_disc
        [target]
        metric = poincare_disc
        [map]
        spec = z_squared
        perturb = 0.01
        [grid]
        nx = 17
        half_width = {Z2_HALF!r}
        [tolerances]
        stop_tension = 1e-6
    """))
    out = tmp_path / "run"
    assert main(["flow", "--config", str(cfgfile), "--out", str(out)]) == 0
    summary = read_summary(out / "summary.txt")
    assert "t" not in summary
    rows = [line.split(",") for line in
            (out / "monitors.csv").read_text().splitlines()[1:]]
    assert rows[0][-2:] == ["chart_exits", "tension_jumps"]
    assert int(summary["rejections"]) == sum(int(r[8]) + int(r[9]) for r in rows[1:])
    assert len(rows) == 2 + int(summary["steps"])


def test_flow_certificate_honours_certificate_tol(tmp_path):
    # flow and analyze of one config certify with the same tolerance
    cfgfile = tmp_path / "flow.ini"
    cfgfile.write_text(textwrap.dedent(f"""\
        [source]
        metric = poincare_disc
        [target]
        metric = poincare_disc
        [map]
        spec = z_squared
        perturb = 0.01
        [grid]
        nx = 17
        half_width = {Z2_HALF!r}
        [tolerances]
        stop_tension = 1e-6
        certificate_tol = 0.5
    """))
    tols = []
    for command in ("flow", "analyze"):
        out = tmp_path / command
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
        tols.append(read_summary(out / "summary.txt")["certificate.tol"])
    assert tols == ["0.5", "0.5"]


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


@pytest.mark.parametrize("section,line", [("tolerances", "stop_tension = nan")])
def test_flow_bad_step_settings_are_config_errors(tmp_path, capsys, section, line):
    cfgfile = tmp_path / "flow.ini"
    cfgfile.write_text(textwrap.dedent(f"""\
        [source]
        metric = poincare_disc
        [target]
        metric = poincare_disc
        [map]
        spec = z_squared
        [grid]
        nx = 17
        half_width = {Z2_HALF!r}
        [{section}]
        {line}
    """))
    assert main(["flow", "--config", str(cfgfile), "--out", str(tmp_path / "run")]) == 2
    assert "must be finite and positive" in capsys.readouterr().err


PAPER_EUC = ("verify", "euclidean", "paper_example")
WIDE_DISC = ("analyze", "poincare_disc", "expr:1.5*x, 1.5*y")


@pytest.mark.parametrize("scenario,setting,message", [
    # a NaN bump made every sample NaN, and all four norms read 0
    (PAPER_EUC, {"perturb": "nan"}, "[map] perturb must be finite"),
    (PAPER_EUC, {"nx": "3"}, "grids need nx, ny >= 5"),
    # an infinite width made every grid point NaN, and all four norms read 0
    (PAPER_EUC, {"half_width": "inf"}, "grid extent must be finite and non-empty"),
    # an infinite tolerance certified a map with min phi = -0.86
    (WIDE_DISC, {"certificate_tol": "inf"},
     "[tolerances] certificate_tol must be finite and non-negative"),
    (WIDE_DISC, {"certificate_tol": "-0.1"},
     "[tolerances] certificate_tol must be finite and non-negative"),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, scenario,
                                             setting, message):
    command, metric, spec = scenario
    value = {"perturb": "0", "nx": "17", "half_width": "0.4",
             "certificate_tol": "0", **setting}
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(textwrap.dedent(f"""\
        [source]
        metric = {metric}
        [target]
        metric = {metric}
        [map]
        spec = {spec}
        perturb = {value["perturb"]}
        [grid]
        nx = {value["nx"]}
        half_width = {value["half_width"]}
        [tolerances]
        certificate_tol = {value["certificate_tol"]}
    """))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


FLOW_CONFIG = f"""\
    [source]
    metric = poincare_disc
    [target]
    metric = poincare_disc
    [map]
    spec = z_squared
    [grid]
    nx = 17
    half_width = {Z2_HALF!r}
    [tolerances]
    stop_tension = 1e-4
"""


@pytest.mark.parametrize("edit,named", [
    # the deleted boundary key must not run silently as a Dirichlet chart
    (("[grid]", "[grid]\nboundary = periodic"), "'boundary' in [grid]"),
    (("stop_tension", "stop_tenson"), "'stop_tenson' in [tolerances]"),
    (("[grid]", "[grid]\nboundry = periodic"), "'boundry' in [grid]"),
    (("[tolerances]", "[flwo]\nmax_steps = 10\n[tolerances]"), "[flwo]"),
    (("[map]", "[mesh]\nnx = 17\n[map]"), "[mesh]"),
    # every section inherits a [DEFAULT] key; name it where it is set,
    # not in [source], the first section that inherits it
    (("[source]", "[DEFAULT]\nnx = 9\n[source]"), "'nx' in [DEFAULT]"),
    # every grid is square in points: the deleted ny key is named
    (("[grid]", "[grid]\nny = 33"), "'ny' in [grid]"),
])
def test_unknown_config_key_or_section_is_config_error(tmp_path, capsys,
                                                       edit, named):
    cfgfile = tmp_path / "flow.ini"
    cfgfile.write_text(textwrap.dedent(FLOW_CONFIG).replace(*edit))
    out = tmp_path / "run"
    assert main(["flow", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown" in err and named in err
    assert not out.exists()


def _docstring_samples():
    """The config samples of the cli docs: each indented block that starts
    with a section header."""
    from minmaps import cli

    return [textwrap.dedent(block) for block in cli.__doc__.split("\n\n")
            if block.startswith("    [")]


def test_docstring_sample_lists_every_accepted_key(tmp_path):
    # the module docs show, over their samples, every section and key that
    # CONFIG_KEYS accepts, and each sample loads on its own under the
    # strict check, as the subcommand it declares
    import configparser

    from minmaps.cli import CONFIG_KEYS, _config_from_file

    samples = _docstring_samples()
    want = [("z_squared", 65, (-0.45, 0.45, -0.45, 0.45)),
            (None, 65, (-0.5, 0.5, -0.25, 0.25))]
    assert len(samples) == len(want)
    shown = {}
    for k, text in enumerate(samples):
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(text)
        for name in parser.sections():
            shown.setdefault(name, set()).update(parser[name])
        cfgfile = tmp_path / f"sample{k}.ini"
        cfgfile.write_text(text)
        cfg = _config_from_file(cfgfile, parser["scenario"]["kind"], tmp_path)
        assert (cfg.map_spec, cfg.nx, cfg.domain) == want[k]
    assert shown == {name: set(keys) for name, keys in CONFIG_KEYS.items()}


def test_half_width_with_chart_corners_is_config_error(tmp_path, capsys):
    # half_width used to win silently: this chart at x0 = -5 leaves the disc
    cfgfile = tmp_path / "both.ini"
    cfgfile.write_text(textwrap.dedent(FLOW_CONFIG).replace(
        "[grid]", "[grid]\nx0 = -5\nx1 = 5\ny0 = -5\ny1 = 5"))
    out = tmp_path / "run"
    assert main(["analyze", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [grid] gives both half_width and x0" in err
    assert not out.exists()


# -------------------------------------------------------- work per field

@pytest.mark.parametrize("command,grids", [("verify", [65]), ("refine", [17, 33, 65])])
def test_graph_geometry_built_once_per_grid(tmp_path, monkeypatch, command, grids):
    # all four identities share one graph_grid per field: one grid for
    # verify, the three grids of the default ladder for refine
    from minmaps import graph_geometry

    seen = []
    original = graph_geometry.graph_grid
    monkeypatch.setattr(graph_geometry, "graph_grid",
                        lambda mf: seen.append(mf.grid.nx) or original(mf))
    assert main([command, "--preset", "z_squared", "--out", str(tmp_path)]) == 0
    assert seen == grids


# measured: 125.8 planes of 65 x 65 float64, about 110 of them the writer's
# fixed-size blocks; holding the field through the write reads about 196
VERIFY_65_PEAK_PLANES = 125.8


def test_verify_pass_peak_memory(tmp_path):
    # tracemalloc peak of a z_squared verify pass at n=65: at most one
    # plane above its measured value. A warm-up run fills the caches a
    # first call builds (the argument parser, compiled expressions)
    argv = ["verify", "--preset", "z_squared", "--grid", "65", "--out"]
    assert main(argv + [str(tmp_path / "warm")]) == 0
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv + [str(tmp_path / "run")]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= (VERIFY_65_PEAK_PLANES + 1.0) * 65 * 65 * 8


def test_refine_parses_its_specs_once(tmp_path, monkeypatch):
    # one parsed map and pair of metrics serve every grid of the ladder; each
    # row of refine.csv still equals verify's norms on that grid
    cfgfile = tmp_path / "refine.ini"
    cfgfile.write_text(textwrap.dedent("""\
        [source]
        metric = poincare_disc
        [target]
        metric = hyperbolic:2
        [map]
        spec = mobius:0.3
        perturb = 0.01
        [grid]
        nx = 17
        half_width = 0.45
        [refine]
        grids = 17, 33, 65
    """))
    calls = []
    original = presets.parse_map_spec
    monkeypatch.setattr(presets, "parse_map_spec",
                        lambda text: calls.append(text) or original(text))
    out = tmp_path / "refine"
    assert main(["refine", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert calls == ["mobius:0.3"]
    rows = (out / "refine.csv").read_text().splitlines()[2:]
    names = ("pullback", "form_laplacian", "jacobians", "gradients")
    for row, n in zip(rows, (17, 33, 65), strict=True):
        d = tmp_path / f"verify{n}"
        assert main(["verify", "--config", str(cfgfile), "--grid", str(n),
                     "--out", str(d)]) == 0
        s = read_summary(d / "summary.txt")
        assert row == ",".join([s["h"]] + [s[f"{k}.norm_inf"] for k in names])


@pytest.mark.parametrize("grids,message", [
    ("65, 33, 17", "grid spacings must halve between studies "
                   "(got 0.0140625 -> 0.028125)"),
    ("17, 33", "refinement study needs at least three grids")])
def test_refine_checks_its_ladder_before_any_field(tmp_path, monkeypatch,
                                                   capsys, grids, message):
    # a ladder that cannot give orders exits 2 before a field is computed
    from minmaps import MapField

    cfgfile = tmp_path / "refine.ini"
    cfgfile.write_text(textwrap.dedent(f"""\
        [source]
        metric = poincare_disc
        [target]
        metric = poincare_disc
        [map]
        spec = z_squared
        [grid]
        nx = 17
        half_width = 0.45
        [refine]
        grids = {grids}
    """))
    calls = []
    original = MapField.from_expr
    monkeypatch.setattr(MapField, "from_expr",
                        lambda *args: calls.append(args) or original(*args))
    out = tmp_path / "refine"
    assert main(["refine", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert calls == []


def test_refine_checks_its_config_grid(tmp_path, capsys):
    # the ladder sets refine's sizes, but an invalid [grid] nx is still the
    # error verify reports for it, raised before any output is written
    cfgfile = _spec_config(tmp_path / "refine.ini", "refine",
                           *presets.SCENARIO_SPECS["z_squared"][:4], 2)
    out = tmp_path / "refine"
    assert main(["refine", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert ("config error: grids need nx, ny >= 5"
            in capsys.readouterr().err)
    assert not (out / "summary.txt").exists()


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


def test_tiny_grid_is_config_error(tmp_path, capsys):
    assert main(["analyze", "--preset", "z_squared", "--grid", "3",
                 "--out", str(tmp_path)]) == 2
    assert "config error: grids need nx, ny >= 5" in capsys.readouterr().err


def test_unknown_preset_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["analyze", "--preset", "not_a_fixture", "--out", str(tmp_path)])


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    # main parses with one parser per process: a --grid of one call must not
    # become the default of the next
    base = ["analyze", "--preset", "z_squared"]
    assert main(base + ["--grid", "17", "--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    assert read_summary(tmp_path / "a" / "summary.txt")["grid"] == "17x17"
    assert read_summary(tmp_path / "b" / "summary.txt")["grid"] == "65x65"


def test_config_error_does_not_change_the_next_call(tmp_path):
    argv = ["verify", "--preset", "mobius", "--grid", "17"]
    assert main(argv + ["--out", str(tmp_path / "before")]) == 0
    cfgfile = tmp_path / "x.ini"
    cfgfile.write_text("[grid]\nnx = 9\nhalf_width = 1\n")
    assert main(["verify", "--config", str(cfgfile), "--preset", "constant",
                 "--grid", "3", "--out", str(tmp_path / "bad")]) == 2
    with pytest.raises(SystemExit):
        main(["verify", "--preset", "no_such_fixture", "--grid", "9"])
    assert main(argv + ["--out", str(tmp_path / "after")]) == 0
    for name in ("verify.csv", "summary.txt"):
        assert ((tmp_path / "before" / name).read_bytes()
                == (tmp_path / "after" / name).read_bytes())


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "minmaps", "curvature", "--preset", "euclidean",
         "--out", str(tmp_path), "--grid", "9"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "curvature.csv").exists()
