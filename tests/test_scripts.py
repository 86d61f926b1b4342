"""Smoke runs of the example scripts at small sizes: each exits cleanly and
prints the fields it reads from the flow state, the residual reports and
the certificates."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_flow_experiment(tmp_path):
    out = run_script("run_flow_experiment.py", "--n", "17",
                     "--reduction", "100", "--out", str(tmp_path))
    converged = next(line for line in out if line.startswith("converged = "))
    assert converged.startswith("converged = True in ")
    assert any("area_decreasing = True" in line for line in out)
    steps = int(converged.split(" in ")[1].split()[0])
    monitors = (tmp_path / "monitors.csv").read_text().splitlines()
    assert len(monitors) == 2 + 1 + steps
    assert (tmp_path / "final_map.txt").read_text().startswith("17 17 ")


def test_run_refinement():
    out = run_script("run_refinement.py", "--grids", "9,17,33")
    rows = {line.split()[0]: line.split()[1:] for line in out[2:]}
    assert set(rows) == {"pullback", "form_laplacian", "jacobians",
                         "gradients", "mean_curvature"}
    assert all(len(v) >= 4 for v in rows.values())


def test_sweep_certificates():
    out = run_script("sweep_certificates.py", "--n", "17")
    probes = {line.split()[0]: line.split()[-1] for line in out[1:]}
    assert len(probes) == 7
    assert "violation" not in probes.values()
    assert probes["z_squared"] == "pass"


def test_compare_outputs_of_a_tree_with_itself():
    out = run_script("compare_outputs.py", str(ROOT), "--n", "17",
                     "--preset", "z_squared")
    assert out[-1] == "6 of 6 files identical"
    assert len(out) == 7 and all(line.endswith(": identical") for line in out[:-1])


def test_stage_memory_holds_few_transient_planes():
    # every stage of a verify pass holds at most 16 transient grid planes
    # above what it keeps
    out = run_script("stage_memory.py", "--n", "65", "--preset", "z_squared")
    stages = {line.split()[0]: line.split() for line in out[1:]}
    assert list(stages) == ["graph", "pullback", "form_laplacian",
                            "jacobians", "gradients"]
    for name, fields in stages.items():
        assert fields[1] == "keeps" and fields[3] == "transient"
        assert float(fields[4]) <= 16.0, name
