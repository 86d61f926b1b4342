"""Smoke runs of the scripts at small sizes: each exits cleanly and prints
the fields it reads from the certificates, the output files and the
traced memory."""

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


def test_sweep_certificates():
    out = run_script("sweep_certificates.py", "--n", "17")
    probes = {line.split()[0]: line.split()[-1] for line in out[1:]}
    assert len(probes) == 7
    assert "violation" not in probes.values()
    assert probes["z_squared"] == "pass"


def test_compare_outputs_of_a_tree_with_itself():
    out = run_script("compare_outputs.py", str(ROOT), "--n", "17",
                     "--preset", "z_squared")
    assert out[-1] == "9 of 9 files identical"
    assert len(out) == 10 and all(line.endswith(": identical") for line in out[:-1])
    assert [line.split("/")[0] for line in out[:-1]] == (
        ["analyze"] * 2 + ["verify"] * 2 + ["refine"] * 2 + ["flow"] * 3)


def stage_memory(n):
    """Each stage's (keeps, transient) planes and the pass peak of a traced
    z_squared verify pass at n."""
    out = run_script("stage_memory.py", "--n", str(n), "--preset", "z_squared")
    stages = {line.split()[0]: line.split() for line in out[1:-1]}
    assert list(stages) == ["field", "graph", "pullback", "form_laplacian",
                            "jacobians", "gradients", "write"]
    for fields in stages.values():
        assert fields[1] == "keeps" and fields[3] == "transient"
    name, label, peak = out[-1].split()
    assert (name, label) == ("pass", "peak")
    assert float(peak) >= max(float(f[4]) for f in stages.values())
    return ({name: (float(f[2]), float(f[4])) for name, f in stages.items()},
            float(peak))


def test_stage_memory_holds_few_transient_planes():
    # every stage of a verify pass up to the write holds at most 16
    # transient grid planes above what it keeps (the write's transient is
    # its fixed-size blocks); at n=65 the grid is one row block
    stages, _ = stage_memory(65)
    for name, (_, transient) in stages.items():
        if name != "write":
            assert transient <= 16.0, name
    # at n=129 the sums run over several row blocks and the pass peaks in
    # the identities: at most one plane above the 77.2 that sums held when
    # they accumulated in place (rows split 127 + 2 read 94.8)
    _, peak = stage_memory(129)
    assert peak <= 78.0


def test_stage_memory_of_a_graph_pass_that_stores_no_frame():
    # at n=129 (four row blocks) the graph pass keeps A, |H|, |A|^2,
    # sigma_perp and one block's frame rows, not the 16 planes of a stored
    # frame (31.0 kept, pass peak 76.3 when it stored one). The identities
    # keep one Laplacian pair and no whole-grid g^-1 or sqrt(det g): the pass
    # peaks at 62.4 (64.4 when the metric kept those four planes)
    stages, peak = stage_memory(129)
    assert stages["graph"][0] <= 20.0
    assert peak <= 64.0
