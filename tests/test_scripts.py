"""Every study script in scripts/ runs to completion at its shortest horizon."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")

# the flags that give each script its shortest run
SHORTEST = {
    "block_stabilization.py": ["--t-end", "0.02"],
    "convergence_vortex.py": ["--levels", "1", "--dt0", "2.0"],
    "diag_digest.py": ["--short"],
    "fingering_sweep.py": ["--ratios", "1", "--t-end", "0.04"],
    "radial_injection.py": ["--t-end", "1e-4"],
    "solve_replay.py": ["--t-end", "0.03", "--repeat", "1"],
}


def _env():
    path = [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_every_script_is_listed():
    assert sorted(SHORTEST) == sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py"))


@pytest.mark.parametrize("script", sorted(SHORTEST))
def test_script_runs(script):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *SHORTEST[script]],
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _digest(*args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, "diag_digest.py"), "--short",
                           *args], env=_env(), capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def kept(tmp_path_factory):
    """A directory of the diagnostics.csv files that a --short run keeps."""
    path = str(tmp_path_factory.mktemp("kept"))
    proc = _digest("--keep", path)
    assert proc.returncode == 0, proc.stderr
    return path


def test_diag_digest_against_its_own_kept_set_prints_zero(kept):
    proc = _digest("--against", kept)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(os.listdir(kept)) > 0
    for line in lines:
        name, sha, *changes = line.split()
        assert changes and all(c.split("=")[1] == "0" for c in changes), line


def test_diag_digest_against_fails_on_a_changed_cell_count(kept, tmp_path):
    changed = tmp_path / "kept"
    shutil.copytree(kept, changed)
    csv = changed / "block.csv"
    header, *rows = csv.read_text().splitlines()
    cells = header.split(",").index("cells")
    row = rows[1].split(",")
    row[cells] = str(int(row[cells]) + 1)
    rows[1] = ",".join(row)
    csv.write_text("\n".join([header, *rows]) + "\n")
    proc = _digest("--against", str(changed))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["block: cells or dofs differ from step 2"]
