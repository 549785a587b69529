"""Every script in scripts/ runs to completion on a tiny stream."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")

RUNS = {
    "run_blob_demo.py": ["--per-blob", "50", "--idle-gens", "1"],
    "seed_sweep.py": ["--seeds", "1", "--per-blob", "100"],
}


def test_every_script_has_a_run():
    assert set(RUNS) == {f for f in os.listdir(SCRIPTS) if f.endswith(".py")}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *RUNS[script]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
