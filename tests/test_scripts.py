"""The demo scripts run at a small size and print the same bytes on every run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/scan_sequences.py", "--limit", "5000"],
    ["scripts/weight_demo.py", "--N", "2000"],
])
def test_script_output_is_deterministic(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    runs = [subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=120) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
