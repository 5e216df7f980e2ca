"""The benchmark's trajectory sample runs against this checkout and passes its own checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_trajectory_sample_passes_its_checks(tmp_path):
    # one 10,000-step README path through perfbench/child.py, untraced, as a sample runs it
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report), "0", "trajectory", "1", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    checks = json.loads(report.read_text())["checks"]
    assert len(checks) == 3
    assert [check for check in checks if check[1] is not True] == []
