"""The scripts run end to end on a small input."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_implication_sweep_holds_on_a_small_count():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "implication_sweep.py"), "--count", "50"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all implications held"
