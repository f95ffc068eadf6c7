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


def test_cli_startup_times_every_subcommand_in_both_states():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_startup.py"), "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split()[:3] == ["subcommand", "none", "compiled"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert len(rows) == 14 and rows["(interpreter)"][2:] == ["-"]
    assert all(float(ms) > 0 for row in rows.values() for ms in row[:2])
    assert rows["discretize"][2:] == ["dists"]
    assert rows["synthesize"][2:] == ["coupling", "dists", "orders", "risk"]
    assert all("coupling" not in row and "apps" in row
               for name, row in rows.items() if name.startswith(("table", "protective")))
