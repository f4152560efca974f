"""Every measuring script in ``tools/`` runs to the end at a tiny size.

Each script is run as its own process, as from the shell, and must exit
0: a script that only breaks when somebody next measures with it is
caught here instead.  The sizes are the smallest at which each still
reaches every code path it reports on.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"

RUNS = {
    "apply_sweep": ["--rows", "1000", "--records", "2"],
    "miss_cost": ["--rows", "1000", "--repeat", "1"],
    "section_bytes": ["--rows", "1000"],
    "pool_sweep": ["--rows", "12000", "--pairs", "1"],
    "slice_sweep": ["--rows", "2000", "--passes", "1", "--ops", "20"],
    "cold_parts": ["--rows", "2000", "--repeat", "2"],
}


def test_every_measuring_script_is_covered():
    scripts = {path.stem for path in TOOLS.glob("*.py")} - {"check_floor"}
    assert scripts == set(RUNS)


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs_at_a_tiny_size(script, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(TOOLS / f"{script}.py"), *RUNS[script]],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()
