"""The narrative scripts under demos/ stay runnable, with every warning an
error."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run([sys.executable, "-W", "error", str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
