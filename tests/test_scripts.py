"""The scripts under scripts/ run against the package and exit cleanly, and the
output digest prints its pinned value."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# The digest of the output grid: a change that alters any output byte on
# purpose updates this pin and says so in CHANGES.md.
OUTPUT_DIGEST = "bb0e55b4b1bf3f5e9500ac8d38e81e53100b804ccb3a1aeefa2ea3887d595d8f"


@pytest.mark.parametrize(
    "script, args",
    [
        ("catalog_report.py", ()),
        ("identity_sweep.py", ("--cases", "5")),
        ("output_digest.py", ()),
    ],
)
def test_script_runs_clean(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script == "output_digest.py":
        assert proc.stdout == OUTPUT_DIGEST + "\n"
