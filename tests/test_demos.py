"""Every demo script runs to completion against the current library."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the temporary directories demos create inside tmp_path.
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=child_env(TMPDIR=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
