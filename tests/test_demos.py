"""Every demo script runs to completion against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", str(demo)],
        capture_output=True, text=True, cwd=tmp_path,
        # TMPDIR keeps the files a demo writes to a temporary directory in tmp_path
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)},
    )
    assert done.returncode == 0, done.stderr
    # a demo closes the files and removes the temporary directories it opens
    assert "ResourceWarning" not in done.stderr
    assert not list(tmp_path.glob("clustersc_demo_*"))
