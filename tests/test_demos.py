"""Every demo script runs to the end in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.stem for d in _DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=_ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
