"""Every demo prints exactly what its golden file records.

The golden files under tests/golden/ hold each demo's stdout, so a change
to the pipeline that alters anything a demo shows is caught here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.txt"))
    assert golden == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, check=False
    )
    assert run.returncode == 0, run.stderr
    golden = ROOT / "tests" / "golden" / f"{demo.stem}.txt"
    assert run.stdout == golden.read_text(encoding="utf-8")
