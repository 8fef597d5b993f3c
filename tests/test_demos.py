"""The demo scripts run to completion and reach their conclusions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

KEY_LINES = {
    "bell_scenarios.py": "p = 501/1000: CHSH value 501/250, globally consistent: False",
    "fd_entailment.py": "Bounded semantic search agrees: refuted (conclusive)",
    "realisation_and_decomposition.py": (
        "Summing the weighted cycles rebuilds the realisation exactly: True"
    ),
    "teachers_courses.py": "  -> no: globally inconsistent",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("demo", sorted(KEY_LINES))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert KEY_LINES[demo] in done.stdout.splitlines()
