"""Each script in scripts/ runs to completion at its smallest size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SMALLEST = {
    "solve_disc.py": ["--resolutions", "17"],
    "equivalence_suite.py": ["--fields", "2", "--quadratics", "2"],
    "metric_demo.py": ["--cs", "0"],
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SMALLEST)


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_script_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                          *SMALLEST[script]],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
