import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent

# allow running the suite from a checkout without installing the package
sys.path.insert(0, str(ROOT / "src"))

# the same examples on every run (derandomize also disables the example
# database), so a pass or a failure repeats
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def _git_status():
    """``git status --porcelain`` of the checkout, or None without git."""
    try:
        out = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def pytest_sessionstart(session):
    session.config.git_status_at_start = _git_status()


def pytest_sessionfinish(session, exitstatus):
    """The suite must leave the working tree as it found it."""
    before = getattr(session.config, "git_status_at_start", None)
    after = _git_status()
    if before is None or after is None or after == before:
        return
    session.config.get_terminal_writer().line(
        "the test run changed the working tree:\n" + after, red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
