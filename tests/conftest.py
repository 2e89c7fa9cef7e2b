import hashlib
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


def _digest(path: Path):
    if path.is_dir():
        return sorted((str(p), _digest(p)) for p in path.rglob("*") if p.is_file())
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def tree_state(root: Path = ROOT):
    """``git status --porcelain`` of a checkout plus a content hash of every
    path it lists, so that rewriting an already modified file shows too;
    None without git."""
    try:
        out = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    paths = [line[3:].split(" -> ")[-1].strip('"')
             for line in out.stdout.splitlines()]
    return out.stdout, {p: _digest(root / p) for p in paths}


def pytest_sessionstart(session):
    session.config.tree_state_at_start = tree_state()


def pytest_sessionfinish(session, exitstatus):
    """The suite must leave the working tree as it found it."""
    before = getattr(session.config, "tree_state_at_start", None)
    after = tree_state()
    if before is None or after is None or after == before:
        return
    changed = sorted(p for p in set(before[1]) | set(after[1])
                     if before[1].get(p) != after[1].get(p))
    session.config.get_terminal_writer().line(
        "the test run changed the working tree:\n" + after[0]
        + "changed content: " + ", ".join(changed), red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
