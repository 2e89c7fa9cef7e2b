import shutil
import subprocess

import pytest

from conftest import tree_state


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_tree_state_sees_a_rewrite_of_a_modified_file(tmp_path):
    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "a")
    (tmp_path / "a.txt").write_text("two\n")
    (tmp_path / "new").mkdir()
    (tmp_path / "new" / "b.txt").write_text("b\n")
    start = tree_state(tmp_path)
    assert start is not None and tree_state(tmp_path) == start
    (tmp_path / "a.txt").write_text("three\n")
    rewritten = tree_state(tmp_path)
    assert rewritten[0] == start[0] and rewritten != start
    (tmp_path / "a.txt").write_text("two\n")
    (tmp_path / "new" / "b.txt").write_text("c\n")
    assert tree_state(tmp_path) != start
