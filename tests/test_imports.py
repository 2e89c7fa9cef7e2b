"""Every imported name is used in the module that imports it, every
module-level private name of the package is read in its own module, and
every name the package exports, and every public function, class and
method of a class a package module defines, is read by a program path or
kept for a stated reason.

The check parses each module of ``src/acx`` (the package ``__init__.py``
re-exports by design and is left out of the import check), ``scripts/`` and
``tests/`` with ``ast``.  A name counts as used when it is read anywhere in
the module, including annotations and the head of an attribute chain.
``from __future__`` imports and import lines marked ``# noqa: F401`` are
exempt.  A private name is one bound at module level (``_X = ...``,
``def _f``, ``class _C``) that starts with one underscore and is not a
dunder.  A public name is read when a package module other than
``__init__.py`` (its own module included), a script or a benchmark module
names it, as a name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "acx").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")))


def read_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, alias.lineno)
    used = read_names(tree)
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def unread_private_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for head in node.targets for t in ast.walk(head)
                       if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            targets = [getattr(node.target, "id", "")]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.endswith("__"):
                bound.setdefault(name, node.lineno)
    used = read_names(tree)
    return [f"line {line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_imported_names_are_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, sys\n"
                      "from json import dumps as d, loads  # noqa: F401\n"
                      "import os.path\n"
                      "def f(x: sys.Thing):\n"
                      "    return d(x)\n")
    assert unused_imports(module) == ["line 2: os"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_private_names_are_read(path):
    assert unread_private_names(path) == []


def test_the_check_sees_an_unread_private_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("__all__ = ['f']\n"
                      "_SCALE = 2.0\n"
                      "_CODES = {v: k for k, v in {1: 'a'}.items()}\n"
                      "_A, (_B, c) = 1, (2, 3)\n"
                      "def _helper(x):\n"
                      "    return _SCALE * x + _B\n"
                      "class _Unused:\n"
                      "    _inner = 1\n"
                      "def f(x):\n"
                      "    _local = _helper(x)\n"
                      "    return _local\n")
    assert unread_private_names(module) == [
        "line 3: _CODES", "line 4: _A", "line 7: _Unused"]


# exports that no program path reads, and why each stays public
KEPT = {
    "complexify": "pinned normalization: the complex form of a real one",
    "pullback": "pinned normalization: g^T B g",
    "real_hessian": "pinned normalization: the J-symmetrized A + E(p)",
    "comparison_check": "certificate harness: sub/supersolution comparison",
    "maximality_check": "certificate harness: homogeneous maximality",
    "positivity_closed": "subequation axiom: positivity",
    "strict_contains": "subequation axiom: strict membership",
    "hermitian_hessian": "the metric side of the paper's section 9",
    "subfield_on": "traced by the benchmark's per-layer metrics",
    "transformed_hermitian": "traced by the benchmark's per-layer metrics",
    "bump_mass": "oracle: the quadrature mass of the battery bump",
    "euclidean_metric": "test geometry: the flat metric",
    "vertical_plane": "test geometry: a holomorphic plane off the origin",
    "from_vectorized": "test fixture: a field sampled from a function",
    "uniforms": "test fixture: seeded uniform arrays",
    "spd": "test fixture: seeded SPD matrices",
}


def package_exports() -> list[str]:
    tree = ast.parse((ROOT / "src" / "acx" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def public_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_methods(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [item.name for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def public_names() -> list[str]:
    out = package_exports()
    for path in PACKAGE:
        out += [name for name in public_definitions(path) + public_methods(path)
                if name not in out]
    return out


def program_reads() -> set[str]:
    paths = ([p for p in PACKAGE if p.name != "__init__.py"]
             + list((ROOT / "scripts").glob("*.py"))
             + list((ROOT / "perfbench").glob("*.py")))
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_the_check_sees_public_definitions(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("LIMIT = 3\n"
                      "def f(x):\n"
                      "    def inner():\n"
                      "        return x\n"
                      "    return inner\n"
                      "def _g():\n"
                      "    return 1\n"
                      "class C:\n"
                      "    def method(self):\n"
                      "        return 2\n")
    assert public_definitions(module) == ["f", "C"]


def test_the_check_sees_methods(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(x):\n"
                      "    def inner():\n"
                      "        return x\n"
                      "    return inner\n"
                      "class C:\n"
                      "    LIMIT = 3\n"
                      "    def __init__(self):\n"
                      "        self.x = 1\n"
                      "    @property\n"
                      "    def size(self):\n"
                      "        return 2\n"
                      "    def _helper(self):\n"
                      "        return 3\n"
                      "    @staticmethod\n"
                      "    def build():\n"
                      "        return C()\n"
                      "    class Inner:\n"
                      "        def hidden(self):\n"
                      "            return 4\n")
    assert public_methods(module) == ["size", "build"]


def test_every_export_is_read_or_kept():
    names = public_names()
    reads = program_reads()
    assert [name for name in names
            if name not in reads and name not in KEPT] == []
    # a kept name is still public and still unread by the program
    assert sorted(name for name in KEPT
                  if name not in names or name in reads) == []
