"""Source hygiene: no import in src/textmass or tests goes unused, and no
top-level function, class or ALL_CAPS constant of src/textmass goes
unreferenced. No linter ships with the project, so both checks read the
modules with `ast`."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "textmass"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a bare name or as the base of an
    attribute chain; an assigned name, such as a dataclass field, is not
    read."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(path: Path) -> list[str]:
    """`line: name` of each import binding the module never reads, skipping
    `from __future__` and lines marked `# noqa: F401`."""
    tree = _tree(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    used = _loaded_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1))
        if marked:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.name}:{node.lineno}: {bound}")
    return unused


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module reads, imports or exports."""
    names = _loaded_names(tree) | _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _defined_names(node: ast.stmt) -> list[str]:
    """The name a top-level function or class defines, or the ALL_CAPS
    names (a leading underscore allowed) a top-level assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    else:
        targets = [node.target] if isinstance(node, ast.AnnAssign) else []
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id)
    ]


def unreferenced_definitions(paths: list[Path]) -> list[str]:
    """`module.name` of each top-level function, class or ALL_CAPS constant
    that no module of paths reads, imports or exports by name. A dunder
    name, such as a module `__getattr__`, is a hook the interpreter calls,
    so it counts as referenced."""
    trees = {path: _tree(path) for path in paths}
    referenced = set().union(*map(_referenced, trees.values()))
    return [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[p.name for p in MODULES + TESTS])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_every_top_level_function_is_referenced():
    assert unreferenced_definitions(MODULES) == []


def test_checks_catch_what_they_look_for(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "_LOW, _HIGH = 0, 1\n"
        "lower = 5\n"
        "def used():\n"
        "    return loads('1') + LIMIT + _LOW\n"
        "def orphan():\n"
        "    return used()\n"
        "def encode_text():\n"
        "    pass\n"
        "class Orphan:\n"
        "    pass\n"
        "class Used:\n"
        "    pass\n"
        "VALUE = Used()\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
        "def __orphan():\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["sample.py:2: os", "sample.py:4: dumps"]
    assert unreferenced_definitions([module]) == [
        "sample._SPARE", "sample._HIGH", "sample.orphan", "sample.encode_text", "sample.Orphan",
        "sample.VALUE", "sample.__orphan",
    ]
