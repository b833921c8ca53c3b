"""Source hygiene: no import in src/textmass or tests goes unused, no
top-level function, class or ALL_CAPS constant of src/textmass goes
unreferenced, the batched stages sum and dot along the last axis through
`core.row_sums` alone, no test rebinds a model's parameter field, and the
modules import each other in layers: none hides a cycle behind
TYPE_CHECKING, and model.py imports from core alone. No linter ships with
the project, so the checks read the modules with `ast`."""

import ast
import re
from pathlib import Path

import pytest

from textmass.model import PARAMETERS

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


# The modules of the batched stages, whose last-axis sums and dots go
# through core.row_sums: its bits do not depend on what is stacked beside a
# row, and numpy's reduce is slow along their short last axes.
STAGE_MODULES = [SRC / name for name in ("encoders.py", "mass.py", "objectives.py")]
# calls that are a sum or dot kernel of their own, whatever their axes
_OTHER_KERNELS = {"einsum", "dot", "inner", "vdot", "tensordot", "trace"}


def _is_last_axis(node: ast.expr) -> bool:
    """Whether an axis argument is -1, alone or in a tuple."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(isinstance(item, ast.UnaryOp) and isinstance(item.op, ast.USub)
               and isinstance(item.operand, ast.Constant) and item.operand.value == 1 for item in items)


def _dotted(node: ast.expr) -> str:
    """`a.b.c` of an attribute chain on a name, or "" for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


def last_axis_reductions(path: Path) -> list[str]:
    """`line: call` of each last-axis sum or dot that bypasses
    core.row_sums: a sum, mean or np.add.reduce given axis -1 (positionally,
    by keyword, or in a tuple of axes), and any einsum, dot, inner, vdot,
    tensordot, trace or linalg.norm call."""
    found = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name, dotted = node.func.attr, _dotted(node.func)
        axes = list(node.args) + [k.value for k in node.keywords if k.arg == "axis"]
        summed = name in ("sum", "mean") or dotted.endswith("add.reduce")
        if summed and any(map(_is_last_axis, axes)) or name in _OTHER_KERNELS or dotted.endswith("linalg.norm"):
            found.append(f"{path.name}:{node.lineno}: {dotted or name}")
    return found


@pytest.mark.parametrize("path", STAGE_MODULES, ids=[p.name for p in STAGE_MODULES])
def test_last_axis_sums_go_through_the_core_kernel(path):
    assert last_axis_reductions(path) == []


def test_the_kernel_check_catches_what_it_looks_for(tmp_path):
    module = tmp_path / "stage.py"
    module.write_text(
        "import numpy as np\n"
        "def stage(x, y):\n"
        "    a = x.sum(axis=-1)\n"
        "    b = np.sum(x * y, -1, keepdims=True)\n"
        "    c = np.mean(x, axis=(-2, -1))\n"
        "    d = np.add.reduce(x, axis=-1)\n"
        "    e = np.einsum('ij,ij->i', x, y)\n"
        "    f = np.linalg.norm(x)\n"
        "    g = np.trace(x)\n"
        "    return x.sum(axis=0) + x.max(axis=-1) + np.sum(x) + x.mean(-2) + row_sums(x, y)\n",
        encoding="utf-8",
    )
    assert last_axis_reductions(module) == [
        "stage.py:3: x.sum", "stage.py:4: np.sum", "stage.py:5: np.mean", "stage.py:6: np.add.reduce",
        "stage.py:7: np.einsum", "stage.py:8: np.linalg.norm", "stage.py:9: np.trace",
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


def parameter_rebindings(path: Path) -> list[str]:
    """`line: target` of each assignment to an attribute named in
    PARAMETERS (a rebound field is no longer a view of the model's flat
    buffer, so AdamW and checkpoints would miss it) and of each builtin
    setattr call, which could do the same; monkeypatch.setattr is an
    attribute call, not the builtin."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in PARAMETERS:
            found.append((node.lineno, node.col_offset, _dotted(node) or node.attr))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "setattr":
            found.append((node.lineno, node.col_offset, "setattr"))
    return [f"{path.name}:{line}: {what}" for line, _, what in sorted(found)]


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_tests_write_parameters_through_their_views(path):
    assert parameter_rebindings(path) == []


def test_the_rebinding_check_catches_what_it_looks_for(tmp_path):
    module = tmp_path / "sample_test.py"
    module.write_text(
        "def test(params, monkeypatch, np):\n"
        "    params.proj_text = np.eye(4)\n"
        "    params.proj_frame = params.fusion_out = np.eye(4)\n"
        "    params.log_lambda += 1.0\n"
        "    setattr(params, 'radius_theta', 0.5)\n"
        "    a, params.adapter_text = 1, np.eye(4)\n"
        "    params.fusion_key[0, 0] = 1.0\n"
        "    params.radius_trainable = False\n"
        "    params.view(params.flat, 'fusion_value')[...] = 0.0\n"
        "    monkeypatch.setattr(params, 'radius_weights', None)\n"
        "    return params.proj_text\n",
        encoding="utf-8",
    )
    assert parameter_rebindings(module) == [
        "sample_test.py:2: params.proj_text", "sample_test.py:3: params.proj_frame",
        "sample_test.py:3: params.fusion_out", "sample_test.py:4: params.log_lambda",
        "sample_test.py:5: setattr", "sample_test.py:6: params.adapter_text",
    ]


def layering_faults(path: Path) -> list[str]:
    """`line: what` of each TYPE_CHECKING import or test, which hides an
    import cycle from the interpreter, and, in a module named model.py,
    of each import of a textmass module other than core: the model table
    sits below every stage that reads it."""
    found = []
    for node in ast.walk(_tree(path)):
        # an imported name, a bare name or an attribute
        named = node.name if isinstance(node, ast.alias) else getattr(node, "id", getattr(node, "attr", None))
        if named == "TYPE_CHECKING":
            found.append((node.lineno, "TYPE_CHECKING"))
        if path.name != "model.py":
            continue
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if (node.level or module.startswith("textmass")) and module not in (".core", "textmass.core"):
                found.append((node.lineno, f"from {module} import"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.startswith("textmass") and a.name != "textmass.core"]
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_modules_import_in_layers(path):
    assert layering_faults(path) == []


def test_the_layering_check_catches_what_it_looks_for(tmp_path):
    module = tmp_path / "model.py"
    module.write_text(
        "import typing\n"
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "import textmass.mass\n"
        "from .core import substream\n"
        "from textmass.core import stream_key\n"
        "from .mass import RADIUS_VARIANTS\n"
        "from . import dataset\n"
        "from textmass.trainer import train\n"
        "if TYPE_CHECKING:\n"
        "    pass\n"
        "if typing.TYPE_CHECKING:\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert layering_faults(module) == [
        "model.py:2: TYPE_CHECKING", "model.py:4: import textmass.mass", "model.py:7: from .mass import",
        "model.py:8: from . import", "model.py:9: from textmass.trainer import",
        "model.py:10: TYPE_CHECKING", "model.py:12: TYPE_CHECKING",
    ]
    stage = tmp_path / "stage.py"
    stage.write_text(module.read_text(encoding="utf-8"), encoding="utf-8")
    assert layering_faults(stage) == ["stage.py:2: TYPE_CHECKING", "stage.py:10: TYPE_CHECKING",
                                      "stage.py:12: TYPE_CHECKING"]
