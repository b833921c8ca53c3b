"""Load a src/ tree's textmass package, and the benchmark worker bound to
it, into this process beside other trees.

Shared by tools/ab_inprocess.py (timing) and tools/bits.py (bits). Each
call to load_textmass imports every module of the tree's textmass afresh
and returns them by name; putting those modules back into sys.modules
(`sys.modules.update(modules)`) makes that tree the one that imports made
at call time see. The caller pins the BLAS thread variables before numpy
loads.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _textmass_names() -> list[str]:
    return [name for name in sys.modules if name == "textmass" or name.startswith("textmass.")]


def load_textmass(src: Path) -> dict:
    """Import every module of src/textmass afresh and return them by name."""
    for name in _textmass_names():
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("textmass")
        for info in pkgutil.iter_modules(package.__path__):
            if info.name != "__main__":
                importlib.import_module(f"textmass.{info.name}")
    finally:
        sys.path.remove(str(src))
    if not Path(package.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"textmass imported from {package.__file__}, not {src}")
    return {name: sys.modules[name] for name in _textmass_names()}


def load_worker(tag: str):
    """This checkout's perfbench/worker.py (read, never changed) as a module
    of its own, bound to the textmass now in sys.modules."""
    spec = importlib.util.spec_from_file_location(f"worker_{tag}", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(worker)
    finally:
        sys.path[:] = saved
    return worker
