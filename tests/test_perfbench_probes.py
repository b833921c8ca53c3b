"""The traced benchmark rebinds module attributes by name (perfbench/worker.py
`probes()`, read through `owner.__dict__[attr]`), so every name it probes
must stay bound where it looks it up. Every other textmass name the worker
reads must exist too."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

# run in a child process: importing the worker pins BLAS thread variables
# in os.environ, which must not leak into the test process
PROBE_SCRIPT = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("bench_worker", sys.argv[2])
worker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(worker)
probes = worker.probes()
missing = [f"{p.owner.__name__}.{p.attr}" for p in probes if p.attr not in vars(p.owner)]
print(json.dumps({"probes": len(probes), "missing": missing}))
"""


def test_every_probe_owner_still_has_its_attribute():
    done = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT, str(WORKER.parent), str(WORKER)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["probes"] > 0
    assert result["missing"] == []


def test_every_textmass_name_the_worker_reads_exists():
    # every attribute read on a textmass module the worker imports, and every
    # name it imports from one, so that a src rename fails here rather than
    # as a failed benchmark run
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    modules, wanted = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "textmass":
            modules.update((a.asname or a.name, f"textmass.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("textmass."):
            wanted.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            wanted.add((modules[node.value.id], node.attr))
    assert set(modules) == {"core", "dataset", "evaluation", "model", "objectives", "trainer"}
    assert ("textmass.model", "flatten_params") in wanted
    assert ("textmass.trainer", "init_model_from_config") in wanted
    missing = [f"{mod}.{name}" for mod, name in wanted if not hasattr(importlib.import_module(mod), name)]
    assert sorted(missing) == []
