"""List the lines of src/textmass that no tier-1 test executes.

Runs pytest in this process under the standard library's line tracer
(`trace.Trace(count=1)`) and then prints every executable line of
src/textmass that no test reached, as `path:line: source`, with a count per
module. It needs no coverage package. Run it from anywhere in a checkout;
arguments go to pytest, which otherwise collects tier-1 (`tests/` and
`perfbench/tests/`, as pyproject.toml sets). For example, to leave out the
slowest acceptance test:

    python3 tools/untested_lines.py -q --deselect tests/test_acceptance.py::test_criterion_06_best_of_m_monotonicity

Only this process is traced: code that a test runs in a child process
(perfbench's workers) counts as untested. The tracer slows the suite down
several times, so this is a survey tool, not part of tier-1. It exits with
pytest's exit code, so a failing suite is not read as a clean survey.
"""

from __future__ import annotations

import dis
import os
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "textmass"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that start bytecode in the module or in any code
    object nested in it: the lines a line tracer can report."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    # no ignoredirs: trace caches its ignore decision by a file's bare module
    # name, so an ignored numpy/__init__.py would hide every __init__.py here
    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, argv)
    counts = tracer.results().counts
    executed = {(str(Path(file).resolve()), line) for file, line in counts}
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        key = str(path.resolve())
        missed = sorted(line for line in executable_lines(path) if (key, line) not in executed)
        text = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(ROOT)
        for line in missed:
            print(f"{name}:{line}: {text[line - 1].strip()}")
        print(f"{name}: {len(missed)} untested lines")
        total += len(missed)
    print(f"{total} untested lines in {SOURCE.relative_to(ROOT)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
