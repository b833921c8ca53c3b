"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name, start, end, parent span
and operation id. Spans are recorded by rebinding module attributes (the names
one textmass module imports from another) to timing wrappers while an
operation is attached, and are kept in flat arrays until the run ends. Nothing
here imports textmass; the caller passes the modules to patch.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

SETUP_OP = -1
SETUP_ROOT = "bench.setup"
OP_ROOT = "bench.op"


@dataclass(frozen=True)
class Probe:
    """Rebind `owner.attr` to a wrapper that records a span called `span`.

    amount(args, kwargs, result) gives the span's work count (values drawn,
    bytes written, pairs scored); it defaults to 0.
    """

    owner: object
    attr: str
    span: str
    amount: object = None


class Tracer:
    """Spans held in parallel arrays; index order is start order."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.raised = array("b")
        self._stack: list[int] = []
        self._op_id = SETUP_OP

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.amount.append(0.0)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, probe: Probe):
        def traced(*args, **kwargs):
            idx = self._open(probe.span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self._close(idx)
            if probe.amount is not None:
                self.amount[idx] = float(probe.amount(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def attached(self, op_id: int, root: str = OP_ROOT):
        """Record one root span around the block, with every probe installed."""
        originals = [(p, p.owner.__dict__[p.attr]) for p in self.probes]
        for probe, fn in originals:
            setattr(probe.owner, probe.attr, self._wrap(fn, probe))
        self._op_id = op_id
        idx = self._open(root)
        try:
            yield
        finally:
            self._close(idx)
            for probe, fn in originals:
                setattr(probe.owner, probe.attr, fn)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children must follow their parent and appear in start order, which is
    how a single-threaded recorder emits them. Child intervals are clipped
    to the parent and overlapping or adjacent children are counted once.
    """
    covered = [0.0] * len(starts)
    frontier: dict[int, float] = {}
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], frontier.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


def layer_tables(tracer: Tracer) -> dict:
    """Self time, calls, work and errors per span name, one table over the
    operations ("ops") and one over set-up ("setup"). The root spans' self
    time is the "uncovered" row, so each table's rows sum to its wall time."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    tables = {"ops": {"wall_s": 0.0, "rows": {}}, "setup": {"wall_s": 0.0, "rows": {}}}
    for i in range(len(tracer)):
        table = tables["ops" if tracer.op[i] >= 0 else "setup"]
        name = tracer.names[tracer.name_id[i]]
        if tracer.parent[i] < 0:
            table["wall_s"] += tracer.end[i] - tracer.start[i]
            name = "uncovered"
        row = table["rows"].setdefault(
            name, {"self_s": 0.0, "calls": 0, "amount": 0.0, "errors": 0})
        row["self_s"] += selfs[i]
        row["calls"] += 1
        row["amount"] += tracer.amount[i]
        row["errors"] += tracer.raised[i]
    return tables


def child_count(tracer: Tracer, child: str, parent: str) -> int:
    """Number of `child` spans whose direct parent is a `parent` span."""
    ids = tracer._name_ids
    if child not in ids or parent not in ids:
        return 0
    cid, pid = ids[child], ids[parent]
    return sum(
        1 for i in range(len(tracer))
        if tracer.name_id[i] == cid and tracer.parent[i] >= 0
        and tracer.name_id[tracer.parent[i]] == pid
    )
