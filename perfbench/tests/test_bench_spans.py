"""Self-time arithmetic and span recording of the benchmark's tracer."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import OP_ROOT, SETUP_ROOT, Probe, Tracer, child_count, layer_tables, self_times  # noqa: E402


def test_nested_spans_subtract_only_direct_children():
    # root [0, 10] > a [1, 6] > b [2, 4]
    selfs = self_times([0.0, 1.0, 2.0], [10.0, 6.0, 4.0], [-1, 0, 1])
    assert selfs == pytest.approx([5.0, 3.0, 2.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_adjacent_children_are_each_counted_once():
    # root [0, 10] > a [1, 4], b [4, 7] (b starts exactly where a ends)
    selfs = self_times([0.0, 1.0, 4.0], [10.0, 4.0, 7.0], [-1, 0, 0])
    assert selfs == pytest.approx([4.0, 3.0, 3.0])


def test_overlapping_and_overhanging_children_count_their_union_inside_parent():
    # root [0, 10] > a [1, 5], b [3, 6], c [8, 12] clipped to [8, 10]
    selfs = self_times([0.0, 1.0, 3.0, 8.0], [10.0, 5.0, 6.0, 12.0], [-1, 0, 0, 0])
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_span_without_children_keeps_its_whole_duration():
    assert self_times([2.0], [3.5], [-1]) == pytest.approx([1.5])


def _fake_program():
    """Two modules where `outer` calls `inner` through the name it imported."""
    inner_mod = types.SimpleNamespace()
    outer_mod = types.SimpleNamespace()

    def inner(n):
        if n < 0:
            raise ValueError("negative")
        return list(range(n))

    def outer(n):
        return len(outer_mod.inner(n)) + len(outer_mod.inner(n))

    inner_mod.inner = inner
    outer_mod.inner = inner
    outer_mod.outer = outer
    return inner_mod, outer_mod


def test_tracer_records_tree_restores_names_and_sums_to_wall_time():
    inner_mod, outer_mod = _fake_program()
    original = outer_mod.__dict__["inner"]
    tracer = Tracer([
        Probe(outer_mod, "outer", "outer.outer"),
        Probe(outer_mod, "inner", "inner.inner", lambda args, kwargs, result: len(result)),
    ])
    with tracer.attached(-1, SETUP_ROOT):
        outer_mod.inner(2)
    for op in range(2):
        with tracer.attached(op):
            outer_mod.outer(3)
    with pytest.raises(ValueError), tracer.attached(2):
        outer_mod.inner(-1)

    assert outer_mod.__dict__["inner"] is original
    tables = layer_tables(tracer)
    ops, rows = tables["ops"], tables["ops"]["rows"]
    assert rows["outer.outer"]["calls"] == 2
    assert rows["inner.inner"]["calls"] == 5
    assert rows["inner.inner"]["amount"] == 12.0
    assert rows["inner.inner"]["errors"] == 1
    assert rows["uncovered"]["calls"] == 3
    assert sum(row["self_s"] for row in rows.values()) == pytest.approx(ops["wall_s"], abs=1e-12)
    setup = tables["setup"]
    assert setup["rows"]["inner.inner"]["calls"] == 1
    assert setup["rows"]["uncovered"]["calls"] == 1
    assert sum(row["self_s"] for row in setup["rows"].values()) == pytest.approx(setup["wall_s"])
    assert child_count(tracer, "inner.inner", "outer.outer") == 4
    assert child_count(tracer, "inner.inner", OP_ROOT) == 1
    assert child_count(tracer, "missing", OP_ROOT) == 0


def test_probe_on_a_class_method_sees_the_instance():
    class Source:
        def draw(self, n):
            return [0.0] * n

    tracer = Tracer([Probe(Source, "draw", "core.draw", lambda args, kwargs, result: args[1])])
    with tracer.attached(0):
        Source().draw(7)
    assert "draw" in Source.__dict__ and Source.__dict__["draw"].__name__ == "draw"
    assert layer_tables(tracer)["ops"]["rows"]["core.draw"]["amount"] == 7.0
