"""Tail percentile rule and failed-operation accounting of the benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import Ledger, ref_scaled, run_checked, run_ends, tail_percentile, timing_summary  # noqa: E402


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(1000, 0, -1)]
    pct, value = tail_percentile(samples)
    assert pct == pytest.approx(99.0)
    assert value == 990.0
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile([1.0] * 10) is None
    pct, value = tail_percentile([float(v) for v in range(11)])
    assert pct == pytest.approx(100.0 / 11)
    assert value == 0.0


def test_timing_summary_reports_median_tail_and_count():
    summary = timing_summary([float(v) for v in range(1, 21)])
    assert summary["n"] == 20
    assert summary["median_s"] == 10.5
    assert summary["tail_pct"] == pytest.approx(50.0)
    assert summary["tail_s"] == 10.0
    assert timing_summary([2.0])["tail_pct"] is None


def test_run_ends_at_the_group_boundary_nearest_the_deadline():
    # groups of 10 s against a 30 s deadline: stop at 30, not at 40
    assert not run_ends(20.0, 30.0, 10.0)
    assert run_ends(30.0, 30.0, 10.0)
    # a boundary 4 s short of the deadline is nearer than one 6 s past it
    assert run_ends(26.0, 30.0, 10.0)
    assert not run_ends(24.0, 30.0, 10.0)
    # a group longer than the run stops after itself
    assert run_ends(33.0, 30.0, 33.0)


def test_ref_scaled_cancels_a_machine_wide_slowdown():
    # 100 items/s while the reference block ran at its nominal speed ...
    assert ref_scaled(100.0, [0.04, 0.04], 0.04) == pytest.approx(100.0)
    # ... reads the same when a spell slows both by 1.5x
    assert ref_scaled(100.0 / 1.5, [0.06, 0.06], 0.04) == pytest.approx(100.0)
    # a program twice as fast on the same machine reads twice the rate
    assert ref_scaled(200.0 / 1.5, [0.05, 0.07], 0.04) == pytest.approx(200.0)


def _clock():
    ticks = iter(range(100))
    return lambda: float(next(ticks))


def test_failed_operations_are_counted_against_attempted():
    ledger = Ledger()
    clock = _clock()

    def boom():
        raise RuntimeError("diverged")

    assert run_checked(lambda: 3, lambda out: [], 0, ledger, clock) == (1.0, 3)
    assert run_checked(boom, lambda out: [], 1, ledger, clock) is None
    assert run_checked(lambda: 4, lambda out: ["non-finite score", "below floor"], 2,
                       ledger, clock) is None
    assert run_checked(lambda: 5, lambda out: 1 / 0, 3, ledger, clock) is None
    assert ledger.attempted == 4
    assert ledger.failed == 3
    assert ledger.ratio == pytest.approx(0.75)
    assert "RuntimeError: diverged" in ledger.problems[0]
    assert any("check raised ZeroDivisionError" in p for p in ledger.problems)


def test_late_failure_marks_an_operation_once():
    ledger = Ledger()
    ledger.record(0, [])
    ledger.record(1, [])
    ledger.fail(0, "output differs from the first run")
    ledger.fail(0, "again")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert Ledger().ratio == 0.0
