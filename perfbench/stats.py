"""Summary statistics and failed-operation accounting for benchmark runs."""

from __future__ import annotations

import statistics
import traceback
from dataclasses import dataclass, field

# problems kept for the report; every failure is still counted
KEEP_PROBLEMS = 20


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that still has at least
    ten samples above it, or None below eleven samples.

    With n sorted samples the k-th smallest has n - k samples beyond it, so
    the highest qualifying rank is k = n - 10 and its percentile is 100 k / n.
    """
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def run_ends(now: float, deadline: float, group_s: float) -> bool:
    """Whether a run that has just completed a group of operations, which
    took group_s, stops here: at the group boundary nearest the deadline.

    Another group would end about group_s later, so the run stops once that
    end lies farther past the deadline than now lies before it.
    """
    return now + group_s / 2 >= deadline


def ref_scaled(rate: float, reference_s: list[float], nominal_s: float) -> float:
    """A rate measured while a fixed reference block took reference_s
    seconds, scaled to the speed at which that block takes nominal_s.

    The blocks run between the timed operations, so a spell that slows the
    whole machine lengthens both; the scaled rate keeps only the program's
    own change.
    """
    return rate * statistics.fmean(reference_s) / nominal_s


def timing_summary(samples: list[float]) -> dict:
    """Median, tail percentile and sample count of one timing, in seconds."""
    tail = tail_percentile(samples)
    return {
        "n": len(samples),
        "median_s": statistics.median(samples) if samples else None,
        "tail_pct": None if tail is None else tail[0],
        "tail_s": None if tail is None else tail[1],
    }


@dataclass
class Ledger:
    """Attempted and failed operations. An operation fails when it raises or
    when any correctness check on its output reports a problem; a failed
    operation counts once however many checks it fails."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def record(self, op_id: int, problems: list[str]) -> bool:
        """Count one operation; returns whether it passed."""
        self.attempted += 1
        for problem in problems:
            self.fail(op_id, problem)
        return not problems

    def fail(self, op_id: int, problem: str) -> None:
        """Mark a counted operation as failed, also by a check made later."""
        self.failed_ops.add(op_id)
        if len(self.problems) < KEEP_PROBLEMS:
            self.problems.append(f"op {op_id}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _last_line(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def run_checked(op, check, op_id: int, ledger: Ledger, clock):
    """Time op() with clock, check its output, record the outcome.

    Returns (seconds, output) for an operation that passed and None for one
    that raised or failed a check. This is the boundary that must keep the
    run going, so an exception from the program or from a check on its
    output is recorded as a failure, not raised.
    """
    try:
        start = clock()
        output = op()
        elapsed = clock() - start
    except Exception as exc:
        ledger.record(op_id, ["raised " + _last_line(exc)])
        return None
    try:
        problems = check(output)
    except Exception as exc:
        problems = ["check raised " + _last_line(exc)]
    if not ledger.record(op_id, problems):
        return None
    return elapsed, output
