"""Smoke test of tools/ab_inprocess.py: one `train` round with this
checkout's src on both sides. It runs in a child process, because the tool
pins the BLAS thread variables before numpy loads, as the benchmark worker
does."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_train_round_reports_both_sides_and_a_ratio():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), src, src, "--rounds", "1", "--workloads", "train"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert f"parent: {src}" in lines and f"change: {src}" in lines
    rows = [line.split() for line in lines if line.startswith("train ")]
    assert len(rows) == 1
    _, parent_s, change_s, ratio, parent_wins, change_wins, same = rows[0]
    assert float(parent_s) > 0 and float(change_s) > 0
    assert re.fullmatch(r"\d+\.\d{3}", ratio)
    assert int(parent_wins) + int(change_wins) <= 1
    # the same tree on both sides trains the same checkpoint
    assert same == "yes"
