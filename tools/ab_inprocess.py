"""Time two src/ trees against each other in one process, interleaved.

    python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC [--rounds N] [--workloads train,retrieve,gradcheck]

Each argument is a `src` directory holding a `textmass` package, for example
a clean checkout of the parent commit and this checkout's own `src`. Both
trees are imported into this process (tools/trees.py), each with its own
`textmass` modules, and each side builds its workloads from this checkout's
`perfbench/worker.py` (read, never changed), so both sides run the same
operations at the same seed. A round times, on each side:

- train: the bench `train` operation (train, save and reload a checkpoint)
- det, m20: one deterministic and one best-of-20 `retrieve` pass
- gradcheck: one cycle of criterion 1's 22 gradient checks

alternating which side runs first from round to round. The tree loaded
first can run faster or slower than the other by a few per cent on the same
code, so half the rounds run with the parent tree loaded first and half,
after both trees are loaded again, with the change tree loaded first; each
half starts with a warm-up round that is not counted. The report gives,
per operation, both sides' median seconds over all rounds, the
parent-over-change ratio (above 1 means the change is faster) over all
rounds and over each half, the rounds each side was faster in, and whether
both sides gave the same output (the worker's digest).

Separate processes read differences of a few per cent as noise: code layout
and interpreter start move whole runs. Interleaving in one process times
both trees under the same machine state, but that does not make a gap of a
few per cent a verdict: on a shared 2-core VM one 20-round run did not
resolve a gradcheck gap under about 8 %, and its per-order ratios spread
wider than that with the same tree on both sides, so agreeing parent_first
and change_first columns are no verdict either. Run the parent against
itself as a control (PARENT_SRC PARENT_SRC) and read a change's ratios
against the control's spread. BLAS and OpenMP run one thread, as in the
benchmark. Timing is wall-clock on whatever machine runs it.
"""

from __future__ import annotations

import os

# the benchmark worker's pins, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from trees import load_textmass, load_worker  # noqa: E402

WORKLOADS = ("train", "retrieve", "gradcheck")
# the workload seed, perfbench's --seed: the bench corpus and gradcheck fixture
SEED = 0


class Side:
    """One src tree: its textmass modules and the workloads its worker built."""

    def __init__(self, name: str, src: Path, workloads: tuple[str, ...], workdir: Path):
        self.name = name
        self.modules = load_textmass(src)
        self.worker = load_worker(name)
        self.built = {}
        for workload in workloads:
            kind = self.worker.WORKLOADS[workload]
            folder = workdir / f"{name}-{workload}"
            folder.mkdir()
            self.activate()
            self.built[workload] = kind(SEED, folder)

    def activate(self) -> None:
        """Point sys.modules at this side's textmass, for imports made at call time."""
        sys.modules.update(self.modules)

    def run(self, workload: str, indices) -> tuple[float, str]:
        """Seconds to run the workload's operations at indices, and a digest of their outputs."""
        built = self.built[workload]
        self.activate()
        digests = []
        start = time.perf_counter()
        outputs = [built.op(i) for i in indices]
        seconds = time.perf_counter() - start
        for i, out in zip(indices, outputs):
            problems = built.check(i, out)
            if problems:
                raise SystemExit(f"{self.name} {workload} operation {i}: {problems}")
            digests.append(built.digest(out))
        return seconds, "|".join(digests)


def operations(side: Side, workload: str) -> list[tuple[str, list[int]]]:
    """(label, operation indices) of what one round times for the workload."""
    if workload == "retrieve":
        return [("det", [0]), ("m20", [1])]
    if workload == "gradcheck":
        return [("gradcheck", list(range(side.built[workload].group)))]
    return [(workload, [0])]


def measure(sides: list[Side], workloads: tuple[str, ...], rounds: int) -> dict:
    """label -> (per-side lists of seconds, whether every output matched);
    sides is [parent, change], in either load order."""
    times, same = {}, {}
    for r in range(-1, rounds):  # round -1 warms both sides up and is not counted
        order = sides if r % 2 == 0 else sides[::-1]
        for workload in workloads:
            for label, indices in operations(sides[0], workload):
                got = {side.name: side.run(workload, indices) for side in order}
                if r < 0:
                    continue
                for side in sides:
                    times.setdefault(label, {s.name: [] for s in sides})[side.name].append(got[side.name][0])
                digests = {digest for _, digest in got.values()}
                same[label] = same.get(label, True) and len(digests) == 1
    return {label: (times[label], same[label]) for label in times}


# the load orders of the two halves: which tree's textmass is imported first
ORDERS = (("parent", "change"), ("change", "parent"))


def measure_both_orders(trees: dict, workloads: tuple[str, ...], rounds: int, workdir: Path) -> list[dict]:
    """measure's results for each load order of ORDERS, the first half
    taking the odd round; a half of no rounds gives {}."""
    halves = []
    for names, count in zip(ORDERS, ((rounds + 1) // 2, rounds // 2)):
        if count == 0:
            halves.append({})
            continue
        folder = workdir / f"{names[0]}-first"
        folder.mkdir()
        sides = {name: Side(name, trees[name], workloads, folder) for name in names}
        halves.append(measure([sides["parent"], sides["change"]], workloads, count))
    return halves


def _ratio(times: dict) -> str:
    return f"{statistics.median(times['parent']) / statistics.median(times['change']):.3f}"


def report(halves: list[dict], parent: Path, change: Path, rounds: int) -> str:
    lines = [
        f"in-process interleaved A/B, {rounds} rounds, one BLAS thread, wall-clock",
        f"parent: {parent}",
        f"change: {change}",
        f"parent_first, change_first: parent/change over the {(rounds + 1) // 2} and {rounds // 2} rounds "
        "with that tree loaded first",
        f"{'operation':10s} {'parent_s':>10s} {'change_s':>10s} {'parent/change':>14s} {'parent_first':>13s} "
        f"{'change_first':>13s} {'parent_wins':>12s} {'change_wins':>12s} {'same_output':>12s}",
    ]
    for label in halves[0]:
        parts = [half.get(label) for half in halves]
        a, b = ([t for times, _ in filter(None, parts) for t in times[side]] for side in ("parent", "change"))
        med_a, med_b = statistics.median(a), statistics.median(b)
        wins_a = sum(x < y for x, y in zip(a, b))
        wins_b = sum(y < x for x, y in zip(a, b))
        same = all(matched for _, matched in filter(None, parts))
        by_order = ["-" if part is None else _ratio(part[0]) for part in parts]
        lines.append(f"{label:10s} {med_a:10.4f} {med_b:10.4f} {med_a / med_b:14.3f} {by_order[0]:>13s} "
                     f"{by_order[1]:>13s} {wins_a:12d} {wins_b:12d} {'yes' if same else 'no':>12s}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="src directory of the parent tree")
    parser.add_argument("change", type=Path, help="src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset of " + ", ".join(WORKLOADS))
    args = parser.parse_args(argv)
    workloads = tuple(w for w in args.workloads.split(",") if w)
    unknown = set(workloads) - set(WORKLOADS)
    if unknown or not workloads:
        parser.error(f"unknown workloads {sorted(unknown)}; choose from {', '.join(WORKLOADS)}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        halves = measure_both_orders({"parent": args.parent, "change": args.change}, workloads, args.rounds,
                                     Path(tmp))
    print(report(halves, args.parent, args.change, args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
