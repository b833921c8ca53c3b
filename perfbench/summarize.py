"""Summarise benchmark results across seeds and across sets of runs.

    python3 perfbench/summarize.py [--results DIR ...] [--baseline perfbench/baseline.json]

Each DIR holds one set of the *.json results that run.py writes (default
perfbench/results). For every set, workload and metric it prints the median
over seeds, the quartiles and the spread (the distance between the first and
third quartile as a share of the median, from statistics.quantiles(values,
n=4)). It flags a spread that is not below a third of the metric's bound in
BENCHMARK.json, and a set whose median is worse than the first set's by more
than the bound; the exit code is 1 if anything is flagged. With --baseline it
also writes those figures, the environment and each workload's layer table
from its traced run to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def load(results: Path) -> tuple[dict, dict]:
    untraced: dict = {}
    traced: dict = {}
    for path in sorted(results.glob("*-seed*-trace*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        target = traced if result["trace"] else untraced
        target.setdefault(result["workload"], []).append(result)
    return untraced, traced


def layer_rows(result: dict) -> dict:
    """The traced run's layer table, per operation, largest self time first."""
    ops = result["layers"]["ops"]
    count = result["layers"]["traced_ops"]
    rows = sorted(ops["rows"].items(), key=lambda item: -item[1]["self_s"])
    return {
        "traced_ops": count,
        "traced_wall_s_per_op": ops["wall_s"] / count,
        "self_s_per_op": {name: row["self_s"] / count for name, row in rows},
        "calls_per_op": {name: row["calls"] / count for name, row in rows},
        "rows_sum_s_per_op": sum(row["self_s"] for _, row in rows) / count,
        "setup_self_s": {name: row["self_s"] for name, row in result["layers"]["setup"]["rows"].items()},
        "setup_wall_s": result["layers"]["setup"]["wall_s"],
    }


def worse_by(metric: dict, first: float, other: float) -> float:
    """How much worse `other` is than `first`, as a share of `first`."""
    change = (other - first) / first
    return change if metric["better"] == "lower" else -change


def summarize_set(untraced: dict, metrics: list[dict], summary: dict) -> bool:
    """Print and store one set's spreads; returns whether all are steady."""
    steady = True
    for workload, results in sorted(untraced.items()):
        seeds = sorted(r["seed"] for r in results)
        print(f"== {workload}: {len(results)} runs, seeds {seeds}, "
              f"{sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)} "
              f"operations failed")
        rows = summary["end_to_end"][workload] = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            stats = rows[name] = spread([r["metrics"][name] for r in results])
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"  {name:14s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}  "
                  f"q3 {stats['q3']:12.6g}  spread {stats['spread']:.4f} "
                  f"(bound {bound}){'' if ok else '  NOT STEADY'}")
        extras = summary["extras"][workload] = {
            name: spread([r["metrics"][name] for r in results])
            for name in sorted(results[0]["metrics"]) if name not in rows}
        for name, stats in extras.items():
            print(f"  {name:26s} median {stats['median']:12.6g}  spread {stats['spread']:.4f}")
        summary["failed_op_ratio"][workload] = (
            sum(r["failed"] for r in results) / sum(r["attempted"] for r in results))
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, nargs="+", default=[HERE / "results"],
                        help="one directory of results per set of runs")
    parser.add_argument("--baseline", type=Path, help="write the summary to this file")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    summary: dict = {"sets": [], "agreement": {}, "layers": {}}
    steady = True
    traced: dict = {}
    for results_dir in args.results:
        untraced, set_traced = load(results_dir)
        for workload, results in set_traced.items():
            traced.setdefault(workload, results)
        if not untraced:
            continue
        print(f"## set {results_dir.name}")
        entry = {"results": results_dir.name, "end_to_end": {}, "extras": {},
                 "failed_op_ratio": {}}
        steady &= summarize_set(untraced, metrics, entry)
        summary["sets"].append(entry)
        summary["env"] = next(iter(untraced.values()))[0]["env"]
    first = summary["sets"][0] if summary["sets"] else None
    for other in summary["sets"][1:]:
        print(f"## set {other['results']} against set {first['results']}")
        for workload, rows in other["end_to_end"].items():
            agree = summary["agreement"].setdefault(workload, {})
            for metric in metrics:
                name = metric["name"]
                if name not in first["end_to_end"].get(workload, {}):
                    continue
                worse = worse_by(metric, first["end_to_end"][workload][name]["median"],
                                 rows[name]["median"])
                agree[name] = worse
                ok = worse <= metric["bound"]
                steady &= ok
                print(f"  {workload:10s} {name:14s} worse by {worse:+.4f} "
                      f"(bound {metric['bound']}){'' if ok else '  DISAGREES'}")
    for workload, results in sorted(traced.items()):
        table = summary["layers"][workload] = layer_rows(results[0])
        table["per_layer_metrics"] = results[0]["metrics"]
        print(f"== {workload} traced (seed {results[0]['seed']}): "
              f"{table['traced_ops']} operations, rows sum to "
              f"{table['rows_sum_s_per_op']:.6f} s of {table['traced_wall_s_per_op']:.6f} s "
              f"traced wall time per operation, overhead ratio "
              f"{table['per_layer_metrics'].get('trace.overhead_ratio', float('nan')):.3f}")
        for name, self_s in table["self_s_per_op"].items():
            print(f"  {name:42s} {1000 * self_s:12.3f} ms/op  {table['calls_per_op'][name]:10.1f} calls/op")
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
