"""textmass benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs in its own worker process
with one BLAS thread. With --trace 0 the run reports the end-to-end metrics
that BENCHMARK.json lists; setup_s is the worker's import time plus the
median of three builds of the workload, made before the first operation.
With --trace 1 a separate run records spans and
reports the per-layer metrics. --workload all runs every workload in turn.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Each run also writes perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "retrieve", "gradcheck")
# A run overshoots --seconds by its set-ups, its checks and up to half a group
# of operations; a gradcheck cycle (22 checks, twice over when traced) can
# take longer than --seconds. At --seconds 30 the worker is stopped before
# the run has taken 180 s.
OVERSHOOT_S = 135


def spawn(args, timeout: float) -> dict:
    """Start a worker, wait for it, and return the JSON object it printed."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(HERE / "results"),
               "--spawned-at", repr(time.time())]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {args.workload} ran past {timeout:g} s") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args, spec: dict) -> dict:
    result = spawn(args, args.seconds + OVERSHOOT_S)
    metrics = result["metrics"]
    names = spec["per_layer" if args.trace else "end_to_end"]
    result["summary"] = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names if m["name"] in metrics},
    }
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    report(args, result, names)
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"{args.workload}: no value for {', '.join(missing)}")
    return result["summary"]


def report(args, result: dict, names: list[dict]) -> None:
    """Every metric by name with its unit, then the timings and environment."""
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    units = {m["name"]: m["unit"] for m in names}
    for name, value in result["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {units.get(name, unit_of(name))}")
    print(f"  {'failed_op_ratio':48s} {result['failed_op_ratio']:14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for kind, t in result.get("timings", {}).items():
        tail = "none with ten beyond" if t["tail_pct"] is None else \
            f"p{t['tail_pct']:.0f} {1000 * t['tail_s']:.2f} ms"
        print(f"  op {kind:10s} median {1000 * t['median_s']:.2f} ms, {tail}, n={t['n']}")
    print(f"  set-up: imports {result['import_s']:.3f} s, builds "
          + ", ".join(f"{s:.3f}" for s in result["builds_s"]) + " s")
    print("  env " + json.dumps(result["env"]))


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return {"setup_s": "s", "single_setup_s": "s", "peak_rss_mb": "MB",
            "ref_block_s": "s"}.get(name, "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "textmass" / "__init__.py").is_file():
        print(f"no textmass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (HERE / "results").mkdir(exist_ok=True)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in chosen:
        args.workload = workload
        summaries.append(run_workload(args, spec))
    if len(summaries) == 1:
        print(json.dumps(summaries[0]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": {f"{w}.{name}": value for w, s in zip(chosen, summaries)
                        for name, value in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
