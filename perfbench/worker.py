"""One benchmark workload in one process.

Started by run.py, never imported by it. Pins the BLAS and OpenMP thread
counts before numpy is imported, imports textmass from the checkout's src/,
sets the workload up from the seed, runs timed operations until the run
length is spent, checks every output, and prints one JSON object.

Operations call textmass only through module attributes (trainer.train,
evaluation.inference_similarity_matrix, ...) so that the traced run can
rebind those names to span recorders; the untimed run leaves them alone.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import textmass  # noqa: E402
from textmass import core, dataset, evaluation, model, objectives, trainer  # noqa: E402
from textmass.mass import RADIUS_VARIANTS, SamplingConfig  # noqa: E402

from spans import SETUP_OP, SETUP_ROOT, Probe, Tracer, child_count, layer_tables  # noqa: E402
from stats import Ledger, ref_scaled, run_checked, run_ends, timing_summary  # noqa: E402

IMPORTED_AT = time.time()
clock = time.perf_counter

# The acceptance bench corpus (512 train / 128 test pairs) and criterion 7's
# bench_config("t-mass"): d=32, 8 frames, linear radius, S=16, alpha=3.
CORPUS = dict(pairs=640, concept_dim=16, raw_frames=16, coverage=0.4,
              noise_sigma=0.1, distractors=2)
TRAIN_CONFIG = dict(dim=32, concept_dim=16, frame_count=8, radius_variant="linear",
                    mode="t-mass", alpha=3.0, train_samples=16, batch_size=32,
                    epochs=5, lr_head=3e-2, lr_adapter=5e-3, weight_decay=0.2,
                    warmup_fraction=0.1, dropout_rate=0.0, trials=20)
# The seed corpus scores R@1 of 99.2 deterministic and 96.1 at M=20; this
# floor only catches a broken model, not a small quality change.
R1_FLOOR = 80.0
TRIALS = 20
# set-ups per untraced run, one after another before the first operation;
# setup_s is the import time plus their median
SETUPS = 3
# Nominal seconds of one reference_block(), about its time at the fast end of
# the machine the benchmark was tuned on; items_per_ref_s is items_per_s
# scaled by the measured block time over this.
REF_BLOCK_S = 0.04
_REF_RNG = np.random.default_rng(0)
_REF_T, _REF_R, _REF_V = _REF_RNG.standard_normal((3, 32))


def reference_block() -> float:
    """Seconds taken by a fixed piece of work that does not touch textmass:
    a pure-Python loop and 400 best-of-20 selections on small numpy arrays.

    Run after every timed operation, it samples the speed of the shared
    machine, which wanders in spells that slow every operation alike
    (README.md, "What limits these measurements").
    """
    start = clock()
    total = 0
    for k in range(300_000):
        total += k * k
    for _ in range(400):
        samples = _REF_T + _REF_R * _REF_RNG.standard_normal(640).reshape(20, 32)
        sims = np.sum(samples * _REF_V, axis=1) / (
            np.sqrt(np.sum(samples * samples, axis=1)) * np.linalg.norm(_REF_V) + 1e-12)
        int(np.argmax(np.clip(sims, -1.0, 1.0)))
    return clock() - start


def corpus_for(seed: int):
    return dataset.split_arrays(dataset.generate(dataset.SyntheticSpec(seed=seed, **CORPUS)))


def finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class Train:
    """Train from a fresh init, then save and reload the checkpoint."""

    item = "training pairs (steps x batch)"
    rates = {"train": "train_pairs_per_s"}
    group = 1

    def __init__(self, seed: int, workdir: Path):
        self.corpus = corpus_for(seed)
        self.config = trainer.TrainingConfig(seed=seed, **TRAIN_CONFIG)
        self.path = workdir / "checkpoint.tmck"
        self.resaved = workdir / "resaved.tmck"

    def kind(self, i: int) -> str:
        return "train"

    key = kind

    def op(self, i: int):
        result = trainer.train(self.corpus.train_text, self.corpus.train_videos, self.config)
        trainer.save_checkpoint(self.path, result.state, self.config)
        state, config = trainer.load_checkpoint(self.path)
        return result, state, config

    def check(self, i: int, out) -> list[str]:
        result, state, config = out
        problems = []
        losses = [value for b in result.step_losses
                  for value in (b.l_t2v, b.l_v2t, b.l_ce, b.l_s, b.l_sup, b.l_total)
                  if value is not None]
        if not finite(losses):
            problems.append("non-finite loss")
        params = result.state.params
        if not finite(model.flatten_params(params, model.all_array_names(params))):
            problems.append("non-finite parameter")
        if config != self.config:
            problems.append("config changed in checkpoint round trip")
        trainer.save_checkpoint(self.resaved, state, config)
        if self.resaved.read_bytes() != self.path.read_bytes():
            problems.append("checkpoint round trip is not bit-exact")
        return problems

    def digest(self, out) -> str:
        return hashlib.sha256(self.path.read_bytes()).hexdigest()

    def items(self, out) -> int:
        return len(out[0].step_losses) * self.config.batch_size


class Retrieve:
    """Score the test pool, alternating deterministic and best-of-M passes,
    with a model trained in set-up."""

    item = "scored (query, candidate) pairs"
    rates = {"det": "retrieve_det_pairs_per_s", "m20": "retrieve_m20_pairs_per_s"}
    group = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.corpus = corpus_for(seed)
        config = trainer.TrainingConfig(seed=seed, **TRAIN_CONFIG)
        self.params = trainer.train(self.corpus.train_text, self.corpus.train_videos,
                                    config).state.params
        self.relevant = np.arange(self.corpus.test_text.shape[0])
        self.sampling = SamplingConfig(trials=TRIALS)

    def kind(self, i: int) -> str:
        return "det" if i % 2 == 0 else "m20"

    key = kind

    def op(self, i: int):
        sims = evaluation.inference_similarity_matrix(
            self.corpus.test_text, self.corpus.test_videos, self.params,
            self.sampling, i % 2 == 1, self.seed)
        _, t2v = evaluation.rank_metrics(sims, self.relevant)
        v2t = evaluation.video_to_text_metrics(sims, self.relevant)
        return sims, t2v, v2t

    def check(self, i: int, out) -> list[str]:
        sims, t2v, v2t = out
        problems = []
        if sims.shape != (self.relevant.size, self.corpus.test_videos.shape[0]):
            problems.append(f"score matrix shape {sims.shape}")
        if not finite(sims):
            problems.append("non-finite score")
        elif np.any(np.abs(sims) > 1.0):
            problems.append("score outside [-1, 1]")
        for metrics in (t2v, v2t):
            if not metrics.r1 >= R1_FLOOR:
                problems.append(f"{metrics.direction} R@1 {metrics.r1} below {R1_FLOOR}")
        return problems

    def digest(self, out) -> str:
        return hashlib.sha256(out[0].tobytes()).hexdigest()

    def items(self, out) -> int:
        return out[0].size


def gradcheck_configs() -> list[dict]:
    """Criterion 1's 22 configurations: variant x alpha x mode plus four extras."""
    configs = [dict(radius_variant=variant, alpha=alpha, mode=mode)
               for variant in RADIUS_VARIANTS for alpha in (0.0, 1.2) for mode in model.MODES]
    configs.append(dict(radius_variant="linear", alpha=1.2, mode="t-mass",
                        radius_trainable=False))
    configs.append(dict(radius_variant="scalar", alpha=0.0, mode="t-mass",
                        radius_trainable=False, theta_init=0.7))
    configs.append(dict(radius_variant="fixed-mean", alpha=1.2, mode="t-mass",
                        adapters_enabled=False))
    configs.append(dict(radius_variant="linear", alpha=1.2, mode="t-mass", train_samples=4))
    return configs


class Gradcheck:
    """Finite-difference gradient checks on criterion 1's fixture (d=16,
    concept_dim=8, 4 frames, N=4, 6 raw frames), cycling its configs.

    The fixture is criterion 1's own, whatever the seed; the seed picks the
    config the cycle starts at. A run measures whole cycles, so every run
    checks the same mix of configs.
    """

    item = "checked partial derivatives"
    rates = {"check": "gradcheck_partials_per_s"}

    def __init__(self, seed: int, workdir: Path):
        self.cases = []
        n, raw_frames = 4, 6
        for i, overrides in enumerate(gradcheck_configs()):
            tc = trainer.TrainingConfig(dim=16, concept_dim=8, frame_count=4,
                                        dropout_rate=0.0, seed=i, **overrides)
            data = core.substream(i, 501)
            texts = data.standard_normal(n * tc.concept_dim).reshape(n, tc.concept_dim)
            videos = data.standard_normal(n * raw_frames * tc.concept_dim).reshape(
                n, raw_frames, tc.concept_dim)
            eps = None
            if tc.mode != "baseline":
                eps = objectives.draw_noise(core.substream(i, 502), tc.train_samples, n, tc.dim)
            self.cases.append((trainer.init_model_from_config(tc),
                               objectives.PairBatch(text=texts, videos=videos),
                               tc.mode, tc.alpha, eps))
        self.first = seed % len(self.cases)
        self.group = len(self.cases)

    def kind(self, i: int) -> str:
        return "check"

    def key(self, i: int) -> int:
        return (self.first + i) % len(self.cases)

    def op(self, i: int):
        params, batch, mode, alpha, eps = self.cases[self.key(i)]
        return objectives.gradient_check(params, batch, mode, alpha, eps, None)

    def check(self, i: int, result) -> list[str]:
        problems = []
        if not result.passed:
            problems.append(f"gradient check failed: {result.failures[:2]}")
        if not finite([result.worst_rel, result.worst_abs]):
            problems.append("non-finite gradient error")
        return problems

    def digest(self, result) -> str:
        return repr((result.passed, float(result.worst_rel).hex(),
                     float(result.worst_abs).hex(), result.checked, result.failures))

    def items(self, result) -> int:
        return result.checked


WORKLOADS = {"train": Train, "retrieve": Retrieve, "gradcheck": Gradcheck}


def probes() -> list[Probe]:
    """Every cross-module name the workloads reach, bound where it is looked up."""
    def pairs(args, kwargs, result):
        return np.shape(args[0])[0] * np.shape(args[1])[0]

    def values(args, kwargs, result):
        return args[1]

    def written(args, kwargs, result):
        return Path(args[0]).stat().st_size

    bindings = [
        (dataset, "generate", "dataset.generate", None),
        (dataset, "split_arrays", "dataset.split_arrays", None),
        (trainer, "train", "trainer.train", None),
        (trainer, "adamw_step", "trainer.adamw_step", None),
        (trainer, "save_checkpoint", "trainer.save_checkpoint", written),
        (trainer, "load_checkpoint", "trainer.load_checkpoint", None),
        (trainer, "init_model_from_config", "trainer.init_model_from_config", None),
        (trainer, "forward_batch", "objectives.forward_batch", None),
        (trainer, "backward_batch", "objectives.backward_batch", None),
        (trainer, "draw_noise", "objectives.draw_noise", None),
        (objectives, "forward_batch", "objectives.forward_batch", None),
        (objectives, "backward_batch", "objectives.backward_batch", None),
        (objectives, "draw_noise", "objectives.draw_noise", None),
        (objectives, "gradient_check", "objectives.gradient_check", None),
        (evaluation, "inference_similarity_matrix",
         "evaluation.inference_similarity_matrix", pairs),
        (evaluation, "rank_metrics", "evaluation.rank_metrics", None),
        (evaluation, "video_to_text_metrics", "evaluation.video_to_text_metrics", None),
        (evaluation, "select_best_sample", "mass.select_best_sample", None),
        (core, "finite_diff_gradient", "core.finite_diff_gradient", None),
        (core.SeededRng, "standard_normal", "core.standard_normal", values),
    ]
    for owner in (dataset, model, trainer, evaluation, core):
        bindings.append((owner, "substream", "core.substream", None))
    return [Probe(owner, attr, span, amount) for owner, attr, span, amount in bindings]


# modules that own at least one probed span
MODULES = ("core", "dataset", "mass", "objectives", "trainer", "evaluation")

# Spans whose self time per operation is a per-layer metric.
TIMED_SPANS = (
    "objectives.forward_batch", "objectives.backward_batch", "objectives.draw_noise",
    "trainer.adamw_step", "trainer.train", "trainer.save_checkpoint",
    "trainer.load_checkpoint", "evaluation.inference_similarity_matrix",
    "mass.select_best_sample", "core.substream", "core.standard_normal",
    "evaluation.rank_metrics", "core.finite_diff_gradient", "objectives.gradient_check",
)
COUNTED_SPANS = (
    "objectives.forward_batch", "objectives.backward_batch", "trainer.adamw_step",
    "evaluation.inference_similarity_matrix", "mass.select_best_sample",
    "core.substream", "core.standard_normal",
)


def layer_metrics(tracer: Tracer, traced_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics, per traced operation, and the full layer tables
    they come from."""
    tables = layer_tables(tracer)
    ops, setup = tables["ops"], tables["setup"]
    rows = ops["rows"]
    empty = {"self_s": 0.0, "calls": 0, "amount": 0.0, "errors": 0}
    metrics = {}
    for span in TIMED_SPANS:
        metrics[f"{span}.self_s"] = rows.get(span, empty)["self_s"] / traced_ops
    for span in COUNTED_SPANS:
        metrics[f"{span}.calls"] = rows.get(span, empty)["calls"] / traced_ops
    metrics["core.standard_normal.values"] = rows.get("core.standard_normal", empty)["amount"] / traced_ops
    metrics["trainer.save_checkpoint.bytes"] = rows.get("trainer.save_checkpoint", empty)["amount"] / traced_ops
    scored = rows.get("evaluation.inference_similarity_matrix", empty)["amount"]
    per_pair = child_count(tracer, "core.substream", "evaluation.inference_similarity_matrix")
    metrics["evaluation.substreams_per_scored_pair"] = per_pair / scored if scored else 0.0
    metrics["dataset.generate.self_s"] = setup["rows"].get("dataset.generate", empty)["self_s"]
    for module in MODULES:
        metrics[f"{module}.errors"] = sum(
            row["errors"] for table in (rows, setup["rows"])
            for span, row in table.items() if span.split(".")[0] == module)
    metrics["trace.uncovered.self_s"] = rows["uncovered"]["self_s"] / traced_ops
    return metrics, dict(tables, traced_ops=traced_ops)


def save_spans(tracer: Tracer, path: Path) -> None:
    np.savez_compressed(
        path, names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_id, dtype=np.intc),
        parent=np.frombuffer(tracer.parent, dtype=np.intc),
        op=np.frombuffer(tracer.op, dtype=np.intc),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        amount=np.frombuffer(tracer.amount, dtype=np.float64),
        raised=np.frombuffer(tracer.raised, dtype=np.int8))


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "textmass").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "timing": "wall-clock time.perf_counter on a shared machine; no machine-wide tracing",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall-clock time.time() at which the parent started this process")
    parser.add_argument("--out", type=Path, required=True, help="directory for run outputs")
    args = parser.parse_args(argv)
    if not Path(textmass.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"textmass imported from {textmass.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    workdir = args.out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(args, workdir: Path):
    """Build the workload once and return it with the seconds that took."""
    start = clock()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    return workload, clock() - start


def run(args, workdir: Path) -> int:
    import_s = IMPORTED_AT - args.spawned_at
    tracer = Tracer(probes()) if args.trace else None
    if tracer is not None:
        with tracer.attached(SETUP_OP, SETUP_ROOT):
            workload, build_s = set_up(args, workdir)
        builds_s = [build_s]
    else:
        builds_s = []
        for _ in range(SETUPS):
            # drop the previous build first, so that peak RSS holds one
            workload = None
            workload, build_s = set_up(args, workdir)
            builds_s.append(build_s)

    ledger = Ledger()
    first_digest: dict = {}
    repeated = set()

    def check(i, out):
        problems = workload.check(i, out)
        digest, key = workload.digest(out), workload.key(i)
        if key in first_digest:
            repeated.add(key)
            if digest != first_digest[key]:
                problems.append(f"output differs from the first run of input {key!r}")
        first_digest.setdefault(key, digest)
        return problems

    times: dict[str, list[float]] = {}
    items: dict[str, int] = {}
    ratios = []
    reference_s = []
    execution = 0

    def execute(i, traced):
        nonlocal execution
        if traced:
            def op():
                with tracer.attached(execution):
                    return workload.op(i)
        else:
            def op():
                return workload.op(i)
        done = run_checked(op, lambda out: check(i, out), execution, ledger, clock)
        execution += 1
        return done

    if tracer is None:
        reference_block()  # warm-up, not counted
    # whole groups (a det plus M=20 pair, a gradcheck cycle) until the group
    # boundary nearest the deadline, and at least one group
    group_start = clock()
    deadline = group_start + args.seconds
    i = 0
    while True:
        if tracer is not None:
            # each input runs untraced and traced, in alternating order
            order = (False, True) if i % 2 == 0 else (True, False)
            done = {traced: execute(i, traced) for traced in order}
            if done[False] and done[True]:
                ratios.append(done[True][0] / done[False][0])
        else:
            done = execute(i, False)
            reference_s.append(reference_block())
            if done:
                kind = workload.kind(i)
                times.setdefault(kind, []).append(done[0])
                items[kind] = items.get(kind, 0) + workload.items(done[1])
        i += 1
        if i % workload.group == 0:
            now = clock()
            if run_ends(now, deadline, now - group_start):
                break
            group_start = now

    key = workload.key(0)
    if key not in repeated:
        # determinism needs a second run of some input: repeat the first one
        redo = run_checked(lambda: workload.op(0), lambda out: [], execution, ledger, clock)
        if redo and workload.digest(redo[1]) != first_digest.get(key):
            ledger.fail(0, f"output differs from the first run of input {key!r}")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "setup_s": import_s + statistics.median(builds_s),
        "import_s": import_s, "builds_s": builds_s,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_op_ratio": ledger.ratio, "problems": ledger.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item": workload.item, "env": environment(),
    }
    if tracer is not None:
        traced_ops = sum(1 for j in range(len(tracer)) if tracer.op[j] >= 0
                         and tracer.parent[j] < 0)
        result["metrics"], result["layers"] = layer_metrics(tracer, traced_ops)
        if ratios:
            result["metrics"]["trace.overhead_ratio"] = statistics.median(ratios)
        save_spans(tracer, args.out / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        result["timings"] = {kind: timing_summary(t) for kind, t in times.items()}
        result["items"] = items
        result["op_s"] = times
        result["reference_s"] = reference_s
        result["metrics"] = dict(end_to_end(workload, times, items, reference_s),
                                 setup_s=result["setup_s"],
                                 single_setup_s=import_s + builds_s[0],
                                 peak_rss_mb=result["peak_rss_mb"])
    print(json.dumps(result))
    return 0


def end_to_end(workload, times: dict, items: dict, reference_s: list[float]) -> dict:
    """Work completed per second of operation time, per kind of operation and
    over all of them, and the latter scaled to the reference machine speed.
    README.md says why this is not items over a median."""
    if not all(times.get(workload.kind(i)) for i in range(workload.group)):
        return {}
    metrics = {name: items[kind] / sum(times[kind]) for kind, name in workload.rates.items()}
    metrics["items_per_s"] = sum(items.values()) / sum(sum(t) for t in times.values())
    metrics["items_per_ref_s"] = ref_scaled(metrics["items_per_s"], reference_s, REF_BLOCK_S)
    metrics["ref_block_s"] = statistics.fmean(reference_s)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
