"""Hash the standard set of textmass artifacts for a src/ tree, or compare
two trees artifact by artifact.

    python3 tools/bits.py SRC [OTHER_SRC] [--quick]

Each argument is a `src` directory holding a `textmass` package, for example
a clean checkout of the parent commit and this checkout's own `src`. With
one tree the report is a sha256 manifest of the standard set. With two it
says per artifact whether both trees made the same bytes, and sizes each
difference: the largest parameter, score or gradient difference, the top-1
choices and R@1 that moved, and criteria 1 and 7's printed figures. The
exit status is 1 when some artifact differs.

The standard set:

- the bench `train` checkpoints at seeds 0 and 1 (perfbench's Train operation)
- the `retrieve` deterministic and M = 20 score matrices at seeds 0 and 1
- criterion 1's 22 numeric gradients and check results, and its figures
- 2-epoch bench checkpoints: linear at dropout 0, scalar at 0.1, and
  fixed-mean `ablation-ce-plus-s` at 0.3
- criterion 7's figures: median test R@1 of t-mass and the baseline over
  seeds 0-4
- every file but run.log of TINY CLI runs (`gen-data`, `train` on a
  generated and on a `data` corpus, `eval`, `analyze`, the four grid
  commands), and `gradcheck`'s stdout

--quick makes only the TINY `train` run and `gradcheck`'s stdout, in a few
seconds.

Library artifacts are made in this process, one tree after the other
(tools/trees.py), with this checkout's perfbench/worker.py building the
bench operations. CLI runs are child processes with the tree on PYTHONPATH,
each tree's under the same relative paths, so that their config.txt files
compare. BLAS and OpenMP run one thread, here and in the children. The
report starts with what else can change bits: the Python and numpy
versions, the BLAS numpy names, the OpenBLAS kernel it runs (which
OPENBLAS_CORETYPE overrides), the CPU model and the thread variables.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from trees import load_textmass, load_worker  # noqa: E402

# tests/test_workbench.py's TINY run
TINY = {"dim": 8, "concept_dim": 6, "frame_count": 3, "raw_frames": 4, "pairs": 40, "batch_size": 8,
        "epochs": 1, "trials": 3, "seeds": "0,1", "lr_head": 0.005, "lr_adapter": 0.0005, "dropout_rate": 0.1}
# (command, config file, run directory or None for stdout); the config files
# are TINY plus the keys of CONFIG_FILES
CLI_RUNS = [
    ("gen-data", "tiny.txt", "gen-data"),
    ("train", "tiny.txt", "train"),
    ("train", "tiny-data.txt", "train-data"),
    ("eval", "tiny-checkpoint.txt", "eval"),
    ("analyze", "tiny-checkpoint.txt", "analyze"),
    *((grid, "tiny.txt", grid) for grid in ("ablate-radius", "ablate-loss", "sweep-trials", "sweep-alpha")),
    ("gradcheck", "tiny.txt", None),
]
QUICK_RUNS = [("train", "tiny.txt", "train"), ("gradcheck", "tiny.txt", None)]
CONFIG_FILES = {"tiny.txt": {}, "tiny-data.txt": {"data": "gen-data"},
                "tiny-checkpoint.txt": {"checkpoint": "train/checkpoint.tmck"}}
SEEDS = (0, 1)
# overrides of the bench TRAIN_CONFIG for the 2-epoch checkpoints
TWO_EPOCH = {
    "linear-dropout0": dict(radius_variant="linear", dropout_rate=0.0),
    "scalar-dropout0.1": dict(radius_variant="scalar", dropout_rate=0.1),
    "fixed-mean-ablation-dropout0.3": dict(radius_variant="fixed-mean", mode="ablation-ce-plus-s",
                                           dropout_rate=0.3),
}


@dataclass
class Artifact:
    """An artifact's sha256, and what sizes a difference: its values
    (parameters, scores or gradients) or its printed figures."""

    digest: str
    kind: str  # "params", "scores", "gradients", "figures" or "bytes"
    values: np.ndarray | None = None
    figures: str = ""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _of_values(kind: str, values, figures: str = "") -> Artifact:
    values = np.asarray(values, dtype=np.float64)
    return Artifact(_sha(values.tobytes()), kind, values, figures)


def blas_kernel() -> str:
    """The kernel that the scipy-openblas library numpy loads runs, as the
    library names it, or "unknown" when no such library is found."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def settings() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = " ".join(f"{var}={os.environ.get(var, '')}" for var in THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, kernel {blas_kernel()}, cpu {cpu}, {threads}")


class Collector:
    """The artifacts of one tree, made with its textmass modules."""

    def __init__(self, src: Path, workdir: Path, tag: str):
        self.src, self.workdir = src, workdir
        self.tm = {name.split(".")[-1]: module for name, module in load_textmass(src).items()}
        self.worker = load_worker(tag)
        self.artifacts = {}

    def checkpoint(self, name: str, path: Path) -> None:
        state, _ = self.tm["trainer"].load_checkpoint(path)
        model, params = self.tm["model"], state.params
        values = model.flatten_params(params, model.all_array_names(params))
        self.artifacts[name] = Artifact(_sha(path.read_bytes()), "params", values)

    def library(self) -> None:
        trainer, worker = self.tm["trainer"], self.worker
        for seed in SEEDS:
            bench = worker.Train(seed, self.workdir)
            bench.op(0)
            self.checkpoint(f"train.seed{seed}.tmck", bench.path)
            pool = worker.Retrieve(seed, self.workdir)
            for i, label in enumerate(("det", "m20")):
                self.artifacts[f"retrieve.seed{seed}.{label}"] = _of_values("scores", pool.op(i)[0])
        self.criterion_1()
        corpus = worker.corpus_for(0)
        path = self.workdir / "two-epoch.tmck"
        for name, overrides in TWO_EPOCH.items():
            config = trainer.TrainingConfig(seed=0, **{**worker.TRAIN_CONFIG, "epochs": 2, **overrides})
            trainer.save_checkpoint(path, trainer.train(corpus.train_text, corpus.train_videos, config).state, config)
            self.checkpoint(f"two-epoch.{name}.tmck", path)
        self.criterion_7(corpus)

    def criterion_1(self) -> None:
        """Each config's numeric gradients, recorded as gradient_check looks
        core.finite_diff_gradient up, and its result; then the figures."""
        core = self.tm["core"]
        real, numeric = core.finite_diff_gradient, []

        def recording(*args, **kwargs):
            numeric.append(real(*args, **kwargs))
            return numeric[-1]

        check = self.worker.Gradcheck(0, self.workdir)
        results = []
        core.finite_diff_gradient = recording
        try:
            for i in range(check.group):
                start = len(numeric)
                results.append(check.op(i))
                grads = np.concatenate([np.ravel(g) for g in numeric[start:]])
                self.artifacts[f"criterion1.config{i:02d}.numeric"] = _of_values("gradients", grads)
                self.artifacts[f"criterion1.config{i:02d}.result"] = Artifact(
                    _sha(check.digest(results[-1]).encode()), "bytes")
        finally:
            core.finite_diff_gradient = real
        worst = [max(r.worst_rel for r in results), max(r.worst_abs for r in results)]
        figures = (f"{sum(r.checked for r in results)} partials, worst rel {worst[0]:.3e}, "
                   f"worst abs {worst[1]:.3e}, passed {all(r.passed for r in results)}")
        self.artifacts["criterion1.figures"] = _of_values("figures", worst, figures)

    def criterion_7(self, corpus) -> None:
        """test_criterion_07's median R@1 figures, deterministic scoring."""
        trainer, evaluation = self.tm["trainer"], self.tm["evaluation"]
        hypers = {k: v for k, v in self.worker.TRAIN_CONFIG.items() if k not in ("mode", "alpha", "train_samples")}
        relevant = np.arange(corpus.test_text.shape[0])
        r1 = {}
        for mode, alpha, samples in (("baseline", 0.0, 1), ("t-mass", 3.0, 16)):
            for seed in range(5):
                config = trainer.TrainingConfig(mode=mode, alpha=alpha, train_samples=samples, seed=seed, **hypers)
                params = trainer.train(corpus.train_text, corpus.train_videos, config).state.params
                sims = evaluation.inference_similarity_matrix(
                    corpus.test_text, corpus.test_videos, params, self.tm["mass"].SamplingConfig(trials=20),
                    False, seed)
                r1[mode, seed] = evaluation.rank_metrics(sims, relevant)[1].r1
        med_t = statistics.median(r1["t-mass", s] for s in range(5))
        med_b = statistics.median(r1["baseline", s] for s in range(5))
        med_diff = statistics.median(r1["t-mass", s] - r1["baseline", s] for s in range(5))
        figures = (f"median R@1 t-mass {med_t:.2f} vs baseline {med_b:.2f}, "
                   f"median paired improvement {med_diff:+.2f}")
        self.artifacts["criterion7.figures"] = _of_values("figures", list(r1.values()), figures)

    def cli(self, runs) -> None:
        cli_dir = self.workdir / "cli"
        cli_dir.mkdir()
        for name, extra in CONFIG_FILES.items():
            keys = {**TINY, **extra}
            (cli_dir / name).write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(self.src.resolve())}
        for command, config, run_dir in runs:
            args = [sys.executable, "-m", "textmass", command, "--config", config]
            done = subprocess.run(args + (["--out", run_dir] if run_dir else []), cwd=cli_dir, env=env,
                                  capture_output=True, timeout=600)
            if done.returncode != 0:
                raise SystemExit(f"{self.src}: textmass {command} exited {done.returncode}: {done.stderr.decode()}")
            if run_dir is None:
                text = done.stdout.decode()
                self.artifacts[f"cli.{command}.stdout"] = Artifact(_sha(done.stdout), "figures", None, text.strip())
                continue
            for path in sorted((cli_dir / run_dir).rglob("*")):
                name = f"cli.{path.relative_to(cli_dir)}"
                if path.suffix == ".tmck":
                    self.checkpoint(name, path)
                elif path.is_file() and path.name != "run.log":
                    self.artifacts[name] = Artifact(_sha(path.read_bytes()), "bytes")


def collect(src: Path, workdir: Path, tag: str, quick: bool) -> dict:
    workdir.mkdir()
    collector = Collector(src, workdir, tag)
    if not quick:
        collector.library()
    collector.cli(QUICK_RUNS if quick else CLI_RUNS)
    return collector.artifacts


def _r1(sims: np.ndarray, axis: int) -> float:
    return 100.0 * float(np.mean(np.argmax(sims, axis=axis) == np.arange(sims.shape[0])))


def size(a: Artifact, b: Artifact) -> str:
    """How far apart two differing artifacts are."""
    if a.kind == "figures":
        return f"{a.figures!r} -> {b.figures!r}"
    if a.values is None or a.values.shape != b.values.shape:
        return "bytes differ"
    parts = [f"max |{a.kind} diff| {float(np.max(np.abs(a.values - b.values))):.3e}"]
    if a.kind == "scores":
        for direction, axis in (("t2v", 1), ("v2t", 0)):
            moved = int(np.count_nonzero(np.argmax(a.values, axis=axis) != np.argmax(b.values, axis=axis)))
            parts.append(f"{direction} top-1 moved {moved}, R@1 {_r1(a.values, axis):.2f} -> "
                         f"{_r1(b.values, axis):.2f}")
    return "; ".join(parts)


def report(first: dict, second: dict | None) -> tuple[str, bool]:
    """The manifest of first, or the comparison with second, and whether
    every artifact matched."""
    if second is None:
        lines = [f"{artifact.digest}  {name}" + (f": {artifact.figures!r}" if artifact.figures else "")
                 for name, artifact in first.items()]
        return "\n".join(lines + [f"{len(first)} artifacts"]), True
    lines, same = [], 0
    for name in list(first) + [n for n in second if n not in first]:
        a, b = first.get(name), second.get(name)
        if a is None or b is None:
            lines.append(f"{'only in ' + ('second' if a is None else 'first'):14s} {name}")
        elif a.digest == b.digest:
            same += 1
            lines.append(f"{'identical':14s} {name}" + (f": {a.figures!r}" if a.figures else ""))
        else:
            lines.append(f"{'DIFFERS':14s} {name}: {size(a, b)}")
    total = len(lines)
    return "\n".join(lines + [f"{same} of {total} artifacts identical"]), same == total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="src directory of a tree")
    parser.add_argument("other", type=Path, nargs="?", help="src directory of a tree to compare with")
    parser.add_argument("--quick", action="store_true", help="the TINY train run and gradcheck alone")
    args = parser.parse_args(argv)
    trees = [args.src] + ([args.other] if args.other else [])
    print(f"textmass bits{' (quick)' if args.quick else ''}: {settings()}")
    for label, src in zip(("first", "second"), trees):
        print(f"{label}: {src}")
    with tempfile.TemporaryDirectory() as tmp:
        found = [collect(src, Path(tmp) / label, label, args.quick) for label, src in zip(("first", "second"), trees)]
    text, same = report(found[0], found[1] if len(found) > 1 else None)
    print(text)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
