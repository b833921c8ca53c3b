"""Experiment command line: corpus generation, training, evaluation,
ablation grids, inference sweeps, analysis reports, and a gradient
self-check.

Every invocation writes into a fresh run directory (an existing directory is
refused, so runs are never overwritten) containing the fully resolved
configuration as config.txt plus the command's artifacts. Wall-clock
timestamps live only in run.log; every other file is a deterministic function
of the configuration, so identical configurations produce byte-identical run
directories apart from that log. Grid cells are independent of one another
and run sequentially; the tables are assembled in a fixed row order.

Exit codes: 0 success, 1 contract violation (including usage errors and
non-finite scores) or training divergence, 2 I/O or file-format failure. A
failure after the run directory exists is also recorded in its run.log.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .core import ContractViolation, OracleFailure, atomic_write, substream
from .dataset import CorpusArrays, SyntheticSpec, generate, read_corpus, split_arrays, write_corpus
from .evaluation import (
    AlignmentRow,
    RadiusRow,
    RetrievalMetrics,
    alignment_rows,
    inference_similarity_matrix,
    nested_trial_matrices,
    pool_radius_report,
    rank_metrics,
    video_to_text_metrics,
    write_csv_rows,
)
from .mass import SamplingConfig
from .objectives import PairBatch, draw_noise, gradient_check
from .trainer import (
    TrainingConfig,
    TrainingDivergence,
    config_to_text,
    init_model_from_config,
    load_checkpoint,
    parse_config_text,
    save_checkpoint,
    train,
)

TRIALS_GRID = (5, 10, 20)

# CSV rows of the grid tables and train_log.csv: leading columns, then the
# columns of a RetrievalMetrics row
_SCORES = tuple(f.name for f in dataclasses.fields(RetrievalMetrics) if f.name != "direction")
TableRow = dataclasses.make_dataclass(
    "TableRow", ["config", "seed", *(f.name for f in dataclasses.fields(RetrievalMetrics))]
)
EpochRow = dataclasses.make_dataclass("EpochRow", ["epoch", "mean_loss", *_SCORES])

# substream purposes for the gradcheck fixture
_STREAM_CHECK_DATA = 501
_STREAM_CHECK_NOISE = 502


@dataclass
class RunConfig(TrainingConfig):
    """Every knob of a run as one flat `key = value` file: the TrainingConfig
    keys (what a checkpoint stores), synthetic corpus keys, and
    orchestration keys (seed list for grids, sampling toggle, input paths)."""

    # synthetic corpus (SyntheticSpec's keys and defaults; data_seed keeps
    # the corpus fixed while training seeds vary)
    pairs: int = SyntheticSpec.pairs
    raw_frames: int = SyntheticSpec.raw_frames
    coverage: float = SyntheticSpec.coverage
    noise_sigma: float = SyntheticSpec.noise_sigma
    distractors: int = SyntheticSpec.distractors
    data_seed: int = SyntheticSpec.seed
    # orchestration
    seeds: tuple = (0, 1, 2)
    sampling: bool = True
    data: str = ""
    checkpoint: str = ""

    def __post_init__(self):
        super().__post_init__()
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ContractViolation("seeds must list at least one seed")
        if any(not 0 <= s < 2**64 for s in self.seeds):
            raise ContractViolation("seeds must lie in [0, 2**64)")
        # constructing the spec runs its validation
        self.synthetic_spec()

    def training_config(self) -> TrainingConfig:
        """The TrainingConfig keys alone, as a checkpoint stores them."""
        kwargs = {f.name: getattr(self, f.name) for f in dataclasses.fields(TrainingConfig)}
        return TrainingConfig(**kwargs)

    def synthetic_spec(self) -> SyntheticSpec:
        """The corpus keys as a SyntheticSpec; its seed is data_seed."""
        kwargs = {f.name: getattr(self, f.name) for f in dataclasses.fields(SyntheticSpec)
                  if f.name != "seed"}
        return SyntheticSpec(seed=self.data_seed, **kwargs)


# ---------------------------------------------------------------------------
# run directory plumbing


class RunLog:
    """Timestamped notes; the only artifact allowed to vary between
    identically configured runs."""

    def __init__(self, path):
        self._path = Path(path)

    def note(self, message: str) -> None:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(f"{stamp}  {message}\n")


def _create_run_dir(out: str | None) -> Path:
    if not out:
        raise ContractViolation("--out is required")
    path = Path(out)
    if path.exists():
        raise ContractViolation(f"run directory already exists: {path}")
    path.mkdir(parents=True, exist_ok=False)
    return path


def _corpus(run: RunConfig, log: RunLog) -> CorpusArrays:
    if run.data:
        records = read_corpus(run.data)
        log.note(f"loaded corpus from {run.data}: {len(records)} pairs")
    else:
        records = generate(run.synthetic_spec())
        log.note(f"generated synthetic corpus: {len(records)} pairs")
    return split_arrays(records)


def _test_metrics(
    corpus: CorpusArrays, params, use_sampling: bool, trials: int, seed: int
) -> tuple[RetrievalMetrics, RetrievalMetrics]:
    sims = inference_similarity_matrix(
        corpus.test_text, corpus.test_videos, params, SamplingConfig(trials=trials),
        use_sampling, seed,
    )
    return _pool_metrics(sims)


def _pool_metrics(sims: np.ndarray) -> tuple[RetrievalMetrics, RetrievalMetrics]:
    """Both directions' metrics of an aligned test pool's (Q, Q) scores."""
    relevant = np.arange(sims.shape[0])
    _, t2v = rank_metrics(sims, relevant)
    return t2v, video_to_text_metrics(sims, relevant)


def _grid_table(cells: dict[str, list[RetrievalMetrics]], seeds) -> list[tuple[str, str, RetrievalMetrics]]:
    """A grid runner's rows from each label's metrics, one per seed: every
    label's seed rows in order, then one median row per label."""
    rows = [(label, str(seed), m) for label, column in cells.items() for seed, m in zip(seeds, column)]
    for label, column in cells.items():
        medians = {name: float(np.median([getattr(m, name) for m in column])) for name in _SCORES}
        rows.append((label, "median", RetrievalMetrics(direction="text-to-video", **medians)))
    return rows


def _sampling_for(run: RunConfig, mode: str) -> bool:
    """Whether a model trained in mode is scored with sampling: a baseline
    model never trained its radius, so it is scored deterministically."""
    return run.sampling and mode != "baseline"


# ---------------------------------------------------------------------------
# grid runners


def ablation_matrix(
    run: RunConfig,
    grid: tuple,
    corpus: CorpusArrays,
    log: RunLog,
) -> list[tuple[str, str, RetrievalMetrics]]:
    """Train and evaluate one configuration per grid cell per seed; returns
    seed rows in grid order followed by per-configuration median rows."""
    base = run.training_config()
    cells = {}
    for label, overrides in grid:
        merged = dict(overrides)
        if "mode" not in merged:
            # radius cells compare variants under the stochastic objective
            merged["mode"] = run.mode if run.mode != "baseline" else "t-mass"
        cells[label] = []
        for seed in run.seeds:
            tc = dataclasses.replace(base, seed=seed, **merged)
            params = train(corpus.train_text, corpus.train_videos, tc).state.params
            # each cell is scored as `train` scores its run
            use_sampling = _sampling_for(run, tc.mode)
            t2v, _ = _test_metrics(corpus, params, use_sampling, tc.trials, tc.seed)
            sampling = f"sampling={'on' if use_sampling else 'off'}"
            if tc.mode == "baseline":
                log.note(
                    f"{label} seed {seed}: mode=baseline, radius parameters "
                    f"stay at initialization, {sampling}"
                )
            else:
                log.note(f"{label} seed {seed}: mode={tc.mode} r1={t2v.r1:.2f} {sampling}")
            cells[label].append(t2v)
    return _grid_table(cells, run.seeds)


RADIUS_GRID = (
    ("w/o-radius", {"mode": "baseline"}),
    ("fixed-mean", {"radius_variant": "fixed-mean"}),
    ("scalar", {"radius_variant": "scalar"}),
    ("linear", {"radius_variant": "linear"}),
)

LOSS_GRID = (
    ("l-ce-plus-l-s", {"mode": "ablation-ce-plus-s"}),
    ("l-s-only", {"mode": "t-mass", "alpha": 0.0}),
    ("l-s-plus-l-sup", {"mode": "t-mass"}),
)

# full training per support-loss weight
ALPHA_GRID = tuple((f"alpha-{a}", {"mode": "t-mass", "alpha": a}) for a in (0.5, 0.8, 1.0, 1.2, 1.5))


def trials_sweep(
    run: RunConfig, corpus: CorpusArrays, log: RunLog
) -> list[tuple[str, str, RetrievalMetrics]]:
    """One training run per seed, evaluated without sampling and at each
    trial count; nested sample pools make scores non-decreasing in M, and
    one pass at the largest M scores every trial count."""
    base = run.training_config()
    if base.mode == "baseline":
        raise ContractViolation("config key 'mode' must be stochastic for sweep-trials")
    labels = ["trials-off"] + [f"trials-{m}" for m in TRIALS_GRID]
    by_label = {label: [] for label in labels}
    for seed in run.seeds:
        tc = dataclasses.replace(base, seed=seed)
        result = train(corpus.train_text, corpus.train_videos, tc)
        params = result.state.params
        t2v, _ = _test_metrics(corpus, params, False, 1, seed)
        by_label["trials-off"].append(t2v)
        nested = nested_trial_matrices(
            corpus.test_text, corpus.test_videos, params, TRIALS_GRID, seed
        )
        for m in TRIALS_GRID:
            t2v, _ = _pool_metrics(nested[m])
            by_label[f"trials-{m}"].append(t2v)
        log.note(f"seed {seed}: evaluated trial grid off,{','.join(map(str, TRIALS_GRID))}")
    return _grid_table(by_label, run.seeds)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_gen_data(run: RunConfig, out: Path, log: RunLog) -> int:
    records = generate(run.synthetic_spec())
    write_corpus(out, records)
    arrays = split_arrays(records)
    log.note(
        f"wrote {len(records)} pairs ({arrays.train_text.shape[0]} train / "
        f"{arrays.test_text.shape[0]} test) to {out}"
    )
    return 0


def _cmd_train(run: RunConfig, out: Path, log: RunLog) -> int:
    corpus = _corpus(run, log)
    tc = run.training_config()
    dropped = corpus.train_text.shape[0] % tc.batch_size
    if dropped:
        log.note(f"dropping {dropped} trailing pairs per epoch (batch size {tc.batch_size})")

    validation = []

    def on_epoch(state, epoch):
        t2v, _ = _test_metrics(corpus, state.params, False, 1, tc.seed)
        validation.append(t2v)
        log.note(f"epoch {epoch}: validation r1 {t2v.r1:.2f} mdr {t2v.mdr:.1f}")

    result = train(corpus.train_text, corpus.train_videos, tc, epoch_callback=on_epoch)
    # the test pool is scored before the first artifact, so a refused pool
    # (even after zero epochs, which encode nothing) leaves none
    use_sampling = _sampling_for(run, tc.mode)
    t2v, v2t = _test_metrics(corpus, result.state.params, use_sampling, run.trials, tc.seed)
    save_checkpoint(out / "checkpoint.tmck", result.state, tc)

    epochs = [
        EpochRow(epoch, mean_loss, **{name: getattr(m, name) for name in _SCORES})
        for epoch, (mean_loss, m) in enumerate(zip(result.epoch_means, validation))
    ]
    write_csv_rows(out / "train_log.csv", EpochRow, epochs)
    write_csv_rows(out / "metrics.csv", RetrievalMetrics, [t2v, v2t])
    log.note(f"final test r1 {t2v.r1:.2f} (sampling={'on' if use_sampling else 'off'})")
    return 0


def _checkpoint_corpus(run: RunConfig, log: RunLog, command: str) -> tuple:
    """(state, config, corpus) of a command that scores a checkpoint: the
    checkpoint key is required."""
    if not run.checkpoint:
        raise ContractViolation(f"config key 'checkpoint' is required for {command}")
    state, tc = load_checkpoint(run.checkpoint)
    return state, tc, _corpus(run, log)


def _cmd_eval(run: RunConfig, out: Path, log: RunLog) -> int:
    state, tc, corpus = _checkpoint_corpus(run, log, "eval")
    use_sampling = _sampling_for(run, tc.mode)
    t2v, v2t = _test_metrics(corpus, state.params, use_sampling, run.trials, run.seed)
    write_csv_rows(out / "metrics.csv", RetrievalMetrics, [t2v, v2t])
    log.note(
        f"evaluated {run.checkpoint} at step {state.optimizer.step}: test r1 {t2v.r1:.2f} "
        f"(sampling={'on' if use_sampling else 'off'}, trials={run.trials})"
    )
    return 0


def _table_command(grid_rows):
    """A grid command: grid_rows(run, corpus=..., log=...) gives the
    (config, seed, metrics) rows of its metrics.csv table."""

    def command(run: RunConfig, out: Path, log: RunLog) -> int:
        rows = grid_rows(run, corpus=_corpus(run, log), log=log)
        table = [TableRow(label, seed, **dataclasses.asdict(m)) for label, seed, m in rows]
        write_csv_rows(out / "metrics.csv", TableRow, table)
        return 0

    return command


def _cmd_analyze(run: RunConfig, out: Path, log: RunLog) -> int:
    state, tc, corpus = _checkpoint_corpus(run, log, "analyze")
    params = state.params
    cfg = SamplingConfig(trials=run.trials)

    # one deterministic and one best-of-M pass over the test pool feed all
    # three reports; every row is formed before the first report is written,
    # so a refused pool (fewer than 2 pairs) leaves none
    pool = (corpus.test_text, corpus.test_videos, params, cfg)
    det = inference_similarity_matrix(*pool, False, run.seed)
    stoch = inference_similarity_matrix(*pool, True, run.seed)
    scored = stoch if _sampling_for(run, tc.mode) else det
    alignment = alignment_rows(det, stoch, params.logit_scale())
    radius_rows = pool_radius_report(corpus.test_text, corpus.test_videos, params, stoch)
    write_csv_rows(out / "metrics.csv", RetrievalMetrics, list(_pool_metrics(scored)))
    write_csv_rows(out / "radius_report.csv", RadiusRow, radius_rows)
    write_csv_rows(out / "alignment_report.csv", AlignmentRow, alignment)

    # qualitative observations, logged rather than gated
    queries = det.shape[0]
    l1 = np.array([r.l1_radius for r in radius_rows]).reshape(queries, queries)
    others = np.where(np.eye(queries, dtype=bool), np.inf, l1).min(axis=1)
    smallest = int(np.count_nonzero(np.diagonal(l1) < others))
    log.note(
        f"relevant candidate carries the smallest radius mass for {smallest}/{queries} "
        f"queries ({100.0 * smallest / queries:.1f}%)"
    )
    d_sim = float(np.mean([r.max_irrelevant_sim_stoch - r.max_irrelevant_sim_det for r in alignment]))
    d_ce = float(np.mean([r.ce_stoch - r.ce_det for r in alignment]))
    log.note(
        f"best-of-{run.trials} selection shifts max irrelevant similarity by {d_sim:+.4f} "
        f"and per-pair ce by {d_ce:+.4f} on average"
    )
    return 0


def _cmd_gradcheck(run: RunConfig, out: Path | None, log: RunLog | None) -> int:
    rng = substream(run.seed, _STREAM_CHECK_DATA)
    n = 4
    texts = rng.standard_normal(n * run.concept_dim).reshape(n, run.concept_dim)
    videos = rng.standard_normal(n * run.raw_frames * run.concept_dim).reshape(
        n, run.raw_frames, run.concept_dim
    )
    batch = PairBatch(text=texts, videos=videos)
    params = init_model_from_config(run)
    eps = None
    if run.mode != "baseline":
        eps = draw_noise(
            substream(run.seed, _STREAM_CHECK_NOISE), run.train_samples, n, run.dim
        )
    # dropout off so the loss is a deterministic function of the parameters
    result = gradient_check(params, batch, run.mode, run.alpha, eps, None)
    summary = (
        f"gradcheck: {result.checked} partials, max relative error {result.worst_rel:.3e}, "
        f"max absolute error {result.worst_abs:.3e}"
    )
    print(summary)
    if log is not None:
        log.note(summary)
    if not result.passed:
        for failure in result.failures:
            print(f"gradcheck failure: {failure}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    # argparse normally exits the process; surface a contract violation so
    # the caller controls exit codes
    def error(self, message):
        raise ContractViolation(message)


_IMPLS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate-radius": _table_command(partial(ablation_matrix, grid=RADIUS_GRID)),
    "ablate-loss": _table_command(partial(ablation_matrix, grid=LOSS_GRID)),
    "sweep-trials": _table_command(trials_sweep),
    "sweep-alpha": _table_command(partial(ablation_matrix, grid=ALPHA_GRID)),
    "analyze": _cmd_analyze,
    "gradcheck": _cmd_gradcheck,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="textmass", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    for name in _IMPLS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="override seed and the grid seed list")
        p.add_argument("--out", help="run directory to create (must not exist)")
        p.add_argument("--mode", help="training objective mode")
        p.add_argument("--trials", type=int, help="inference sample count")
        p.add_argument("--alpha", type=float, help="support loss weight")
        p.add_argument("--radius", help="radius variant")
    return parser


def _resolved_run(ns: argparse.Namespace) -> RunConfig:
    run = RunConfig()
    if ns.config:
        run = parse_config_text(Path(ns.config).read_text(encoding="utf-8"), run)
    overrides = {}
    if ns.seed is not None:
        overrides["seed"] = ns.seed
        overrides["seeds"] = (ns.seed,)
    for flag, key in (("mode", "mode"), ("trials", "trials"), ("alpha", "alpha"), ("radius", "radius_variant")):
        if getattr(ns, flag) is not None:
            overrides[key] = getattr(ns, flag)
    if overrides:
        run = dataclasses.replace(run, **overrides)
    return run


def _fail(log: RunLog | None, code: int, exc: Exception, usage: str = "") -> int:
    sys.stderr.write(usage)
    sys.stderr.write(f"error: {exc}\n")
    if log is not None:
        try:
            log.note(f"failed with exit code {code}: {exc}")
        except OSError:
            pass
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    log = None
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise ContractViolation("a subcommand is required")
        run = _resolved_run(ns)
        if ns.command == "gradcheck" and ns.out is None:
            return _cmd_gradcheck(run, None, None)
        out = _create_run_dir(ns.out)
        atomic_write(out / "config.txt", config_to_text(run).encode("utf-8"))
        log = RunLog(out / "run.log")
        log.note(f"{ns.command} starting")
        code = _IMPLS[ns.command](run, out, log)
        log.note(f"{ns.command} finished with exit code {code}")
        return code
    except (ContractViolation, OracleFailure) as exc:
        return _fail(log, 1, exc, parser.format_usage())
    except TrainingDivergence as exc:
        return _fail(log, 1, exc)
    except OSError as exc:  # FormatError is an IOError
        return _fail(log, 2, exc)


if __name__ == "__main__":
    raise SystemExit(main())
