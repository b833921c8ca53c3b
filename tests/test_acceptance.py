"""Acceptance suite: one test per shipping criterion.

Each test prints a single line with the measured quantities once its
assertions pass, so a verbose run reads as a checklist. Tolerances are
asserted at their stated values, never loosened.
"""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from textmass import evaluation
from textmass.core import substream
from textmass.dataset import SyntheticSpec, generate, split_arrays
from textmass.evaluation import (
    RetrievalMetrics,
    alignment_rows,
    inference_similarity_matrix,
    pool_radius_report,
    rank_metrics,
    write_csv_rows,
)
from textmass.mass import RADIUS_VARIANTS, SamplingConfig, select_best_sample, text_mass
from textmass.model import MODES, restore_param
from textmass.objectives import (
    DegenerateGeometryError,
    LAMBDA_MAX,
    PairBatch,
    draw_noise,
    forward_batch,
    gradient_check,
)
from textmass.trainer import (
    TrainingConfig,
    init_model_from_config,
    load_checkpoint,
    save_checkpoint,
    train,
)
from textmass.workbench import main

from oracle import (
    encode_frames,
    encode_text,
    frame_similarities,
    fuse,
    radius,
    symmetric_ce,
)

EVAL_STREAM = evaluation._STREAM_EVAL

# shared retrieval benchmark: 512 train / 128 test pairs, 16 concepts
BENCH = dict(pairs=640, concept_dim=16, raw_frames=16, coverage=0.4,
             noise_sigma=0.1, distractors=2, seed=0)

# tuned comparison settings; baseline ignores alpha and train_samples
HYPERS = dict(concept_dim=16, frame_count=8, radius_variant="linear",
              batch_size=32, epochs=5, lr_head=3e-2, lr_adapter=5e-3,
              weight_decay=0.2, warmup_fraction=0.1, dropout_rate=0.0,
              trials=20)


@pytest.fixture(scope="module")
def corpus():
    return split_arrays(generate(SyntheticSpec(**BENCH)))


def bench_config(mode: str, seed: int, dim: int = 32) -> TrainingConfig:
    alpha = 3.0 if mode == "t-mass" else 0.0
    samples = 16 if mode == "t-mass" else 1
    return TrainingConfig(dim=dim, mode=mode, alpha=alpha, train_samples=samples,
                          seed=seed, **HYPERS)


def fit(corpus, config: TrainingConfig):
    return train(corpus.train_text, corpus.train_videos, config).state.params


def score_pool(corpus, params, use_sampling: bool, seed: int, trials: int = 20):
    sims = inference_similarity_matrix(
        corpus.test_text, corpus.test_videos, params,
        SamplingConfig(trials=trials), use_sampling, seed,
    )
    return rank_metrics(sims, np.arange(corpus.test_text.shape[0]))[1]


def write_run_config(path, **overrides) -> None:
    keys = dict(dim=32, concept_dim=16, frame_count=8, radius_variant="linear",
                radius_trainable="true", theta_init=0.0, adapters_enabled="true",
                mode="t-mass", alpha=3.0, batch_size=32, epochs=5,
                lr_head=0.03, lr_adapter=0.005, weight_decay=0.2,
                warmup_fraction=0.1, dropout_rate=0.0, train_samples=16,
                trials=20, seed=0, pairs=640, raw_frames=16, coverage=0.4,
                noise_sigma=0.1, distractors=2, data_seed=0, seeds="0,1",
                sampling="true")
    keys.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")


def read_table(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return rows


def test_criterion_01_gradient_suite():
    """Analytic gradients match central finite differences on >= 20 configs."""
    configs = []
    for variant in RADIUS_VARIANTS:
        for alpha in (0.0, 1.2):
            for mode in MODES:
                configs.append(dict(radius_variant=variant, alpha=alpha, mode=mode))
    configs.append(dict(radius_variant="linear", alpha=1.2, mode="t-mass",
                        radius_trainable=False))
    configs.append(dict(radius_variant="scalar", alpha=0.0, mode="t-mass",
                        radius_trainable=False, theta_init=0.7))
    configs.append(dict(radius_variant="fixed-mean", alpha=1.2, mode="t-mass",
                        adapters_enabled=False))
    configs.append(dict(radius_variant="linear", alpha=1.2, mode="t-mass",
                        train_samples=4))
    assert len(configs) >= 20

    start = time.monotonic()
    worst_rel = 0.0
    worst_abs = 0.0
    checked = 0
    for i, overrides in enumerate(configs):
        tc = TrainingConfig(dim=16, concept_dim=8, frame_count=4,
                            dropout_rate=0.0, seed=i, **overrides)
        data_rng = substream(i, 501)
        n = 4
        texts = data_rng.standard_normal(n * tc.concept_dim).reshape(n, tc.concept_dim)
        videos = data_rng.standard_normal(n * 6 * tc.concept_dim).reshape(n, 6, tc.concept_dim)
        batch = PairBatch(text=texts, videos=videos)
        params = init_model_from_config(tc)
        eps = None
        if tc.mode != "baseline":
            eps = draw_noise(substream(i, 502), tc.train_samples, n, tc.dim)
        result = gradient_check(params, batch, tc.mode, tc.alpha, eps, None)
        assert result.passed, f"config {i} ({overrides}): {result.failures[:3]}"
        worst_rel = max(worst_rel, result.worst_rel)
        worst_abs = max(worst_abs, result.worst_abs)
        checked += result.checked
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"criterion 1: PASS. {len(configs)} configs, {checked} partials, "
          f"worst rel {worst_rel:.3e}, worst abs {worst_abs:.3e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_loss():
    """Perfect 2x2 matrix at lambda=1 hits ln(1+e^-1); N=1 is exactly zero."""
    loss, _, _ = symmetric_ce(np.eye(2), 0.0)
    expected = math.log(1.0 + math.exp(-1.0))
    assert abs(loss - expected) <= 1e-6

    single, _, _ = symmetric_ce(np.ones((1, 1)), 0.0)
    assert single == 0.0

    losses = [symmetric_ce(np.eye(2), math.log(lam))[0] for lam in (1.0, 5.0, 20.0)]
    assert losses[0] > losses[1] > losses[2]
    print(f"criterion 2: PASS. l_ce(eye(2), lambda=1) = {loss:.9f} vs "
          f"{expected:.9f}, N=1 loss exactly 0, monotone at lambda 1/5/20")


def reparameterization_check(sampler, n: int = 100_000, d: int = 16):
    """Criterion 3's moment check of a text-mass sampler(t, r, eps) on its
    three configs, each with one whole draw of n * d normals: every
    coordinate's sample mean must lie within 5 R / sqrt(n) of t and its std
    within 2 % of R. Returns (passed, worst mean error as a fraction of its
    bound, worst std error as a fraction of R)."""
    passed, worst_mean, worst_std = True, 0.0, 0.0
    for k in range(3):
        cfg_rng = substream(11_000 + k, 1)
        t = cfg_rng.standard_normal(d)
        r = 0.2 + 2.0 * cfg_rng.uniform(d)
        samples = sampler(t, r, substream(11_000 + k, 2).standard_normal(n * d).reshape(n, d))
        mean_err = np.abs(samples.mean(axis=0) - t)
        mean_bound = 5.0 * r / math.sqrt(n)
        std_err = np.abs(samples.std(axis=0) - r)
        passed = passed and bool(np.all(mean_err <= mean_bound) and np.all(std_err <= 0.02 * r))
        worst_mean = max(worst_mean, float(np.max(mean_err / mean_bound)))
        worst_std = max(worst_std, float(np.max(std_err / r)))
    return passed, worst_mean, worst_std


def test_criterion_03_reparameterization_statistics():
    """Sampled mass has mean t and std R per component at 1e5 draws."""
    passed, worst_mean, worst_std = reparameterization_check(text_mass)
    assert passed
    print(f"criterion 3: PASS. 3 configs x 100000 draws, worst mean error "
          f"{worst_mean:.2f} of bound, worst std error {100 * worst_std:.2f}% of R")


def test_criterion_04_support_geometry():
    """Support vector sits on the mass surface along the text-to-video ray:
    training's support rows, from forward_batch's tape, over 100 pairs."""
    n, d, frames = 4, 16, 4
    worst = 0.0
    for k in range(25):
        variant = RADIUS_VARIANTS[k % 3]
        params = init_model_from_config(TrainingConfig(
            dim=d, concept_dim=8, frame_count=frames, radius_variant=variant, theta_init=0.7, seed=k))
        rng = substream(12_000 + k, 1)
        if variant == "linear":
            restore_param(params, "radius_weights", 0.5 * rng.standard_normal(frames * d).reshape(frames, d))
        batch = PairBatch(text=rng.standard_normal(n * 8).reshape(n, 8),
                          videos=rng.standard_normal(n * 6 * 8).reshape(n, 6, 8))
        eps = draw_noise(substream(12_000 + k, 2), 1, n, d)
        _, tape = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        t, r = tape.text.emb, tape.radii.radius
        v = tape.fusion.fused[np.arange(n), np.arange(n)]
        lhs = (tape.ce.rows[-1] - t) / r
        rhs = (v - t) / np.linalg.norm(v - t, axis=1, keepdims=True)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-9
    # every pair degenerate: identity projections and frames equal to the text
    params = init_model_from_config(TrainingConfig(dim=d, concept_dim=d, frame_count=2))
    restore_param(params, "proj_text", np.eye(d))
    restore_param(params, "proj_frame", np.eye(d))
    feat = substream(12_100, 1).standard_normal(d)
    batch = PairBatch(text=feat[None, :], videos=np.stack([feat, feat])[None])
    with pytest.raises(DegenerateGeometryError, match="^pair 0 has no support direction"):
        forward_batch(batch, params, "t-mass", 1.2, eps=draw_noise(substream(12_100, 2), 1, 1, d))
    print(f"criterion 4: PASS. 100 pairs, worst direction error {worst:.3e}, "
          f"an all-degenerate batch raises DegenerateGeometryError")


def test_criterion_05_metric_oracle():
    """rank_metrics agrees with a stable-sort oracle on tied matrices."""
    def oracle_rank(scores, rel):
        order = sorted(range(scores.size), key=lambda c: (-scores[c], c))
        return order.index(rel) + 1

    rel = np.arange(16)
    for k in range(200):
        rng = substream(13_000 + k, 1)
        sims = np.round(rng.standard_normal(256), 1).reshape(16, 16)
        ranks, metrics = rank_metrics(sims, rel)
        expected = [oracle_rank(sims[q], q) for q in range(16)]
        assert list(ranks) == expected
        assert metrics.r1 <= metrics.r5 <= metrics.r10
    print("criterion 5: PASS. 200 tied 16x16 matrices match the sort oracle "
          "exactly; R@K monotone in K on all")


def test_criterion_06_best_of_m_monotonicity(corpus, tmp_path):
    """Nested pools never lower scores; the trial sweep shows off <= sampled."""
    params = fit(corpus, bench_config("t-mass", seed=1, dim=128))
    mats = {}
    grids = {}
    for m in (5, 10, 20):
        sims = inference_similarity_matrix(
            corpus.test_text, corpus.test_videos, params,
            SamplingConfig(trials=m), True, seed=1,
        )
        mats[m] = sims
        rec = rank_metrics(sims, np.arange(corpus.test_text.shape[0]))[1]
        grids[m] = (rec.r1, rec.r5, rec.r10)
    assert np.all(mats[10] >= mats[5])
    assert np.all(mats[20] >= mats[10])
    for lo, hi in ((5, 10), (10, 20)):
        assert all(a <= b for a, b in zip(grids[lo], grids[hi]))

    cfg = tmp_path / "sweep.cfg"
    write_run_config(cfg, dim=128)
    out = tmp_path / "sweep-run"
    assert main(["sweep-trials", "--config", str(cfg), "--out", str(out)]) == 0
    medians = {row["config"]: (float(row["r1"]), float(row["r5"]), float(row["r10"]))
               for row in read_table(out / "metrics.csv") if row["seed"] == "median"}
    off = medians["trials-off"]
    for m in (5, 10, 20):
        sampled = medians[f"trials-{m}"]
        assert all(a <= b for a, b in zip(off, sampled))
    print(f"criterion 6: PASS. similarity matrices and R@K non-decreasing across "
          f"M = 5/10/20 on the fixed checkpoint; sweep medians R@1 off "
          f"{off[0]:.2f} <= sampled "
          + "/".join(f"{medians[f'trials-{m}'][0]:.2f}" for m in (5, 10, 20)))


def test_criterion_07_synthetic_improvement(corpus):
    """Stochastic mass training beats the deterministic baseline at R@1."""
    start = time.monotonic()
    seeds = range(5)
    base = [score_pool(corpus, fit(corpus, bench_config("baseline", s)), False, s).r1
            for s in seeds]
    mass_mode = [score_pool(corpus, fit(corpus, bench_config("t-mass", s)), False, s).r1
                 for s in seeds]
    elapsed = time.monotonic() - start
    med_t = float(np.median(mass_mode))
    med_b = float(np.median(base))
    med_diff = float(np.median([t - b for t, b in zip(mass_mode, base)]))
    assert med_t >= med_b
    assert med_diff > 0.0
    assert elapsed <= 300.0, f"comparison took {elapsed:.1f}s"
    print(f"criterion 7: PASS. median R@1 t-mass {med_t:.2f} vs baseline "
          f"{med_b:.2f}, median paired improvement {med_diff:+.2f}, {elapsed:.1f}s")


def test_criterion_08_ablation_consistency(corpus, tmp_path):
    """Fixed-mean equals scalar frozen at theta=1; radius table is complete."""
    shared = dict(HYPERS, epochs=2)
    shared.pop("radius_variant")
    fm = TrainingConfig(dim=16, mode="t-mass", alpha=1.2, train_samples=4,
                        radius_variant="fixed-mean", seed=3, **shared)
    sc = dataclasses.replace(fm, radius_variant="scalar", theta_init=1.0,
                             radius_trainable=False)
    params_fm = fit(corpus, fm)
    params_sc = fit(corpus, sc)
    rows = []
    for params in (params_fm, params_sc):
        sims = inference_similarity_matrix(
            corpus.test_text, corpus.test_videos, params,
            SamplingConfig(trials=5), True, seed=3,
        )
        rows.append(rank_metrics(sims, np.arange(corpus.test_text.shape[0]))[1])
    a, b = tmp_path / "fm.csv", tmp_path / "sc.csv"
    write_csv_rows(a, RetrievalMetrics, [rows[0]])
    write_csv_rows(b, RetrievalMetrics, [rows[1]])
    assert a.read_bytes() == b.read_bytes()

    cfg = tmp_path / "ablate.cfg"
    write_run_config(cfg, dim=8, concept_dim=6, frame_count=3, raw_frames=4,
                     pairs=80, batch_size=16, epochs=1, trials=3, seeds="0",
                     train_samples=2, lr_head=0.005, lr_adapter=0.0005)
    out = tmp_path / "ablate-run"
    assert main(["ablate-radius", "--config", str(cfg), "--out", str(out)]) == 0
    labels = {row["config"] for row in read_table(out / "metrics.csv")}
    assert labels == {"w/o-radius", "fixed-mean", "scalar", "linear"}
    print("criterion 8: PASS. fixed-mean and scalar(theta frozen at 1) metrics "
          "byte-identical; ablate-radius table holds all four configurations")


def test_criterion_09_determinism(corpus, tmp_path):
    """Identical configs give identical bytes; resume is bit-exact."""
    cfg = tmp_path / "train.cfg"
    write_run_config(cfg, dim=16, concept_dim=8, frame_count=4, raw_frames=6,
                     pairs=160, batch_size=16, epochs=2, trials=5,
                     train_samples=4, seeds="0")
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"train-{name}"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        runs.append(out)
    for artifact in ("metrics.csv", "checkpoint.tmck", "train_log.csv"):
        assert (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes()

    eval_cfg = tmp_path / "eval.cfg"
    write_run_config(eval_cfg, dim=16, concept_dim=8, frame_count=4, raw_frames=6,
                     pairs=160, batch_size=16, epochs=2, trials=5,
                     train_samples=4, seeds="0",
                     checkpoint=runs[0] / "checkpoint.tmck")
    evals = []
    for name in ("a", "b"):
        out = tmp_path / f"eval-{name}"
        assert main(["eval", "--config", str(eval_cfg), "--out", str(out)]) == 0
        evals.append((out / "metrics.csv").read_bytes())
    assert evals[0] == evals[1]

    tc = bench_config("t-mass", seed=4)
    tc = dataclasses.replace(tc, dim=16, epochs=2)
    full = train(corpus.train_text, corpus.train_videos, tc)
    half = train(corpus.train_text, corpus.train_videos, tc, stop_after_epochs=1)
    resumed = train(corpus.train_text, corpus.train_videos, tc, resume=half.state)
    a, b = tmp_path / "full.tmck", tmp_path / "resumed.tmck"
    save_checkpoint(a, full.state, tc)
    save_checkpoint(b, resumed.state, tc)
    assert a.read_bytes() == b.read_bytes()
    print("criterion 9: PASS. repeated train and eval runs byte-identical; "
          "stop-and-resume checkpoint bit-exact against straight-through")


def test_criterion_10_analysis_reports(tmp_path):
    """Report values match primitive-level recomputation; findings are logged."""
    synth = dict(dim=16, concept_dim=8, frame_count=4, raw_frames=6, pairs=240,
                 batch_size=16, epochs=2, trials=5, train_samples=4, seeds="0")
    cfg = tmp_path / "train.cfg"
    write_run_config(cfg, **synth)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0

    analyze_cfg = tmp_path / "analyze.cfg"
    write_run_config(analyze_cfg, checkpoint=run / "checkpoint.tmck", **synth)
    report = tmp_path / "report"
    assert main(["analyze", "--config", str(analyze_cfg), "--out", str(report)]) == 0

    state, tc = load_checkpoint(run / "checkpoint.tmck")
    params = state.params
    spec = SyntheticSpec(pairs=240, concept_dim=8, raw_frames=6, coverage=0.4,
                         noise_sigma=0.1, distractors=2, seed=0)
    corpus = split_arrays(generate(spec))
    queries = corpus.test_text.shape[0]
    cfg5 = SamplingConfig(trials=5)

    det = inference_similarity_matrix(corpus.test_text, corpus.test_videos,
                                      params, cfg5, False, 0)
    stoch = inference_similarity_matrix(corpus.test_text, corpus.test_videos,
                                        params, cfg5, True, 0)

    radius_lines = (report / "radius_report.csv").read_text(encoding="utf-8").splitlines()
    assert radius_lines[0] == "query_id,candidate_id,relevant,l1_radius,best_similarity"
    assert len(radius_lines) == 1 + queries * queries
    radius_rows = pool_radius_report(corpus.test_text, corpus.test_videos, params, stoch)
    worst = 0.0
    for q in range(3):
        rows = radius_rows[q * queries : (q + 1) * queries]
        t = encode_text(corpus.test_text[q], params)
        for c, row in enumerate(rows):
            frames = encode_frames(corpus.test_videos[c], params.frame_count, params)
            v = fuse(frames, t, params)
            r = radius(frame_similarities(t, frames), params)
            _, best = select_best_sample(t, r, v, cfg5, substream(0, EVAL_STREAM, q, c))
            worst = max(worst, abs(row.l1_radius - float(np.sum(np.abs(r)))),
                        abs(row.best_similarity - best))
            rendered = (f"{q},{c},{int(q == c)},{row.l1_radius:.6f},"
                        f"{row.best_similarity:.6f}")
            assert radius_lines[1 + q * queries + c] == rendered
    assert worst <= 1e-9

    align_lines = (report / "alignment_report.csv").read_text(encoding="utf-8").splitlines()
    assert align_lines[0] == ("query_id,max_irrelevant_sim_det,"
                              "max_irrelevant_sim_stoch,ce_det,ce_stoch")
    assert len(align_lines) == 1 + queries
    align_rows = alignment_rows(det, stoch, params.logit_scale())
    lam = min(math.exp(params.log_lambda), LAMBDA_MAX)
    for q, row in enumerate(align_rows):
        worst = max(
            worst,
            abs(row.max_irrelevant_sim_det - float(np.max(np.delete(det[q], q)))),
            abs(row.max_irrelevant_sim_stoch - float(np.max(np.delete(stoch[q], q)))),
            abs(row.ce_det - (math.log(np.sum(np.exp(lam * det[q]))) - lam * det[q, q])),
            abs(row.ce_stoch - (math.log(np.sum(np.exp(lam * stoch[q]))) - lam * stoch[q, q])),
        )
        rendered = (f"{q},{row.max_irrelevant_sim_det:.6f},"
                    f"{row.max_irrelevant_sim_stoch:.6f},"
                    f"{row.ce_det:.6f},{row.ce_stoch:.6f}")
        assert align_lines[1 + q] == rendered
    assert worst <= 1e-9

    log = (report / "run.log").read_text(encoding="utf-8")
    assert "relevant candidate carries the smallest radius mass for" in log
    assert "selection shifts max irrelevant similarity by" in log
    print(f"criterion 10: PASS. report schemas exact, values match independent "
          f"recomputation within 1e-9 (worst gap {worst:.1e}); qualitative "
          f"observations present in run.log")
