"""Rank metrics against a sort-based oracle, inference against per-item op
recomputation, and report schemas."""

import numpy as np
import pytest

from textmass import evaluation
from textmass.core import ContractViolation, substream
from textmass.encoders import encode_frames, encode_text, fuse
from textmass.mass import SamplingConfig, frame_similarities, radius, select_best_sample
from textmass.model import flatten_params, init_model, trainable_names, unflatten_params
from textmass.evaluation import (
    AlignmentRow,
    RadiusRow,
    RetrievalMetrics,
    alignment_report,
    inference_similarity_matrix,
    radius_dynamics_report,
    rank_metrics,
    video_to_text_metrics,
    write_alignment_report,
    write_metrics_csv,
    write_radius_report,
)

EVAL_STREAM = evaluation._STREAM_EVAL


def sort_oracle_rank(scores: np.ndarray, rel: int) -> int:
    """Brute force: stable sort by descending score, then index; the rank is
    the relevant item's position."""
    order = sorted(range(scores.size), key=lambda c: (-scores[c], c))
    return order.index(rel) + 1


def make_params(d=8, c=6, frames=3, variant="linear", seed=0, spread=0.3):
    params = init_model(d, c, frames, radius_variant=variant, seed=seed)
    names = trainable_names(params, "t-mass")
    flat = flatten_params(params, names)
    rng = substream(seed, 9001)
    unflatten_params(params, names, flat + spread * rng.standard_normal(flat.size))
    return params


def make_pool(q=4, c_dim=6, t_raw=5, candidates=4, seed=0):
    rng = substream(seed, 9002)
    texts = rng.standard_normal(q * c_dim).reshape(q, c_dim)
    videos = rng.standard_normal(candidates * t_raw * c_dim).reshape(candidates, t_raw, c_dim)
    return texts, videos


class TestRankMetrics:
    def test_perfect_identity(self):
        ranks, metrics = rank_metrics(np.eye(5), np.arange(5))
        assert np.array_equal(ranks, np.ones(5, dtype=np.int64))
        assert metrics.r1 == 100.0 and metrics.mdr == 1.0 and metrics.mnr == 1.0

    def test_anti_perfect(self):
        sims = np.ones((4, 4))
        rel = np.arange(4)
        sims[np.arange(4), rel] = -1.0
        ranks, metrics = rank_metrics(sims, rel)
        assert np.all(ranks == 4)
        assert metrics.r1 == 0.0 and metrics.mnr == 4.0

    def test_tie_rule_counts_earlier_equal_scores(self):
        sims = np.array([[0.5, 0.5, 0.5, 0.2]])
        # rank of column 2: two earlier columns tie with it, none exceed it
        ranks, _ = rank_metrics(sims, np.array([2]))
        assert ranks[0] == 3
        ranks, _ = rank_metrics(sims, np.array([0]))
        assert ranks[0] == 1

    def test_matches_sort_oracle_on_random_and_tied(self):
        rng = substream(1, 9003)
        for trial in range(200):
            raw = rng.uniform(16 * 16).reshape(16, 16)
            # quantize harshly to force many exact ties
            sims = np.round(raw * 5.0) / 5.0
            rel = (rng.uniform(16) * 16).astype(np.int64)
            ranks, metrics = rank_metrics(sims, rel)
            expected = [sort_oracle_rank(sims[q], int(rel[q])) for q in range(16)]
            assert np.array_equal(ranks, np.array(expected)), trial
            assert metrics.r1 <= metrics.r5 <= metrics.r10

    def test_invariant_to_rowwise_monotone_transform(self):
        rng = substream(2, 9003)
        sims = rng.standard_normal(64).reshape(8, 8)
        rel = np.arange(8)
        base, _ = rank_metrics(sims, rel)
        warped, _ = rank_metrics(np.exp(sims), rel)
        affine, _ = rank_metrics(3.0 * sims + 1.0, rel)
        assert np.array_equal(base, warped)
        assert np.array_equal(base, affine)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        sims = np.eye(4)
        sims[2, 1] = bad
        with pytest.raises(ContractViolation, match="1 of 16"):
            rank_metrics(sims, np.arange(4))
        with pytest.raises(ContractViolation, match="non-finite"):
            video_to_text_metrics(sims, np.arange(4))

    def test_relevant_index_validation(self):
        with pytest.raises(ContractViolation):
            rank_metrics(np.eye(3), np.array([0, 1, 3]))
        with pytest.raises(ContractViolation):
            rank_metrics(np.eye(3), np.array([0, 1]))

    def test_even_pool_median_averages_central_values(self):
        # ranks 1, 2, 3, 4 by planting q competitors above each diagonal
        sims = np.zeros((4, 4))
        np.fill_diagonal(sims, 0.5)
        for q in range(4):
            sims[q, :q] = np.linspace(0.9, 0.6, 4)[:q]
        ranks, metrics = rank_metrics(sims, np.arange(4))
        assert sorted(ranks.tolist()) == [1, 2, 3, 4]
        assert metrics.mdr == 2.5 and metrics.mnr == 2.5


class TestVideoToText:
    def test_symmetric_perfect_matrix(self):
        sims = np.eye(5)
        _, t2v = rank_metrics(sims, np.arange(5))
        v2t = video_to_text_metrics(sims, np.arange(5))
        assert (t2v.r1, t2v.mdr, t2v.mnr) == (v2t.r1, v2t.mdr, v2t.mnr)
        assert v2t.direction == "video-to-text"

    def test_equals_transpose_ranking(self):
        rng = substream(3, 9003)
        sims = rng.standard_normal(30).reshape(5, 6)
        rel = np.array([0, 2, 1, 4, 3, 0])
        v2t = video_to_text_metrics(sims, rel)
        _, oracle = rank_metrics(sims.T, rel)
        assert v2t.r1 == oracle.r1 and v2t.mnr == oracle.mnr

    def test_single_candidate_pool(self):
        sims = np.array([[0.3], [0.8]])
        ranks, metrics = rank_metrics(sims, np.zeros(2, dtype=int))
        assert np.all(ranks == 1) and metrics.r1 == 100.0


def _zero_uniforms(seed, parts, count, width, out):
    """All-zero uniforms, which Box-Muller maps to exactly-zero normals."""
    out[:] = 0.0
    return out


class _ZeroNormals:
    """Noise source that collapses t + R*eps to t in select_best_sample."""

    def standard_normal(self, n):
        return np.zeros(n)


def per_pair_scores(texts, videos, params, cfg, use_sampling, seed):
    """Reference for the batched matrix: one select_best_sample call per
    pair, on the same embeddings, fused videos and radii inference uses."""
    text_emb = evaluation._embed_texts(texts, params)
    frame_emb = evaluation._embed_frames(videos, params)
    keys = frame_emb @ params.fusion.key_map.T
    values = frame_emb @ params.fusion.value_map.T
    sims = np.empty((texts.shape[0], videos.shape[0]))
    for q, t in enumerate(text_emb):
        fused = evaluation._fused_for_query(t, keys, values, params)
        radius_grid = evaluation._radius_for_query(t, frame_emb, params)
        for c in range(videos.shape[0]):
            if use_sampling:
                rng = substream(seed, EVAL_STREAM, q, c)
                _, sims[q, c] = select_best_sample(t, radius_grid[c], fused[c], cfg, rng)
            else:
                _, sims[q, c] = select_best_sample(
                    t, np.zeros(t.size), fused[c], SamplingConfig(trials=1), _ZeroNormals()
                )
    return sims


class TestInferenceMatrix:
    def test_zero_noise_single_trial_collapses_to_deterministic(self, monkeypatch):
        params = make_params()
        texts, videos = make_pool(seed=4)
        det = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=1), False, 7)
        monkeypatch.setattr(evaluation, "stacked_uniforms", _zero_uniforms)
        stoch = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=1), True, 7)
        assert np.array_equal(det, stoch)

    def test_matches_per_item_op_oracle(self):
        params = make_params(seed=5)
        texts, videos = make_pool(q=4, candidates=4, seed=5)
        cfg = SamplingConfig(trials=8)
        got = inference_similarity_matrix(texts, videos, params, cfg, True, seed=11)
        for q in range(4):
            t = encode_text(texts[q], params.stack)
            for c in range(4):
                frames = encode_frames(videos[c], params.frame_count, params.stack)
                v = fuse(frames, t, params.fusion)
                r = radius(frame_similarities(t, frames), params.radius)
                rng = substream(11, EVAL_STREAM, q, c)
                _, best = select_best_sample(t, r, v, cfg, rng)
                assert abs(got[q, c] - best) <= 1e-12

    def test_nested_trials_never_decrease_entries(self):
        params = make_params(seed=6)
        texts, videos = make_pool(seed=6)
        previous = None
        for m in (2, 4, 8):
            sims = inference_similarity_matrix(
                texts, videos, params, SamplingConfig(trials=m), True, seed=13
            )
            if previous is not None:
                assert np.all(sims >= previous)
            previous = sims

    @pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1])
    def test_nested_trial_matrices_equal_separate_passes(self, seed):
        # d = 7 makes M*d odd at M = 5: that pool ends one uniform early
        params = make_params(d=7, seed=15)
        texts, videos = make_pool(q=3, candidates=6, seed=15)
        nested = evaluation.nested_trial_matrices(texts, videos, params, (5, 10, 20), seed)
        assert sorted(nested) == [5, 10, 20]
        for m, sims in nested.items():
            cfg = SamplingConfig(trials=m)
            assert np.array_equal(
                sims, inference_similarity_matrix(texts, videos, params, cfg, True, seed)
            )
        cfg = SamplingConfig(trials=20)
        assert np.array_equal(nested[20], per_pair_scores(texts, videos, params, cfg, True, seed))

    def test_nested_trial_matrices_reject_zero_trials(self):
        params = make_params()
        texts, videos = make_pool()
        with pytest.raises(ContractViolation):
            evaluation.nested_trial_matrices(texts, videos, params, (5, 0), 0)

    @pytest.mark.parametrize("variant", ["fixed-mean", "scalar", "linear"])
    @pytest.mark.parametrize("trials", [1, 5, 20])
    @pytest.mark.parametrize("use_sampling", [False, True])
    def test_batched_equals_per_pair_select_best_sample(self, variant, trials, use_sampling):
        # d = 7 makes M*d odd at M = 1 and 5: a pair's last uniform goes unused
        params = make_params(d=7, variant=variant, seed=14)
        texts, videos = make_pool(q=3, candidates=5, seed=14)
        cfg = SamplingConfig(trials=trials)
        got = inference_similarity_matrix(texts, videos, params, cfg, use_sampling, seed=41)
        want = per_pair_scores(texts, videos, params, cfg, use_sampling, seed=41)
        assert np.array_equal(got, want)

    def test_overflowing_radius_is_rejected(self):
        # exp(S @ W) overflows where the frame similarities sum above ~0.7;
        # here that turns 3 of the 64 pair scores (queries 1, 4 and 7) into NaN
        params = make_params(seed=16)
        params.radius.weights[:] = 1000.0
        texts, videos = make_pool(q=8, candidates=8, seed=16)
        cfg = SamplingConfig(trials=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolation, match="query 1: 1 of 8 pair scores"):
                inference_similarity_matrix(texts, videos, params, cfg, True, 3)
            with pytest.raises(ContractViolation, match="non-finite"):
                radius_dynamics_report(texts[1], videos, params, 1, cfg, 3, query_id=1)
        # the deterministic path does not use the radius and stays finite
        det = inference_similarity_matrix(texts, videos, params, SamplingConfig(), False, 3)
        assert np.all(np.isfinite(det))

    def test_deterministic_across_runs(self):
        params = make_params(seed=7)
        texts, videos = make_pool(seed=7)
        cfg = SamplingConfig(trials=4)
        a = inference_similarity_matrix(texts, videos, params, cfg, True, seed=17)
        b = inference_similarity_matrix(texts, videos, params, cfg, True, seed=17)
        assert np.array_equal(a, b)

    def test_shape_validation(self):
        params = make_params()
        with pytest.raises(ContractViolation):
            inference_similarity_matrix(
                np.zeros((2, 6)), np.zeros((2, 5, 7)), params, SamplingConfig(), False, 0
            )


class TestRadiusReport:
    def test_zero_weights_give_unit_radius_everywhere(self):
        params = init_model(8, 6, 3, radius_variant="linear", seed=8)
        texts, videos = make_pool(seed=8)
        rows = radius_dynamics_report(texts[0], videos, params, 1, SamplingConfig(trials=2), 19)
        assert all(r.l1_radius == 8.0 for r in rows)
        assert [r.relevant for r in rows] == [False, True, False, False]

    def test_scalar_zero_theta_identical_radii(self):
        params = make_params(variant="scalar", seed=9)
        params.radius.theta = 0.0
        texts, videos = make_pool(seed=9)
        rows = radius_dynamics_report(texts[0], videos, params, 0, SamplingConfig(trials=2), 19)
        values = {r.l1_radius for r in rows}
        assert len(values) == 1

    def test_matches_recomputation_oracle(self):
        params = make_params(seed=10)
        texts, videos = make_pool(seed=10)
        cfg = SamplingConfig(trials=4)
        rows = radius_dynamics_report(texts[2], videos, params, 3, cfg, 23, query_id=2)
        t = encode_text(texts[2], params.stack)
        sims = inference_similarity_matrix(texts, videos, params, cfg, True, 23)
        for row in rows:
            frames = encode_frames(videos[row.candidate_id], params.frame_count, params.stack)
            r = radius(frame_similarities(t, frames), params.radius)
            assert abs(row.l1_radius - np.abs(r).sum()) <= 1e-9
            assert abs(row.best_similarity - sims[2, row.candidate_id]) <= 1e-9

    def test_relevant_index_validated(self):
        params = make_params()
        texts, videos = make_pool()
        with pytest.raises(ContractViolation):
            radius_dynamics_report(texts[0], videos, params, 9, SamplingConfig(trials=2), 0)


class TestAlignmentReport:
    def test_collapsed_mass_makes_columns_identical(self, monkeypatch):
        # R*eps = 0 collapses every sample to t; det and stoch columns agree
        params = make_params(seed=11)
        texts, videos = make_pool(q=4, candidates=4, seed=11)
        monkeypatch.setattr(evaluation, "stacked_uniforms", _zero_uniforms)
        rows = alignment_report(texts, videos, params, SamplingConfig(trials=3), 29)
        for row in rows:
            assert abs(row.max_irrelevant_sim_det - row.max_irrelevant_sim_stoch) <= 1e-9
            assert abs(row.ce_det - row.ce_stoch) <= 1e-9

    def test_ranges_and_oracle(self):
        params = make_params(seed=12)
        texts, videos = make_pool(q=4, candidates=4, seed=12)
        cfg = SamplingConfig(trials=3)
        rows = alignment_report(texts, videos, params, cfg, 31)
        det = inference_similarity_matrix(texts, videos, params, cfg, False, 31)
        stoch = inference_similarity_matrix(texts, videos, params, cfg, True, 31)
        lam = params.logit_scale()
        for row in rows:
            q = row.query_id
            others = [c for c in range(4) if c != q]
            assert -1.0 <= row.max_irrelevant_sim_det <= 1.0
            assert row.ce_det >= 0.0 and row.ce_stoch >= 0.0
            assert abs(row.max_irrelevant_sim_det - det[q, others].max()) <= 1e-9
            assert abs(row.max_irrelevant_sim_stoch - stoch[q, others].max()) <= 1e-9
            expected_ce = float(
                np.log(np.exp(lam * det[q]).sum()) - lam * det[q, q]
            )
            assert abs(row.ce_det - expected_ce) <= 1e-9

    def test_requires_aligned_pool(self):
        params = make_params()
        with pytest.raises(ContractViolation):
            alignment_report(
                np.zeros((3, 6)), np.zeros((4, 5, 6)), params, SamplingConfig(trials=2), 0
            )


class TestCsvWriters:
    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(
            path,
            [
                RetrievalMetrics("text-to-video", 50.0, 75.0, 100.0, 1.5, 2.25),
                RetrievalMetrics("video-to-text", 25.0, 50.0, 75.0, 2.0, 3.5),
            ],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "direction,r1,r5,r10,mdr,mnr"
        assert lines[1] == "text-to-video,50.000000,75.000000,100.000000,1.500000,2.250000"
        assert len(lines) == 3

    def test_radius_csv(self, tmp_path):
        path = tmp_path / "radius.csv"
        write_radius_report(path, [RadiusRow(0, 1, True, 8.0, 0.51234567)])
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,candidate_id,relevant,l1_radius,best_similarity"
        assert lines[1] == "0,1,1,8.000000,0.512346"

    def test_alignment_csv(self, tmp_path):
        path = tmp_path / "alignment.csv"
        write_alignment_report(path, [AlignmentRow(3, 0.25, 0.5, 1.0, 0.75)])
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,max_irrelevant_sim_det,max_irrelevant_sim_stoch,ce_det,ce_stoch"
        assert lines[1] == "3,0.250000,0.500000,1.000000,0.750000"

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        params = make_params(seed=13)
        texts, videos = make_pool(seed=13)
        cfg = SamplingConfig(trials=3)
        paths = []
        for tag in ("a", "b"):
            rows = alignment_report(texts, videos, params, cfg, 37)
            path = tmp_path / f"{tag}.csv"
            write_alignment_report(path, rows)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
