"""Rank metrics against a sort-based oracle, inference against per-item op
recomputation, and report schemas."""

import dataclasses
import os

import numpy as np
import pytest

from textmass import core, evaluation
from textmass.core import ContractViolation, substream
from textmass.encoders import attend
from textmass.mass import SamplingConfig, radius_batch, select_best_sample
from textmass.model import flatten_params, init_model, restore_param, trainable_names
from textmass.evaluation import (
    AlignmentRow,
    RadiusRow,
    RetrievalMetrics,
    alignment_rows,
    inference_similarity_matrix,
    pool_radius_report,
    rank_metrics,
    video_to_text_metrics,
    write_csv_rows,
)

from oracle import encode_frames, encode_text, frame_similarities, fuse, radius, unflatten_params
from test_core import swap_state_words

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

    @pytest.mark.parametrize("sims", [np.ones(4), np.ones((1, 2, 2)), np.ones((0, 3))], ids=["1-D", "3-D", "empty"])
    def test_a_matrix_that_is_not_2_d_and_non_empty_is_refused(self, sims):
        with pytest.raises(ContractViolation, match="^similarity matrix must be non-empty and 2-D$"):
            rank_metrics(sims, np.zeros(1, dtype=np.int64))

    def test_relevant_index_validation(self):
        with pytest.raises(ContractViolation):
            rank_metrics(np.eye(3), np.array([0, 1, 3]))
        with pytest.raises(ContractViolation):
            rank_metrics(np.eye(3), np.array([0, 1]))

    # fractions used to be truncated ([0.5, 1.7, 2.2] ranked as [0, 1, 2]) and bools taken as 0/1
    @pytest.mark.parametrize("relevant", [[0.5, 1.7, 2.2], [0.0, 1.0, 2.0], np.array([False, True, False])],
                             ids=["fractions", "whole-floats", "bools"])
    def test_relevant_indices_that_are_not_integers_are_refused(self, relevant):
        with pytest.raises(ContractViolation, match="relevant indices must be integers"):
            rank_metrics(np.eye(3), relevant)
        assert rank_metrics(np.eye(3), [0, 1, 2])[1].r1 == 100.0

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


def _zero_normals(seed, parts, q_count, c_count, n):
    """All-zero normals in place of grid_normals: every pool is t."""
    for _ in range(q_count):
        yield np.zeros((c_count, n))


class _ZeroNormals:
    """Noise source that collapses t + R*eps to t in select_best_sample."""

    def standard_normal(self, n):
        return np.zeros(n)


def per_pair_scores(texts, videos, params, cfg, use_sampling, seed):
    """Reference for the batched matrix: one select_best_sample call per
    pair, on the same embeddings, fused videos and radii inference uses."""
    pool = evaluation._embed_pool(texts, videos, params)
    sims = np.empty((texts.shape[0], videos.shape[0]))
    for q, (t, fused, radius_grid) in enumerate(evaluation._query_stages(pool, params, True, True)):
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
        monkeypatch.setattr(evaluation, "grid_normals", _zero_normals)
        stoch = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=1), True, 7)
        assert np.array_equal(det, stoch)

    def test_matches_per_item_op_oracle(self):
        params = make_params(seed=5)
        texts, videos = make_pool(q=4, candidates=4, seed=5)
        cfg = SamplingConfig(trials=8)
        got = inference_similarity_matrix(texts, videos, params, cfg, True, seed=11)
        for q in range(4):
            t = encode_text(texts[q], params)
            for c in range(4):
                frames = encode_frames(videos[c], params.frame_count, params)
                v = fuse(frames, t, params)
                r = radius(frame_similarities(t, frames), params)
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

    def test_nested_trial_matrices_reject_no_trial_counts(self):
        params = make_params()
        texts, videos = make_pool()
        with pytest.raises(ContractViolation, match="at least one trial count"):
            evaluation.nested_trial_matrices(texts, videos, params, (), 0)

    @pytest.mark.parametrize("use_sampling", [False, True])
    def test_an_empty_candidate_pool_gives_empty_rows(self, use_sampling):
        texts, videos = make_pool(q=3, candidates=1)
        videos = videos[:0]
        sims = inference_similarity_matrix(texts, videos, make_params(), SamplingConfig(2), use_sampling, 0)
        assert sims.shape == (3, 0)

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_query_blocks_do_not_change_scores(self, monkeypatch, block_rows):
        # 7 queries of 3 candidates against one block of all 7: one query
        # per block, then blocks of 2 queries with a partial last block
        params = make_params(seed=16)
        texts, videos = make_pool(q=7, candidates=3, seed=16)
        cfg = SamplingConfig(trials=4)
        whole = inference_similarity_matrix(texts, videos, params, cfg, True, 5)
        monkeypatch.setattr(core, "STATE_BLOCK_ROWS", block_rows)
        assert np.array_equal(inference_similarity_matrix(texts, videos, params, cfg, True, 5), whole)

    @pytest.mark.parametrize("variant", ["fixed-mean", "scalar", "linear"])
    @pytest.mark.parametrize("block_queries", [1, 3, 7])
    def test_fusion_blocks_do_not_change_scores(self, monkeypatch, variant, block_queries):
        # an aligned pool of 7 queries in blocks of 1, 3 (a ragged last
        # block of 1) and 7 queries against blocks of one query
        params = make_params(variant=variant, seed=17)
        texts, videos = make_pool(q=7, candidates=7, seed=17)
        cfg = SamplingConfig(trials=4)

        def passes():
            mats = [inference_similarity_matrix(texts, videos, params, cfg, s, 5) for s in (False, True)]
            rows = pool_radius_report(texts, videos, params, mats[1])
            return mats + [np.array([r.l1_radius for r in rows])]

        monkeypatch.setattr(evaluation, "QUERY_BLOCK_ROWS", 1)
        single = passes()
        monkeypatch.setattr(evaluation, "QUERY_BLOCK_ROWS", 7 * block_queries)
        for got, want in zip(passes(), single):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block_rows, calls", [(1, 7), (3, 7), (9, 3), (12, 2), (21, 1), (512, 1)])
    @pytest.mark.parametrize("use_sampling", [False, True])
    def test_one_fusion_call_per_query_block(self, monkeypatch, block_rows, calls, use_sampling):
        # 7 queries of 3 candidates: a block holds max(1, rows // 3) queries
        params = make_params(seed=18)
        texts, videos = make_pool(q=7, candidates=3, seed=18)
        shapes = []

        def counted(blocks, *args):
            shapes.append(blocks.shape)
            return attend(blocks, *args)

        monkeypatch.setattr(evaluation, "attend", counted)
        monkeypatch.setattr(evaluation, "QUERY_BLOCK_ROWS", block_rows)
        inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), use_sampling, 0)
        per_block = max(1, block_rows // 3)
        assert len(shapes) == calls == -(-7 // per_block)
        assert [s[0] for s in shapes] == [min(per_block, 7 - k * per_block) for k in range(calls)]
        assert all(s[1:] == (1, params.dim) for s in shapes)

    def test_swapped_state_words_refused(self, monkeypatch, request):
        params = make_params()
        texts, videos = make_pool()
        det = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), False, 0)
        swap_state_words(monkeypatch, request)
        # the deterministic pass draws nothing, so it never reaches the check
        again = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), False, 0)
        assert np.array_equal(again, det)
        with pytest.raises(ContractViolation, match=f"numpy {np.__version__}"):
            inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), True, 0)

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
        params.radius_weights[:] = 1000.0
        texts, videos = make_pool(q=8, candidates=8, seed=16)
        cfg = SamplingConfig(trials=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolation, match="query 1: 1 of 8 pair scores"):
                inference_similarity_matrix(texts, videos, params, cfg, True, 3)
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


class TestInferenceInputs:
    """Inference refuses non-finite features and seeds that are not integers
    in [0, 2**64) before it scores anything."""

    @pytest.mark.parametrize("sampling", [False, True])
    @pytest.mark.parametrize("where", ["text features", "video features"])
    def test_non_finite_features_are_refused(self, where, sampling):
        params = make_params()
        texts, videos = make_pool()
        (texts if where == "text features" else videos).flat[7] = np.inf
        with pytest.raises(ContractViolation, match=f"^{where}: 1 of"):
            inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), sampling, 0)

    def test_a_nan_frame_is_refused_by_the_radius_report(self):
        # it used to give nan l1_radius rows without an error
        params = make_params()
        texts, videos = make_pool()
        sampled = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), True, 0)
        videos[2, 3, 1] = np.nan
        with pytest.raises(ContractViolation, match="^video features: 1 of 120 values are non-finite$"):
            pool_radius_report(texts, videos, params, sampled)

    @pytest.mark.parametrize("texts_shape, videos_shape", [((4,), (4, 5, 6)), ((4, 6), (4, 30))],
                             ids=["1-D texts", "2-D videos"])
    def test_other_ranks_are_refused(self, texts_shape, videos_shape):
        message = r"^inference wants texts \(Q, c\) and videos \(C, T, c\)$"
        with pytest.raises(ContractViolation, match=message):
            inference_similarity_matrix(np.ones(texts_shape), np.ones(videos_shape), make_params(),
                                        SamplingConfig(trials=2), False, 0)

    # numpy's matmul used to refuse these with a ValueError; the encode stage
    # now refuses them on every path
    @pytest.mark.parametrize("tower, text_width, frame_width", [("text", 5, 5), ("text", 7, 6), ("frame", 6, 4)])
    def test_features_of_another_width_are_refused_on_every_path(self, tower, text_width, frame_width):
        params = make_params()
        texts, _ = make_pool(c_dim=text_width)
        _, videos = make_pool(c_dim=frame_width)
        width = text_width if tower == "text" else frame_width
        message = f"^{tower} features have width {width} but the model's concept_dim is 6$"
        for sampling in (False, True):
            with pytest.raises(ContractViolation, match=message):
                inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), sampling, 0)
        with pytest.raises(ContractViolation, match=message):
            evaluation.nested_trial_matrices(texts, videos, params, (1, 2), 0)
        with pytest.raises(ContractViolation, match=message):
            pool_radius_report(texts, videos, params, np.zeros((4, 4)))

    # 1.5 used to score as 1, -1 as 2**64 - 1 and 2**64 as 0
    @pytest.mark.parametrize("seed", [1.5, 1.0, True, -1, 2**64], ids=repr)
    def test_seeds_outside_the_integers_below_2_64_are_refused(self, seed):
        params = make_params()
        texts, videos = make_pool()
        with pytest.raises(ContractViolation, match="^seed "):
            inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), True, seed)
        with pytest.raises(ContractViolation, match="^seed "):
            evaluation.nested_trial_matrices(texts, videos, params, (1, 2), seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)], ids=repr)
    def test_every_integer_seed_below_2_64_is_accepted(self, seed):
        params = make_params()
        texts, videos = make_pool()
        got = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), True, seed)
        assert np.array_equal(got, inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2),
                                                               True, int(seed)))


def radius_oracle(texts, videos, params):
    """L1 radius mass of every (query, candidate) pair from the per-vector
    encode and radius functions."""
    l1 = np.empty((texts.shape[0], videos.shape[0]))
    for q in range(texts.shape[0]):
        t = encode_text(texts[q], params)
        for c in range(videos.shape[0]):
            frames = encode_frames(videos[c], params.frame_count, params)
            l1[q, c] = np.abs(radius(frame_similarities(t, frames), params)).sum()
    return l1


class TestRadiusReport:
    def test_zero_weights_give_unit_radius_everywhere(self):
        params = init_model(8, 6, 3, radius_variant="linear", seed=8)
        texts, videos = make_pool(seed=8)
        sampled = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), True, 19)
        rows = pool_radius_report(texts, videos, params, sampled)
        assert all(r.l1_radius == 8.0 for r in rows)
        assert [r.relevant for r in rows[4:8]] == [False, True, False, False]

    def test_scalar_zero_theta_identical_radii(self):
        params = make_params(variant="scalar", seed=9)
        restore_param(params, "radius_theta", 0.0)
        texts, videos = make_pool(seed=9)
        sampled = inference_similarity_matrix(texts, videos, params, SamplingConfig(trials=2), True, 19)
        rows = pool_radius_report(texts, videos, params, sampled)
        values = {r.l1_radius for r in rows}
        assert len(values) == 1

    def test_matches_recomputation_oracle(self):
        params = make_params(seed=10)
        texts, videos = make_pool(seed=10)
        cfg = SamplingConfig(trials=4)
        sims = inference_similarity_matrix(texts, videos, params, cfg, True, 23)
        rows = pool_radius_report(texts, videos, params, sims)
        l1 = radius_oracle(texts, videos, params)
        assert len(rows) == 16
        for row in rows:
            q, c = row.query_id, row.candidate_id
            assert row.relevant == (q == c)
            assert abs(row.l1_radius - l1[q, c]) <= 1e-9
            assert abs(row.best_similarity - sims[q, c]) <= 1e-9

    @pytest.mark.parametrize("variant", ["fixed-mean", "scalar", "linear"])
    @pytest.mark.parametrize("use_sampling", [False, True])
    @pytest.mark.parametrize("pool_seed", [21, 22, 23])
    def test_report_equals_matrix_row(self, variant, use_sampling, pool_seed):
        # every row against the per-pair oracles: the radius from the
        # per-vector functions and the score from select_best_sample
        params = make_params(variant=variant, seed=pool_seed)
        texts, videos = make_pool(q=5, candidates=5, seed=pool_seed)
        cfg = SamplingConfig(trials=6 if use_sampling else 1)
        sims = inference_similarity_matrix(texts, videos, params, cfg, use_sampling, 43)
        rows = pool_radius_report(texts, videos, params, sims)
        want = per_pair_scores(texts, videos, params, cfg, use_sampling, 43)
        l1 = radius_oracle(texts, videos, params)
        assert [(r.query_id, r.candidate_id) for r in rows] == [(q, c) for q in range(5) for c in range(5)]
        assert np.array_equal(np.array([r.best_similarity for r in rows]).reshape(5, 5), want)
        got_l1 = np.array([r.l1_radius for r in rows]).reshape(5, 5)
        assert np.abs(got_l1 - l1).max() <= 1e-9
        # bit for bit the radii per_pair_scores drew with, and those of a
        # one-query pass through the radius stage
        pool = evaluation._embed_pool(texts, videos, params)
        drawn = np.stack([r for _, _, r in evaluation._query_stages(pool, params, False, True)])
        alone = np.stack([
            radius_batch(np.broadcast_to(block, (5, params.dim)), pool.frames, params).radius
            for block in pool.blocks
        ])
        assert np.array_equal(drawn, alone)
        assert np.array_equal(got_l1, np.abs(drawn).sum(axis=-1))

    @pytest.mark.parametrize("variant", ["fixed-mean", "scalar", "linear"])
    def test_report_makes_no_fuse_call(self, monkeypatch, variant):
        # the radii stay those the sampled matrix was drawn with, bit for bit
        params = make_params(variant=variant, seed=24)
        texts, videos = make_pool(q=5, candidates=5, seed=24)
        cfg = SamplingConfig(trials=3)
        sims = inference_similarity_matrix(texts, videos, params, cfg, True, 43)
        pool = evaluation._embed_pool(texts, videos, params)
        drawn = np.stack([r for _, _, r in evaluation._query_stages(pool, params, True, True)])
        calls = []
        for name in ("attend", "fuse_output"):
            real = getattr(evaluation, name)
            monkeypatch.setattr(evaluation, name, lambda *args, real=real: calls.append(args) or real(*args))
        rows = pool_radius_report(texts, videos, params, sims)
        assert calls == []
        assert np.array_equal(np.array([r.l1_radius for r in rows]).reshape(5, 5), np.abs(drawn).sum(axis=-1))
        inference_similarity_matrix(texts, videos, params, cfg, True, 43)
        assert calls  # the counter sees inference's fuse calls

    def test_sampled_of_another_shape_is_refused(self):
        params = make_params()
        texts, videos = make_pool()
        with pytest.raises(ContractViolation, match="^sampled matrix does not match the pool$"):
            pool_radius_report(texts, videos, params, np.zeros((4, 3)))

    def test_sampled_may_be_nested_lists(self):
        # a list used to die with AttributeError: 'list' object has no attribute 'shape'
        params = make_params()
        texts, videos = make_pool()
        sampled = inference_similarity_matrix(texts, videos, params, SamplingConfig(2), True, 0)
        rows = pool_radius_report(texts, videos, params, sampled.tolist())
        assert rows == pool_radius_report(texts, videos, params, sampled)

    def test_pool_report_wants_an_aligned_pool(self):
        params = make_params()
        texts, videos = make_pool(q=5, candidates=3)
        sampled = inference_similarity_matrix(texts, videos, params, SamplingConfig(2), True, 0)
        with pytest.raises(ContractViolation, match="aligned"):
            pool_radius_report(texts, videos, params, sampled)


def alignment_of(texts, videos, params, cfg, seed):
    """The alignment rows analyze writes: both passes over the pool, then
    alignment_rows under the model's logit scale."""
    det = inference_similarity_matrix(texts, videos, params, cfg, False, seed)
    stoch = inference_similarity_matrix(texts, videos, params, cfg, True, seed)
    return alignment_rows(det, stoch, params.logit_scale())


class TestAlignmentReport:
    def test_collapsed_mass_makes_columns_identical(self, monkeypatch):
        # R*eps = 0 collapses every sample to t; det and stoch columns agree
        params = make_params(seed=11)
        texts, videos = make_pool(q=4, candidates=4, seed=11)
        monkeypatch.setattr(evaluation, "grid_normals", _zero_normals)
        rows = alignment_of(texts, videos, params, SamplingConfig(trials=3), 29)
        for row in rows:
            assert abs(row.max_irrelevant_sim_det - row.max_irrelevant_sim_stoch) <= 1e-9
            assert abs(row.ce_det - row.ce_stoch) <= 1e-9

    def test_ranges_and_oracle(self):
        params = make_params(seed=12)
        texts, videos = make_pool(q=4, candidates=4, seed=12)
        cfg = SamplingConfig(trials=3)
        rows = alignment_of(texts, videos, params, cfg, 31)
        det = per_pair_scores(texts, videos, params, cfg, False, 31)
        stoch = per_pair_scores(texts, videos, params, cfg, True, 31)
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

    def test_one_pair_pool_is_refused(self):
        # a lone query has no irrelevant candidate to take a maximum over
        with pytest.raises(ContractViolation, match="at least 2 aligned pairs, got 1"):
            alignment_rows(np.ones((1, 1)), np.ones((1, 1)), 10.0)
        assert len(alignment_rows(np.eye(2), np.eye(2), 10.0)) == 2

    def test_requires_aligned_pool(self):
        with pytest.raises(ContractViolation):
            alignment_rows(np.zeros((3, 4)), np.zeros((3, 4)), 10.0)
        with pytest.raises(ContractViolation):
            alignment_rows(np.zeros((3, 3)), np.zeros((4, 4)), 10.0)

    @pytest.mark.parametrize("shape", [(3,), (3, 3, 3)], ids=["1-D", "3-D"])
    def test_matrices_of_another_rank_are_refused(self, shape):
        with pytest.raises(ContractViolation, match="^alignment report wants an aligned text-video pool$"):
            alignment_rows(np.zeros(shape), np.zeros(shape), 10.0)

    def test_matrices_may_be_nested_lists(self):
        # a list used to die with AttributeError: 'list' object has no attribute 'shape'
        rows = alignment_rows([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 10.0)
        assert rows == alignment_rows(np.eye(2), np.eye(2), 10.0)

    # a NaN scale used to put ce = nan into the report
    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_a_non_finite_scale_is_refused(self, lam):
        with pytest.raises(ContractViolation, match="^logit scale: 1 of 1 values are non-finite$"):
            alignment_rows(np.eye(3), np.eye(3), lam)

    @pytest.mark.parametrize("which", ["deterministic", "sampled"])
    def test_a_non_finite_score_is_refused(self, which):
        det, stoch = np.eye(3), np.eye(3)
        (det if which == "deterministic" else stoch)[1, 2] = np.nan
        with pytest.raises(ContractViolation, match=f"^{which} scores: 1 of 9 values are non-finite$"):
            alignment_rows(det, stoch, 10.0)


class TestCsvWriters:
    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_csv_rows(
            path,
            RetrievalMetrics,
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
        write_csv_rows(path, RadiusRow, [RadiusRow(0, 1, True, 8.0, 0.51234567)])
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,candidate_id,relevant,l1_radius,best_similarity"
        assert lines[1] == "0,1,1,8.000000,0.512346"

    def test_alignment_csv(self, tmp_path):
        path = tmp_path / "alignment.csv"
        write_csv_rows(path, AlignmentRow, [AlignmentRow(3, 0.25, 0.5, 1.0, 0.75)])
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,max_irrelevant_sim_det,max_irrelevant_sim_stoch,ce_det,ce_stoch"
        assert lines[1] == "3,0.250000,0.500000,1.000000,0.750000"

    def test_row_writer_formats_by_value_type(self, tmp_path):
        @dataclasses.dataclass
        class Row:
            name: str
            count: int
            flag: bool
            score: float

        path = tmp_path / "rows.csv"
        evaluation.write_csv_rows(
            path, Row, [Row("a", 3, np.True_, 0.1234567), Row("b", 0, False, np.float64(2))]
        )
        assert path.read_bytes() == b"name,count,flag,score\na,3,1,0.123457\nb,0,0,2.000000\n"
        evaluation.write_csv_rows(path, Row, [])
        assert path.read_bytes() == b"name,count,flag,score\n"

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        params = make_params(seed=13)
        texts, videos = make_pool(seed=13)
        cfg = SamplingConfig(trials=3)
        paths = []
        for tag in ("a", "b"):
            rows = alignment_of(texts, videos, params, cfg, 37)
            path = tmp_path / f"{tag}.csv"
            write_csv_rows(path, AlignmentRow, rows)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("existing", [True, False], ids=["over-old", "fresh"])
    def test_failed_write_leaves_the_old_file_and_no_temp(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "metrics.csv"
        if existing:
            write_csv_rows(path, RadiusRow, [RadiusRow(0, 0, True, 1.0, 0.5)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            write_csv_rows(path, RadiusRow, [RadiusRow(1, 1, True, 2.0, 0.25)])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
