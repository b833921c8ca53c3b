"""Objective forward values against closed forms and per-item oracles, and
the hand-written backward pass against central finite differences."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textmass import core, encoders, objectives
from textmass.core import NORM_GUARD, ContractViolation, DegenerateGeometryError, OracleFailure, substream
from textmass.encoders import sample_frame_indices
from textmass.mass import cos_grid, text_mass
from textmass.model import (
    LAMBDA_MAX,
    all_array_names,
    flatten_params,
    init_model,
    parameter_copies,
    restore_param,
    trainable_names,
)
from textmass.objectives import (
    PairBatch,
    backward_batch,
    draw_noise,
    dropout_grid_mask,
    forward_batch,
    gradient_check,
    mode_weights,
)

from oracle import (
    cosine_similarity,
    encode_frames,
    encode_text,
    frame_similarities,
    fuse,
    radius,
    support_text,
    symmetric_ce,
    unflatten_params,
)


def make_batch(n, c, t_raw, seed=0):
    rng = substream(seed, 7001)
    text = rng.standard_normal(n * c).reshape(n, c)
    videos = rng.standard_normal(n * t_raw * c).reshape(n, t_raw, c)
    return PairBatch(text=text, videos=videos)


def make_model(d=8, c=6, frames=3, variant="linear", seed=0):
    return init_model(d, c, frames, radius_variant=variant, seed=seed)


def randomize(params, seed=11, spread=0.3):
    """Move every trainable away from its identity/zero initialization."""
    names = trainable_names(params, "t-mass")
    flat = flatten_params(params, names)
    rng = substream(seed, 7002)
    flat = flat + spread * rng.standard_normal(flat.size)
    unflatten_params(params, names, flat)
    return params


class TestSymmetricCE:
    def test_single_pair_is_exactly_zero(self):
        for s in (-0.3, 0.0, 0.99):
            l_t2v, l_v2t, l_ce = symmetric_ce(np.array([[s]]), log_lambda=1.7)
            assert l_t2v == 0.0 and l_v2t == 0.0 and l_ce == 0.0

    def test_two_pair_identity_closed_form(self):
        sims = np.eye(2)
        _, _, l_ce = symmetric_ce(sims, log_lambda=0.0)
        assert abs(l_ce - np.log(1.0 + np.exp(-1.0))) <= 1e-6

    def test_sharper_scale_lowers_loss_on_correct_matrix(self):
        sims = np.eye(2)
        losses = [symmetric_ce(sims, np.log(lam))[2] for lam in (1.0, 5.0, 20.0)]
        assert losses[0] > losses[1] > losses[2]

    def test_matches_per_pair_loop_oracle(self):
        rng = substream(3, 7003)
        sims = rng.standard_normal(16).reshape(4, 4)
        lam = 2.5
        rows = []
        cols = []
        for i in range(4):
            rows.append(np.log(np.sum(np.exp(lam * sims[i, :]))) - lam * sims[i, i])
            cols.append(np.log(np.sum(np.exp(lam * sims[:, i]))) - lam * sims[i, i])
        l_t2v, l_v2t, l_ce = symmetric_ce(sims, np.log(lam))
        assert abs(l_t2v - np.mean(rows)) <= 1e-10
        assert abs(l_v2t - np.mean(cols)) <= 1e-10
        assert abs(l_ce - 0.5 * (np.mean(rows) + np.mean(cols))) <= 1e-10

    def test_invariant_to_global_shift(self):
        rng = substream(4, 7003)
        sims = rng.standard_normal(25).reshape(5, 5)
        base = symmetric_ce(sims, 1.0)[2]
        shifted = symmetric_ce(sims + 0.37, 1.0)[2]
        assert abs(base - shifted) <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ContractViolation):
            symmetric_ce(np.zeros((2, 3)), 0.0)

    def test_scale_clamp_is_applied(self):
        sims = np.eye(2)
        at_clamp = symmetric_ce(sims, np.log(100.0))[2]
        beyond = symmetric_ce(sims, np.log(1000.0))[2]
        assert at_clamp == beyond

    def test_wide_spread_matrix_stays_finite(self):
        # logits 1000 apart: a one-shift kernel loses row 1 to underflow
        sims = np.array([[0.0, 10.0], [-10.0, 0.0]])
        assert symmetric_ce(sims, np.log(100.0)) == (500.0, 500.0, 500.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            l_t2v, _, _ = objectives._ce_terms(sims, 100.0)
        assert l_t2v == -np.inf

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.sampled_from([1, 4]),
        n=st.integers(1, 12),
        d=st.integers(2, 8),
        log_lambda=st.floats(-3.0, np.log(1000.0)),
        align=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_one_shift_kernel_matches_the_oracle_on_cosine_grids(
        self, samples, n, d, log_lambda, align, seed
    ):
        rng = substream(seed, 7013)
        stack = rng.standard_normal(n * n * d).reshape(n, n, d)
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        rows = rng.standard_normal(samples * n * d).reshape(samples, n, d)
        rows += align * stack[np.arange(n), np.arange(n)]
        sims, _ = cos_grid(rows, stack)
        lam = min(np.exp(log_lambda), LAMBDA_MAX)
        l_t2v, l_v2t, _ = objectives._ce_terms(sims, float(lam))
        for k in range(samples):
            ref_t2v, ref_v2t, _ = symmetric_ce(sims[k], log_lambda)
            # a loss below 1 is a difference of logits of up to LAMBDA_MAX,
            # so its roundoff is absolute: relative to max(|loss|, 1)
            for got, ref in ((l_t2v[k], ref_t2v), (l_v2t[k], ref_v2t)):
                assert abs(got - ref) <= 1e-13 * max(abs(ref), 1.0), (got, ref)


class TestForwardAgainstModuleOps:
    """The batched pipeline must reproduce the per-item ops it composes."""

    def setup_method(self):
        self.params = randomize(make_model(d=8, c=6, frames=3, variant="linear"))
        self.batch = make_batch(n=3, c=6, t_raw=5, seed=1)
        self.eps = draw_noise(substream(1, 7004), 1, 3, 8)
        self.breakdown, self.tape = forward_batch(
            self.batch, self.params, "t-mass", 1.2, eps=self.eps
        )
        self.text_emb = self.tape.text.emb
        self.frame_emb = self.tape.frames.emb
        self.fused = self.tape.fusion.fused
        self.radius = self.tape.radii.radius

    def test_text_embeddings(self):
        for i in range(3):
            oracle = encode_text(self.batch.text[i], self.params)
            assert np.allclose(self.text_emb[i], oracle, atol=1e-12)

    def test_frame_embeddings(self):
        for i in range(3):
            oracle = encode_frames(self.batch.videos[i], 3, self.params)
            assert np.allclose(self.frame_emb[i], oracle, atol=1e-12)

    def test_fused_grid(self):
        for i in range(3):
            for j in range(3):
                oracle = fuse(self.frame_emb[j], self.text_emb[i], self.params)
                assert np.allclose(self.fused[i, j], oracle, atol=1e-12)

    def test_frame_similarities_and_radius(self):
        sims_f = self.tape.radii.sims
        for i in range(3):
            oracle = frame_similarities(self.text_emb[i], self.frame_emb[i])
            assert np.allclose(sims_f[i], oracle, atol=1e-12)
            assert np.allclose(self.radius[i], radius(oracle, self.params), atol=1e-12)

    def test_shifted_text_is_reparameterized_sample(self):
        expected = self.text_emb + self.radius * self.eps[0]
        assert np.array_equal(self.tape.ce.rows[1], expected)

    def test_support_rows(self):
        for i in range(3):
            oracle = support_text(self.text_emb[i], self.fused[i, i], self.radius[i])
            assert np.allclose(self.tape.ce.rows[-1, i], oracle, atol=1e-12)

    def test_ce_grid_matches_cosine(self):
        ce_sims = self.tape.ce.sims[0]
        for i in range(3):
            for j in range(3):
                oracle = cosine_similarity(self.text_emb[i], self.fused[i, j])
                assert abs(ce_sims[i, j] - oracle) <= 1e-12

    def test_diagnostic_ce_matches_public_op(self):
        ce_sims = self.tape.ce.sims[0]
        l_t2v, l_v2t, l_ce = symmetric_ce(ce_sims, self.params.log_lambda)
        assert abs(self.breakdown.l_ce - l_ce) <= 1e-12
        assert abs(self.breakdown.l_t2v - l_t2v) <= 1e-12
        assert abs(self.breakdown.l_v2t - l_v2t) <= 1e-12


class TestTextMassWiring:
    """forward_batch forms its sample rows t + R * eps and its support rows
    t + R * direction through mass.text_mass, bit for bit, with and without
    parameter copies."""

    @pytest.mark.parametrize("copied", [None, "adapter_text", "fusion_out", "radius_weights", "radius_theta"])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_rows_are_text_mass_of_the_tape(self, copied, degenerate):
        d, n, k = 6, 4, 3
        params = init_model(d, d, 3, "scalar" if copied == "radius_theta" else "linear", seed=21)
        randomize(params, seed=21)
        batch = make_batch(n, d, 5, seed=21)
        if degenerate:
            degenerate_first_pair(params, batch, None)
        eps = draw_noise(substream(21, 7011), 2, n, d)
        if copied is not None:
            x0 = getattr(params, copied).ravel()
            points = x0 + 1e-2 * substream(21, 7012).standard_normal(k * x0.size).reshape(k, x0.size)
            params = parameter_copies(params, copied, points)
        # copies of a radius map leave pair 0 degenerate; copies of adapter_text or fusion_out move it off
        if degenerate and copied in (None, "radius_weights", "radius_theta"):
            with pytest.raises(DegenerateGeometryError, match="^pair 0 has no support direction"):
                forward_batch(batch, params, "t-mass", 1.2, eps=eps)
            return
        _, tape = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        t, r, rows = tape.text.emb, tape.radii.radius, tape.ce.rows
        assert rows.shape == (() if copied is None else (k,)) + (4, n, d)
        assert not np.any(r == 1.0)
        samples = text_mass(t[..., None, :, :], r[..., None, :, :], eps)
        support = text_mass(t, r, tape.support.direction)
        assert np.array_equal(rows[..., 1:-1, :, :], np.broadcast_to(samples, rows[..., 1:-1, :, :].shape))
        assert np.array_equal(rows[..., -1, :, :], np.broadcast_to(support, rows[..., -1, :, :].shape))


class TestModeArithmetic:
    def test_weights(self):
        assert mode_weights("t-mass", 1.2) == (0.0, 1.0, 1.2)
        assert mode_weights("baseline", 1.2) == (1.0, 0.0, 0.0)
        assert mode_weights("ablation-ce-plus-s", 1.2) == (1.0, 1.0, 0.0)
        with pytest.raises(ContractViolation):
            mode_weights("nonsense", 1.0)

    def test_t_mass_total_is_weighted_sum(self):
        params = randomize(make_model())
        batch = make_batch(3, 6, 5, seed=2)
        eps = draw_noise(substream(9, 7004), 1, 3, 8)
        b, _ = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        assert abs(b.l_total - (b.l_s + 1.2 * b.l_sup)) <= 1e-12

    def test_alpha_zero_total_equals_stochastic_term(self):
        params = randomize(make_model())
        batch = make_batch(3, 6, 5, seed=2)
        eps = draw_noise(substream(9, 7004), 1, 3, 8)
        b, _ = forward_batch(batch, params, "t-mass", 0.0, eps=eps)
        assert b.l_total == b.l_s

    def test_baseline_total_is_deterministic_ce(self):
        params = randomize(make_model())
        batch = make_batch(3, 6, 5, seed=2)
        b, tape = forward_batch(batch, params, "baseline")
        assert b.l_total == b.l_ce
        assert b.l_s is None and b.l_sup is None
        assert tape.radii is None and tape.eps is None

    def test_ce_plus_s_total(self):
        params = randomize(make_model())
        batch = make_batch(3, 6, 5, seed=2)
        eps = draw_noise(substream(9, 7004), 1, 3, 8)
        b, _ = forward_batch(batch, params, "ablation-ce-plus-s", 1.2, eps=eps)
        assert abs(b.l_total - (b.l_ce + b.l_s)) <= 1e-12

    def test_alpha_linearity(self):
        params = randomize(make_model())
        batch = make_batch(4, 6, 5, seed=3)
        eps = draw_noise(substream(10, 7004), 1, 4, 8)
        totals = {}
        for alpha in (0.0, 0.5, 1.0):
            b, _ = forward_batch(batch, params, "t-mass", alpha, eps=eps)
            totals[alpha] = (b.l_total, b.l_s, b.l_sup)
            assert abs(b.l_total - (b.l_s + alpha * b.l_sup)) <= 1e-12
        assert totals[0.0][1] == totals[1.0][1]
        assert totals[0.0][2] == totals[1.0][2]

    def test_batch_permutation_invariance(self):
        params = randomize(make_model())
        batch = make_batch(5, 6, 5, seed=4)
        eps = draw_noise(substream(11, 7004), 1, 5, 8)
        b, _ = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        perm = np.array([3, 0, 4, 1, 2])
        shuffled = PairBatch(text=batch.text[perm], videos=batch.videos[perm])
        b2, _ = forward_batch(shuffled, params, "t-mass", 1.2, eps=eps[:, perm, :])
        assert abs(b.l_total - b2.l_total) <= 1e-10
        assert abs(b.l_ce - b2.l_ce) <= 1e-10

    def test_stochastic_modes_require_noise(self):
        params = make_model()
        batch = make_batch(3, 6, 5)
        with pytest.raises(ContractViolation):
            forward_batch(batch, params, "t-mass", 1.2, eps=None)
        # one (N, d) slice is not promoted to a sample stack
        eps = draw_noise(substream(9, 7004), 1, 3, 8)
        with pytest.raises(ContractViolation, match="noise must be"):
            forward_batch(batch, params, "t-mass", 1.2, eps=eps[0])

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -1.0])
    def test_a_non_finite_or_negative_alpha_is_refused_by_name(self, alpha):
        # a NaN alpha used to give a NaN loss, and an infinite one an infinite loss
        params = make_model()
        batch = make_batch(3, 6, 5)
        eps = draw_noise(substream(9, 7004), 1, 3, 8)
        message = f"^alpha must be finite and nonnegative, got {alpha}$"
        with pytest.raises(ContractViolation, match=message):
            forward_batch(batch, params, "t-mass", alpha, eps=eps)
        with pytest.raises(ContractViolation, match=message):
            gradient_check(params, batch, "t-mass", alpha, eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["text", "video"])
    def test_a_non_finite_feature_is_refused_by_the_batch(self, where, bad):
        # a NaN text feature used to give NaN losses from forward_batch, and
        # gradient_check blamed coordinate 0 of 'adapter_text'
        batch = make_batch(3, 6, 5)
        text, videos = batch.text.copy(), batch.videos.copy()
        (text if where == "text" else videos).flat[4] = bad
        with pytest.raises(ContractViolation, match=f"^{where} features: 1 of"):
            PairBatch(text=text, videos=videos)

    def test_rows_equal_a_freshly_checked_batch(self):
        # the training loop's per-step batch: rows of a checked batch, not scanned again
        batch = make_batch(7, 6, 5)
        idx = np.array([4, 0, 6, 2])
        rows = batch.rows(idx)
        fresh = PairBatch(text=batch.text[idx], videos=batch.videos[idx])
        assert type(rows) is PairBatch and rows.size == 4
        for field in ("text", "videos"):
            got, want = getattr(rows, field), getattr(fresh, field)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, getattr(batch, field))

    def test_unequal_counts_are_refused_with_both_counts(self):
        batch = make_batch(3, 6, 5)
        with pytest.raises(ContractViolation, match="^text and video counts disagree: 3 texts, 2 videos$"):
            PairBatch(text=batch.text, videos=batch.videos[:2])

    @pytest.mark.parametrize("text_shape, video_shape", [((3, 6, 1), (3, 5, 6)), ((3, 6), (3, 30))],
                             ids=["3-D text", "2-D videos"])
    def test_a_batch_of_other_ranks_is_refused(self, text_shape, video_shape):
        with pytest.raises(ContractViolation, match=r"^batch wants text \(N, c\) and videos \(N, T, c\)$"):
            PairBatch(text=np.ones(text_shape), videos=np.ones(video_shape))

    def test_an_empty_batch_is_refused(self):
        batch = PairBatch(text=np.zeros((0, 6)), videos=np.zeros((0, 5, 6)))
        with pytest.raises(ContractViolation, match="^empty batch$"):
            forward_batch(batch, make_model(), "baseline", 1.0)

    def test_an_unknown_mode_is_refused(self):
        with pytest.raises(ContractViolation, match="^unknown training mode 'mass'$"):
            forward_batch(make_batch(3, 6, 5), make_model(), "mass", 1.0)

    # the encode stage is the one check of a width against the model; a
    # text width that disagrees with the frames' is refused there too
    @pytest.mark.parametrize("mode", ["baseline", "t-mass"])
    @pytest.mark.parametrize("tower, text_width, frame_width", [("text", 5, 5), ("text", 7, 6), ("frame", 6, 4)])
    def test_features_of_another_width_are_refused_by_the_encode_stage(
        self, tower, text_width, frame_width, mode
    ):
        text = make_batch(3, text_width, 5).text
        videos = make_batch(3, frame_width, 5).videos
        batch = PairBatch(text=text, videos=videos)
        eps = None if mode == "baseline" else draw_noise(substream(9, 7004), 1, 3, 8)
        width = text_width if tower == "text" else frame_width
        message = f"^{tower} features have width {width} but the model's concept_dim is 6$"
        with pytest.raises(ContractViolation, match=message):
            forward_batch(batch, make_model(), mode, 1.0, eps=eps)
        with pytest.raises(ContractViolation, match=message):
            gradient_check(make_model(), batch, mode, 1.0, eps)


class TestNoiseHelpers:
    @pytest.mark.parametrize("sizes", [(0, 3, 8), (2, 0, 8), (2, 3, 0)], ids=["samples", "pairs", "dim"])
    def test_draw_noise_refuses_a_zero_size(self, sizes):
        with pytest.raises(ContractViolation, match="^noise draw wants positive sizes$"):
            draw_noise(substream(5, 7005), *sizes)

    def test_draw_noise_prefix_nesting(self):
        wide = draw_noise(substream(5, 7005), 4, 3, 8)
        narrow = draw_noise(substream(5, 7005), 2, 3, 8)
        assert np.array_equal(wide[:2], narrow)

    def test_dropout_mask_values(self):
        mask = dropout_grid_mask(substream(6, 7005), 4, 8, 0.25)
        assert mask.shape == (4, 4, 8)
        scaled = 1.0 / 0.75
        assert set(np.unique(mask)) <= {0.0, scaled}

    def test_dropout_mask_never_drops_a_whole_cell(self):
        # at rate 0.9 with d = 1, 14 of the 16 cells draw a drop; each is
        # kept instead
        rate = 0.9
        uniforms = substream(6, 7006).uniform(16).reshape(4, 4, 1)
        assert np.count_nonzero(uniforms < rate) == 14
        mask = dropout_grid_mask(substream(6, 7006), 4, 1, rate)
        assert np.count_nonzero(mask == 0.0) == 0
        assert np.array_equal(mask, np.full((4, 4, 1), 1.0 / (1.0 - rate)))

    def test_dropout_mask_keeps_partial_cells_as_drawn(self):
        rate = 0.5
        uniforms = substream(6, 7007).uniform(4 * 4 * 3).reshape(4, 4, 3)
        mask = dropout_grid_mask(substream(6, 7007), 4, 3, rate)
        whole = (uniforms < rate).all(axis=2)
        assert whole.any() and not whole.all()
        assert np.array_equal(mask[~whole] == 0.0, uniforms[~whole] < rate)
        assert np.all(mask[whole] == 1.0 / (1.0 - rate))

    def test_dropout_mask_off(self):
        assert dropout_grid_mask(substream(6, 7005), 4, 8, 0.0) is None
        with pytest.raises(ContractViolation):
            dropout_grid_mask(substream(6, 7005), 4, 8, 1.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_rate_is_refused_by_name(self, rate):
        # a NaN rate used to give an all-NaN mask, and -inf no mask at all
        with pytest.raises(ContractViolation, match=f"^dropout rate must be finite, got {rate}$"):
            dropout_grid_mask(substream(6, 7005), 4, 8, rate)


class TestDegenerateSupport:
    def test_all_degenerate_batch_raises(self):
        # Force video == text by an identity-ish model on a single pair with
        # the video frames all equal to the text feature.
        params = make_model(d=8, c=8, frames=2)
        # identity projections make embeddings equal for equal raw features
        restore_param(params, "proj_text", np.eye(8))
        restore_param(params, "proj_frame", np.eye(8))
        feat = substream(7, 7006).standard_normal(8)
        batch = PairBatch(text=feat[None, :], videos=np.stack([np.stack([feat, feat])]))
        eps = draw_noise(substream(7, 7007), 1, 1, 8)
        with pytest.raises(DegenerateGeometryError):
            forward_batch(batch, params, "t-mass", 1.2, eps=eps)

    @pytest.mark.parametrize("copied", [None, "fusion_query"])
    @pytest.mark.parametrize("mode", ["t-mass", "ablation-ce-plus-s", "baseline"])
    def test_one_degenerate_pair_is_refused_by_name_outside_baseline(self, mode, copied):
        d, n = 6, 4
        params = randomize(init_model(d, d, 3, "linear", seed=8), seed=8)
        batch = make_batch(n, d, 5, seed=8)
        degenerate_first_pair(params, batch, None)
        if copied is not None:
            # attention only reweighs video 0's equal frames: every copy keeps pair 0 degenerate
            x0 = getattr(params, copied).ravel()
            points = x0 + 1e-2 * substream(8, 7012).standard_normal(3 * x0.size).reshape(3, x0.size)
            params = parameter_copies(params, copied, points)
        if mode == "baseline":
            breakdown, _ = forward_batch(batch, params, mode, 1.2)
            assert np.all(np.isfinite(breakdown.l_total))
            return
        eps = draw_noise(substream(8, 7011), 2, n, d)
        where = "pair 0" if copied is None else "copy 0 pair 0"
        with pytest.raises(DegenerateGeometryError, match=rf"^{where} has no support direction: \|\|v - t\|\| = "):
            forward_batch(batch, params, mode, 1.2, eps=eps)


class TestUnitStacks:
    """cos_grid divides by the row norms alone, so every stack it scores
    against must be unit length."""

    @settings(max_examples=50, deadline=None)
    @given(
        mode=st.sampled_from(["t-mass", "baseline"]),
        adapters=st.booleans(),
        copies=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    def test_fused_grid_and_frames_have_unit_rows(self, mode, adapters, copies, seed):
        d, n = 6, 4
        params = randomize(init_model(d, d, 3, "linear", seed=seed, adapters_enabled=adapters), seed=seed)
        batch = make_batch(n, d, 5, seed=seed)
        mask = dropout_grid_mask(substream(seed, 7010), n, d, 0.3)
        eps = None if mode == "baseline" else draw_noise(substream(seed, 7011), 2, n, d)
        rng = substream(seed, 7012)
        # each array that reaches the fused grid, as its own copy set
        for name in [n for n in trainable_names(params, mode) if n.startswith(("adapter", "fusion"))]:
            x0 = getattr(params, name).ravel()
            points = np.tile(x0, (copies, 1))
            points[1:] += 1e-2 * rng.standard_normal((copies - 1) * x0.size).reshape(copies - 1, -1)
            _, tape = forward_batch(
                batch, parameter_copies(params, name, points), mode, 1.2, eps=eps, drop_mask=mask
            )
            assert tape.fusion.fused.shape == (copies, n, n, d), name
            for unit in (tape.fusion.fused, tape.frames.emb):
                assert np.all(np.abs(np.linalg.norm(unit, axis=-1) - 1.0) <= 1e-14), name


GRAD_CONFIGS = [
    ("t-mass", "linear", 1.2, False),
    ("t-mass", "scalar", 1.2, False),
    ("t-mass", "fixed-mean", 1.2, False),
    ("t-mass", "linear", 0.0, False),
    ("baseline", "linear", 1.2, False),
    ("ablation-ce-plus-s", "linear", 1.2, False),
    ("t-mass", "linear", 1.2, True),
]


class TestGradients:
    @pytest.mark.parametrize("mode,variant,alpha,with_dropout", GRAD_CONFIGS)
    def test_backward_matches_finite_differences(self, mode, variant, alpha, with_dropout):
        params = randomize(make_model(d=8, c=6, frames=3, variant=variant, seed=3), seed=31)
        batch = make_batch(4, 6, 5, seed=6)
        eps = None if mode == "baseline" else draw_noise(substream(8, 7008), 1, 4, 8)
        mask = dropout_grid_mask(substream(8, 7009), 4, 8, 0.3) if with_dropout else None
        result = gradient_check(params, batch, mode, alpha, eps, drop_mask=mask)
        assert result.passed, result.failures[:5]

    def test_multi_sample_gradient(self):
        params = randomize(make_model(variant="linear", seed=5), seed=32)
        batch = make_batch(3, 6, 5, seed=7)
        eps = draw_noise(substream(12, 7008), 3, 3, 8)
        result = gradient_check(params, batch, "t-mass", 1.2, eps)
        assert result.passed, result.failures[:5]

    def test_adapters_disabled_gradient(self):
        params = init_model(8, 6, 3, "linear", seed=6, adapters_enabled=False)
        randomize(params, seed=33)
        batch = make_batch(3, 6, 5, seed=8)
        eps = draw_noise(substream(13, 7008), 1, 3, 8)
        names = trainable_names(params, "t-mass")
        assert "adapter_text" not in names and "adapter_frame" not in names
        result = gradient_check(params, batch, "t-mass", 1.2, eps)
        assert result.passed, result.failures[:5]

    def test_frozen_radius_has_no_radius_entry(self):
        params = randomize(make_model(variant="scalar"), seed=34)
        params.radius_trainable = False
        batch = make_batch(3, 6, 5, seed=9)
        eps = draw_noise(substream(14, 7008), 1, 3, 8)
        names = trainable_names(params, "t-mass")
        assert "radius_theta" not in names
        result = gradient_check(params, batch, "t-mass", 1.2, eps)
        assert result.passed, result.failures[:5]

    def test_clamped_scale_kills_scale_gradient(self):
        params = randomize(make_model(), seed=35)
        restore_param(params, "log_lambda", np.log(500.0))
        batch = make_batch(3, 6, 5, seed=10)
        eps = draw_noise(substream(15, 7008), 1, 3, 8)
        _, tape = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        grads = backward_batch(tape)
        assert float(grads["log_lambda"]) == 0.0
        result = gradient_check(params, batch, "t-mass", 1.2, eps)
        assert result.passed, result.failures[:5]

    def test_gradient_restores_parameters(self):
        params = randomize(make_model(), seed=36)
        batch = make_batch(3, 6, 5, seed=11)
        eps = draw_noise(substream(16, 7008), 1, 3, 8)
        names = trainable_names(params, "t-mass")
        before = flatten_params(params, names)
        gradient_check(params, batch, "t-mass", 1.2, eps)
        assert np.array_equal(flatten_params(params, names), before)

    def test_gradients_are_deterministic(self):
        params = randomize(make_model(), seed=37)
        batch = make_batch(4, 6, 5, seed=12)
        eps = draw_noise(substream(17, 7008), 1, 4, 8)
        names = trainable_names(params, "t-mass")
        _, tape1 = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        _, tape2 = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        g1, g2 = backward_batch(tape1), backward_batch(tape2)
        assert np.array_equal(np.concatenate([np.ravel(g1[n]) for n in names]),
                              np.concatenate([np.ravel(g2[n]) for n in names]))


class TestParameterPlumbing:
    def test_canonical_name_order(self):
        params = make_model(variant="linear")
        assert trainable_names(params, "t-mass") == [
            "adapter_text",
            "adapter_frame",
            "fusion_query",
            "fusion_key",
            "fusion_value",
            "fusion_out",
            "radius_weights",
            "log_lambda",
        ]
        assert trainable_names(params, "baseline") == [
            "adapter_text",
            "adapter_frame",
            "fusion_query",
            "fusion_key",
            "fusion_value",
            "fusion_out",
            "log_lambda",
        ]

    def test_flatten_roundtrip(self):
        params = randomize(make_model(variant="scalar"), seed=38)
        names = trainable_names(params, "t-mass")
        flat = flatten_params(params, names)
        unflatten_params(params, names, flat * 2.0)
        assert np.array_equal(flatten_params(params, names), flat * 2.0)

    def test_scalar_params_round_trip_as_zero_d(self):
        params = make_model(variant="scalar")
        assert params.radius_theta.shape == () and np.shares_memory(params.radius_theta, params.flat)


# ---------------------------------------------------------------------------
# per-sample reference of the batched forward/backward pass
#
# A plain transcription of the objective with one Python iteration per noise
# sample and every contraction written as an einsum. It divides every cosine
# by both norms and shifts each softmax row and column by its own maximum.
# forward_batch and backward_batch stack the samples, contract with matmul,
# use that the fused grid and the frames are unit length and shift each CE
# matrix once, so the two may differ only by roundoff.


def _ref_cos_grid(rows, stack):
    dots = np.einsum("id,ijd->ij", rows, stack)
    rn = np.linalg.norm(rows, axis=1)
    sn = np.linalg.norm(stack, axis=2)
    return dots / (rn[:, None] * sn + NORM_GUARD), rn, sn


def _ref_cos_grid_backward(d_sims, rows, stack, sims, rn, sn):
    denom = rn[:, None] * sn + NORM_GUARD
    lead = d_sims / denom
    d_rows = np.einsum("ij,ijd->id", lead, stack)
    d_rows -= rows * np.sum(d_sims * sims * sn / (rn[:, None] * denom), axis=1)[:, None]
    d_stack = lead[:, :, None] * rows[:, None, :]
    d_stack -= (d_sims * sims * rn[:, None] / (sn * denom))[:, :, None] * stack
    return d_rows, d_stack


def _ref_ce(sims, lam):
    """(l_ce, d_sims, d_lam) of one matrix; d_* are for upstream 1."""
    n = sims.shape[0]
    logits = lam * sims
    p_row = np.exp(logits - logits.max(axis=1, keepdims=True))
    lse_row = np.log(p_row.sum(axis=1)) + logits.max(axis=1)
    p_row /= p_row.sum(axis=1, keepdims=True)
    p_col = np.exp(logits - logits.max(axis=0, keepdims=True))
    lse_col = np.log(p_col.sum(axis=0)) + logits.max(axis=0)
    p_col /= p_col.sum(axis=0, keepdims=True)
    l_ce = 0.5 * (np.mean(lse_row - np.diagonal(logits)) + np.mean(lse_col - np.diagonal(logits)))
    d_sims = lam / (2.0 * n) * (p_row + p_col) - lam / n * np.eye(n)
    d_lam = (np.sum((p_row + p_col) * sims) - 2.0 * np.trace(sims)) / (2.0 * n)
    return l_ce, d_sims, d_lam


def _ref_normalize(x):
    norms = np.linalg.norm(x, axis=-1)
    unit = x / norms[..., None]

    def back(d_unit):
        inner = np.sum(unit * d_unit, axis=-1, keepdims=True)
        return (d_unit - unit * inner) / norms[..., None]

    return unit, back


def reference_objective(batch, params, mode, alpha, eps, drop_mask):
    """(losses, per-sample l_s terms, grads) with one loop pass per sample."""
    w_ce, w_s, w_sup = mode_weights(mode, alpha)
    d = params.dim
    n = batch.size
    idx = sample_frame_indices(batch.videos.shape[1], params.frame_count)
    pt = batch.text @ params.proj_text.T
    pf = batch.videos[:, idx, :] @ params.proj_frame.T
    a_text = params.adapter_text if params.adapters_enabled else np.eye(d)
    a_frame = params.adapter_frame if params.adapters_enabled else np.eye(d)
    text, text_back = _ref_normalize(pt @ a_text.T)
    frames, frame_back = _ref_normalize(pf @ a_frame.T)

    q, k, v = text @ params.fusion_query.T, frames @ params.fusion_key.T, frames @ params.fusion_value.T
    logits = np.einsum("id,jld->ijl", q, k) / np.sqrt(d)
    w = np.exp(logits - logits.max(axis=2, keepdims=True))
    w /= w.sum(axis=2, keepdims=True)
    pooled = np.einsum("ijl,jld->ijd", w, v)
    mask = np.ones_like(pooled) if drop_mask is None else drop_mask
    fused, fused_back = _ref_normalize((pooled @ params.fusion_out.T) * mask)
    lam = min(np.exp(params.log_lambda), LAMBDA_MAX)

    d_text, d_frames, d_fused = np.zeros_like(text), np.zeros_like(frames), np.zeros_like(fused)
    d_lam = 0.0
    grads = {}

    sims, rn, sn = _ref_cos_grid(text, fused)
    l_ce, g_sims, g_lam = _ref_ce(sims, lam)
    d_rows, d_stack = _ref_cos_grid_backward(w_ce * g_sims, text, fused, sims, rn, sn)
    d_text += d_rows
    d_fused += d_stack
    d_lam += w_ce * g_lam
    terms, l_sup = [], None
    if mode != "baseline":
        sims_f, nt, nf = _ref_cos_grid(text, frames)
        if params.radius_variant == "linear":
            r = np.exp(sims_f @ params.radius_weights)
        else:
            scale = params.radius_theta if params.radius_variant == "scalar" else 1.0
            r = np.exp(scale * sims_f.mean(axis=1))[:, None] * np.ones(d)
        d_r = np.zeros_like(r)
        for eps_k in eps:
            shifted = text + r * eps_k
            sims, rn, sn = _ref_cos_grid(shifted, fused)
            term, g_sims, g_lam = _ref_ce(sims, lam)
            terms.append(term)
            up = w_s / len(eps)
            d_rows, d_stack = _ref_cos_grid_backward(up * g_sims, shifted, fused, sims, rn, sn)
            d_text += d_rows
            d_r += eps_k * d_rows
            d_fused += d_stack
            d_lam += up * g_lam

        diag = np.arange(n)
        delta = fused[diag, diag] - text
        dist = np.linalg.norm(delta, axis=1)
        direction = delta / dist[:, None]
        rows = text + direction * r
        sims, rn, sn = _ref_cos_grid(rows, fused)
        l_sup, g_sims, g_lam = _ref_ce(sims, lam)
        d_rows, d_stack = _ref_cos_grid_backward(w_sup * g_sims, rows, fused, sims, rn, sn)
        d_lam += w_sup * g_lam
        d_fused += d_stack
        d_text += d_rows
        d_r += direction * d_rows
        d_dir = r * d_rows
        d_delta = (d_dir - direction * np.sum(direction * d_dir, axis=1, keepdims=True)) / dist[:, None]
        d_fused[diag, diag] += d_delta
        d_text -= d_delta

        if params.radius_variant == "linear":
            d_pre = d_r * r
            grads["radius_weights"] = sims_f.T @ d_pre
            d_sims_f = d_pre @ params.radius_weights.T
        else:
            expo = np.exp(scale * sims_f.mean(axis=1))
            grads["radius_theta"] = np.sum(sims_f.mean(axis=1) * expo * d_r.sum(axis=1))
            d_sims_f = np.repeat((scale * expo * d_r.sum(axis=1))[:, None], nf.shape[1], axis=1)
            d_sims_f /= nf.shape[1]
        d_rows, d_stack = _ref_cos_grid_backward(d_sims_f, text, frames, sims_f, nt, nf)
        d_text += d_rows
        d_frames += d_stack

    d_pre_fused = fused_back(d_fused) * mask
    grads["fusion_out"] = np.einsum("ijd,ije->de", d_pre_fused, pooled)
    d_pooled = d_pre_fused @ params.fusion_out
    d_w = np.einsum("ijd,jld->ijl", d_pooled, v)
    d_v = np.einsum("ijl,ijd->jld", w, d_pooled)
    d_logits = w * (d_w - np.sum(w * d_w, axis=2, keepdims=True)) / np.sqrt(d)
    d_q = np.einsum("ijl,jld->id", d_logits, k)
    d_k = np.einsum("ijl,id->jld", d_logits, q)
    grads["fusion_query"] = d_q.T @ text
    grads["fusion_key"] = np.einsum("jld,jle->de", d_k, frames)
    grads["fusion_value"] = np.einsum("jld,jle->de", d_v, frames)
    d_text += d_q @ params.fusion_query
    d_frames += d_k @ params.fusion_key + d_v @ params.fusion_value
    grads["adapter_text"] = text_back(d_text).T @ pt
    grads["adapter_frame"] = np.einsum("jld,jle->de", frame_back(d_frames), pf)
    grads["log_lambda"] = 0.0 if np.exp(params.log_lambda) > LAMBDA_MAX else d_lam * lam

    l_s = float(np.mean(terms)) if terms else None
    total = w_ce * l_ce + (w_s * l_s if terms else 0.0) + (w_sup * l_sup if terms else 0.0)
    losses = {"l_ce": l_ce, "l_s": l_s, "l_sup": l_sup, "l_total": total}
    names = trainable_names(params, mode)
    return losses, terms, {name: np.asarray(grads[name]) for name in names}


def in_extended_precision(batch, params, eps, drop_mask):
    """reference_objective's inputs as np.longdouble copies. Where a gradient
    entry sums to near zero, a float64 reference's own roundoff can exceed
    assert_close's bounds by itself (seed 347 below); in extended precision
    the reference carries next to none, so the bounds measure the batched
    pass's error. Where longdouble is float64, this is the float64 reference."""

    def wide(x):
        return None if x is None else np.asarray(x, dtype=np.longdouble)

    wide_batch = copy.copy(batch)
    wide_batch.text, wide_batch.videos = wide(batch.text), wide(batch.videos)
    wide_params = dataclasses.replace(
        params, **{name: wide(getattr(params, name)) for name in all_array_names(params)})
    return wide_batch, wide_params, wide(eps), wide(drop_mask)


def assert_close(actual, expected, what, float64_ref=None):
    """Within 1e-14 absolute or 1e-12 relative of expected, or, given the
    float64 reference of an extended-precision expected, no farther from it
    than 4x that reference's own error: where float64 cannot meet the fixed
    bounds (seed 13511 below), the batched pass is held to float64's best."""
    err = np.abs(np.asarray(actual, dtype=np.float64) - expected)
    ok = (err <= 1e-14) | (err <= 1e-12 * np.abs(expected))
    if float64_ref is not None:
        ok |= err <= 4 * np.abs(np.asarray(float64_ref, dtype=np.float64) - expected)
    assert np.all(ok), f"{what}: worst error {err.max():.3e}"


def degenerate_first_pair(params, batch, drop_mask):
    """Make pair 0's fused video equal its text: identity projections and
    value/output maps, one adapter for both towers, every frame of video 0
    equal to text 0, and dropout kept on the (0, 0) cell."""
    for name in ("proj_text", "proj_frame", "fusion_value", "fusion_out"):
        restore_param(params, name, np.eye(params.dim))
    restore_param(params, "adapter_frame", params.adapter_text)
    batch.videos[0] = batch.text[0]
    if drop_mask is not None:
        drop_mask[0, 0] = 1.0


class TestBatchedMatchesPerSampleReference:
    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.sampled_from([1, 3, 16]),
        variant=st.sampled_from(["linear", "scalar", "fixed-mean"]),
        mode=st.sampled_from(["t-mass", "ablation-ce-plus-s", "baseline"]),
        adapters=st.booleans(),
        dropout=st.booleans(),
        degenerate=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # fusion_query[5, 1], -3.98e-3: a float64 reference is 2e-14 off, the batched pass 3e-15
    @example(samples=3, variant="fixed-mean", mode="ablation-ce-plus-s", adapters=False, dropout=True,
             degenerate=False, seed=347)
    # adapter_frame[2, 5], -7.34e-3 in an array reaching 6.77: the float64
    # reference is 3.51e-14 off, the batched pass 3.38e-14, past the fixed bounds
    @example(samples=3, variant="linear", mode="ablation-ce-plus-s", adapters=True, dropout=True,
             degenerate=False, seed=13511)
    def test_losses_and_gradients(self, samples, variant, mode, adapters, dropout, degenerate, seed):
        d, n = 6, 4
        params = init_model(d, d, 3, variant, seed=seed, adapters_enabled=adapters)
        randomize(params, seed=seed)
        batch = make_batch(n, d, 5, seed=seed)
        mask = dropout_grid_mask(substream(seed, 7010), n, d, 0.3) if dropout else None
        if degenerate:
            degenerate_first_pair(params, batch, mask)
        eps = None if mode == "baseline" else draw_noise(substream(seed, 7011), samples, n, d)
        if degenerate and mode != "baseline":
            with pytest.raises(DegenerateGeometryError, match="^pair 0 has no support direction"):
                forward_batch(batch, params, mode, 1.2, eps=eps, drop_mask=mask)
            return

        breakdown, tape = forward_batch(batch, params, mode, 1.2, eps=eps, drop_mask=mask)
        grads = backward_batch(tape)
        wide_batch, wide_params, wide_eps, wide_mask = in_extended_precision(batch, params, eps, mask)
        losses, terms, ref_grads = reference_objective(wide_batch, wide_params, mode, 1.2, wide_eps, wide_mask)
        f64_losses, _, f64_grads = reference_objective(batch, params, mode, 1.2, eps, mask)

        for key, ref in losses.items():
            if ref is None:
                assert getattr(breakdown, key) is None
            else:
                assert_close(getattr(breakdown, key), ref, key, f64_losses[key])
        assert list(grads) == list(ref_grads)
        for name, ref in ref_grads.items():
            assert_close(grads[name], ref, name, f64_grads[name])

        if mode != "baseline":
            first = max(1, samples // 2)
            prefix, _ = forward_batch(batch, params, mode, 1.2, eps=eps[:first], drop_mask=mask)
            assert_close(prefix.l_s, np.mean(terms[:first]), "l_s of a sample prefix")

    def test_stacked_cache_indexes_samples(self):
        params = randomize(make_model())
        batch = make_batch(3, 6, 5, seed=5)
        eps = draw_noise(substream(5, 7011), 4, 3, 8)
        _, tape = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        # t, the 4 samples and the support rows
        assert tape.ce.rows.shape == (6, 3, 8)
        assert tape.ce.sims.shape == (6, 3, 3)
        for k in range(4):
            expected = tape.text.emb + tape.radii.radius * eps[k]
            assert np.array_equal(tape.ce.rows[1 + k], expected)


# ---------------------------------------------------------------------------
# parameter copies: one forward pass scores a block of copies of one array


LOSS_FIELDS = ("l_t2v", "l_v2t", "l_ce", "l_s", "l_sup", "l_total")


def one_at_a_time(params, name, points, batch, mode, eps, mask):
    """forward_batch's losses for each flat copy of array `name` in points, on a model of its own."""
    out = []
    for row in points:
        single = copy.deepcopy(params)
        restore_param(single, name, row.reshape(getattr(params, name).shape))
        out.append(forward_batch(batch, single, mode, 1.2, eps=eps, drop_mask=mask))
    return out


def assert_copies_match(blocked, singles, copies):
    for field in LOSS_FIELDS:
        value = getattr(blocked, field)
        if getattr(singles[0][0], field) is None:
            assert value is None, field
            continue
        assert isinstance(value, np.ndarray) and value.shape == (copies,), field
        expected = np.array([getattr(b, field) for b, _ in singles])
        err = np.abs(value - expected)
        assert np.all(err <= 1e-13 * np.abs(expected)), f"{field}: worst error {err.max():.3e}"


class TestParameterCopies:
    @settings(max_examples=80, deadline=None)
    @given(
        variant=st.sampled_from(["linear", "scalar", "fixed-mean"]),
        mode=st.sampled_from(["t-mass", "ablation-ce-plus-s", "baseline"]),
        samples=st.sampled_from([1, 4]),
        adapters=st.booleans(),
        dropout=st.booleans(),
        frozen_radius=st.booleans(),
        degenerate=st.booleans(),
        copies=st.integers(1, 5) | st.just(2 * core.FD_BLOCK),  # 2 * FD_BLOCK: a gradient_check block
        moved=st.integers(0, 7),  # the copied array: names[moved % len(names)]
        seed=st.integers(0, 2**16),
    )
    def test_blocked_losses_equal_one_at_a_time(
        self, variant, mode, samples, adapters, dropout, frozen_radius, degenerate, copies, moved, seed
    ):
        d, n = 6, 4
        params = init_model(d, d, 3, variant, seed=seed, adapters_enabled=adapters)
        randomize(params, seed=seed)
        params.radius_trainable = not frozen_radius
        batch = make_batch(n, d, 5, seed=seed)
        mask = dropout_grid_mask(substream(seed, 7010), n, d, 0.3) if dropout else None
        if degenerate:
            degenerate_first_pair(params, batch, mask)
        eps = None if mode == "baseline" else draw_noise(substream(seed, 7011), samples, n, d)
        names = trainable_names(params, mode)
        name = names[moved % len(names)]
        x0 = getattr(params, name).ravel()
        # copy 0 stays at x0 (with a degenerate pair 0, the others may not be)
        points = np.tile(x0, (copies, 1))
        if copies > 1:
            points[1:] += 1e-3 * substream(seed, 7012).standard_normal((copies - 1) * x0.size).reshape(-1, x0.size)
        # a copy axis reaches the refusal only through a copy that reaches the text or the fused grid
        if degenerate and mode != "baseline":
            with pytest.raises(DegenerateGeometryError, match="^(copy 0 )?pair 0 has no support direction"):
                forward_batch(batch, parameter_copies(params, name, points), mode, 1.2, eps=eps, drop_mask=mask)
            return
        blocked, tape = forward_batch(
            batch, parameter_copies(params, name, points), mode, 1.2, eps=eps, drop_mask=mask
        )
        assert_copies_match(blocked, one_at_a_time(params, name, points, batch, mode, eps, mask), copies)
        with pytest.raises(ContractViolation):
            backward_batch(tape)

    # Each map alone, then runs of arrays, each array of a run as its own
    # copy set, as gradient_check walks them. The products meet copies on
    # the map alone (each map's own product) or on the input alone (every
    # product after adapter_text's or adapter_frame's), never on both.
    # Attention weights with copies meet shared values (fusion_query,
    # fusion_key), shared weights meet copied values (fusion_value), and
    # copied weights meet copied values (adapter_frame).
    @pytest.mark.parametrize(
        "first, last",
        [(name, name) for name in ("adapter_text", "adapter_frame", "fusion_query", "fusion_key", "fusion_value",
                                   "fusion_out")]
        + [("radius_weights", "log_lambda"), ("adapter_text", "log_lambda")],
    )
    def test_a_gradient_check_block_equals_one_at_a_time(self, first, last):
        k, d, n = 2 * core.FD_BLOCK, 6, 4
        params = randomize(init_model(d, d, 3, "linear", seed=9), seed=9)
        batch = make_batch(n, d, 5, seed=9)
        eps = draw_noise(substream(9, 7011), 2, n, d)
        names = trainable_names(params, "t-mass")
        rng = substream(9, 7012)
        for name in names[names.index(first) : names.index(last) + 1]:
            x0 = getattr(params, name).ravel()
            points = np.tile(x0, (k, 1)) + 1e-3 * rng.standard_normal(k * x0.size).reshape(k, x0.size)
            blocked, _ = forward_batch(batch, parameter_copies(params, name, points), "t-mass", 1.2, eps=eps)
            assert_copies_match(blocked, one_at_a_time(params, name, points, batch, "t-mass", eps, None), k)

    @pytest.mark.parametrize("mode", ["t-mass", "ablation-ce-plus-s"])
    def test_a_block_with_one_degenerate_copy_is_refused_by_copy_and_pair(self, mode):
        d, n = 6, 4
        params = randomize(init_model(d, d, 3, "linear", seed=4), seed=4)
        batch = make_batch(n, d, 5, seed=4)
        degenerate_first_pair(params, batch, None)
        eps = draw_noise(substream(4, 7011), 4, n, d)
        points = np.tile(params.fusion_out.ravel(), (3, 1))
        points[0, 0] += 1e-2  # moves fused video 0 off text 0
        points[2, 1] -= 1e-2
        # copies 0 and 2 alone are scored; copy 1 keeps pair 0 degenerate
        one_at_a_time(params, "fusion_out", points[[0, 2]], batch, mode, eps, None)
        with pytest.raises(DegenerateGeometryError, match="^copy 1 pair 0 has no support direction"):
            forward_batch(batch, parameter_copies(params, "fusion_out", points), mode, 1.2, eps=eps)

    def test_one_copy_equals_the_plain_forward_bit_for_bit(self):
        params = randomize(make_model(variant="scalar"), seed=41)
        batch = make_batch(4, 6, 5, seed=41)
        eps = draw_noise(substream(41, 7008), 2, 4, 8)
        plain, _ = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        shared = dataclasses.replace(params, copies=1)  # one copy of no array: every array is shared
        # each trainable array as a stack of one copy
        stacked = [parameter_copies(params, name, getattr(params, name).reshape(1, -1))
                   for name in trainable_names(params, "t-mass")]
        for copies in [shared] + stacked:
            blocked, _ = forward_batch(batch, copies, "t-mass", 1.2, eps=eps)
            for field in LOSS_FIELDS:
                assert np.array_equal(getattr(blocked, field), [getattr(plain, field)]), field

    def test_copies_share_unmoved_arrays_and_leave_params_alone(self):
        params = randomize(make_model(), seed=42)
        before = {name: getattr(params, name).copy() for name in all_array_names(params)}
        points = params.log_lambda + np.arange(4.0)[:, None]
        copies = parameter_copies(params, "log_lambda", points)
        assert copies.copies == 4 and params.copies is None
        assert copies.log_lambda.shape == (4,)
        assert copies.fusion_out is params.fusion_out
        assert copies is not params
        for name, value in before.items():
            assert np.array_equal(getattr(params, name), value), name
        assert params.log_lambda.shape == () and np.shares_memory(params.log_lambda, params.flat)

    @pytest.mark.parametrize("variant", ["linear", "scalar"])
    def test_copies_hold_exactly_the_named_array(self, variant):
        params = randomize(init_model(6, 6, 3, variant, seed=5), seed=5)
        for name in trainable_names(params, "t-mass"):
            x0 = getattr(params, name)
            points = x0.ravel() + 1e-3 * substream(5, 7013).standard_normal(4 * x0.size).reshape(4, -1)
            copies = parameter_copies(params, name, points)
            assert copies.copies == 4 and params.copies is None
            for other in all_array_names(params):
                value = getattr(copies, other)
                if other == name:
                    assert np.array_equal(value, points.reshape((4,) + x0.shape)), name
                elif value.ndim:  # every other array is params' own object
                    assert getattr(copies, other) is getattr(params, other), (name, other)
                else:
                    assert value == getattr(params, other), (name, other)

    @pytest.mark.parametrize("shape", [(2, 35), (2, 37), (36,), (2, 6, 6)])
    def test_points_of_another_width_are_refused(self, shape):
        params = init_model(6, 6, 3, "linear", seed=5)
        with pytest.raises(ContractViolation, match="^copies of 'fusion_key' want 36 values each"):
            parameter_copies(params, "fusion_key", np.zeros(shape))


def _moved_copies(params, names, points):
    """Reference copies for a full (k, n) stack of flat vectors: each array
    that some row moves, found by comparing every column with params, gets
    a copy axis."""
    k = points.shape[0]
    stacks, pos = {}, 0
    for name in names:
        old = getattr(params, name)
        rows = points[:, pos : pos + old.size]
        if np.any(rows != old.ravel()):
            stacks[name] = rows.reshape((k,) + old.shape)
        pos += old.size
    return dataclasses.replace(params, copies=k, **stacks)


def _full_stack_gradient(params, names, batch, mode, alpha, eps, mask, block):
    """Reference numeric gradient at gradient_check's step h: each block, up
    to `block` coordinates of one array, a (2b, n) stack of flat points
    x +- h e_i, scored as _moved_copies."""
    h = objectives.CHECK_STEP
    x = flatten_params(params, names)
    grad = np.zeros(x.size)
    bounds = np.cumsum([0] + [getattr(params, name).size for name in names])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for start in range(lo, hi, block):
            coords = np.arange(start, min(start + block, hi))
            b = coords.size
            points = np.tile(x, (2 * b, 1))
            points[np.arange(b), coords] += h
            points[np.arange(b, 2 * b), coords] -= h
            breakdown, _ = forward_batch(batch, _moved_copies(params, names, points), mode, alpha, eps=eps,
                                         drop_mask=mask)
            grad[coords] = (breakdown.l_total[:b] - breakdown.l_total[b:]) / (2.0 * h)
    return grad


def _numeric_gradient(params, batch, mode, alpha, eps, mask, block):
    """The numeric gradient gradient_check compares against, at oracle block
    size block, as one flat vector over its arrays, and the check's result."""
    seen = []
    real = core.finite_diff_gradient

    def recording(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "FD_BLOCK", block)
        mp.setattr(core, "finite_diff_gradient", recording)
        result = gradient_check(params, batch, mode, alpha, eps, drop_mask=mask)
    numeric = np.concatenate([g.ravel() for g in seen])
    assert len(seen) == len(trainable_names(params, mode)) and result.checked == numeric.size
    return numeric, result


class TestSpanOracleMatchesTheFullStack:
    @settings(max_examples=60, deadline=None)
    @given(
        variant=st.sampled_from(["linear", "scalar", "fixed-mean"]),
        mode=st.sampled_from(["t-mass", "ablation-ce-plus-s", "baseline"]),
        adapters=st.booleans(),
        dropout=st.booleans(),
        block=st.sampled_from([core.FD_BLOCK, 7, 13, 19, 64]),
        seed=st.integers(0, 2**16),
    )
    # fusion_value[31]'s gradient, 1.146e-3, failed rel_tol by a hair at a step of 1e-4
    @example(variant="scalar", mode="t-mass", adapters=True, dropout=False, block=32, seed=2**16)
    def test_numeric_gradient_equals_the_full_stack_formula(self, variant, mode, adapters, dropout, block, seed):
        # d = 6: adapters and fusion maps hold 36 values and linear radius
        # weights 18, so most arrays end in a ragged block
        d, n = 6, 4
        params = randomize(init_model(d, d, 3, variant, seed=seed, adapters_enabled=adapters), seed=seed)
        batch = make_batch(n, d, 5, seed=seed)
        mask = dropout_grid_mask(substream(seed, 7010), n, d, 0.3) if dropout else None
        eps = None if mode == "baseline" else draw_noise(substream(seed, 7011), 2, n, d)
        names = trainable_names(params, mode)
        numeric, result = _numeric_gradient(params, batch, mode, 1.2, eps, mask, block)
        assert np.array_equal(numeric, _full_stack_gradient(params, names, batch, mode, 1.2, eps, mask, block))
        assert result.passed, result.failures[:5]
        grads = backward_batch(forward_batch(batch, params, mode, 1.2, eps=eps, drop_mask=mask)[1])
        analytic = np.concatenate([np.ravel(grads[n]) for n in names])
        reference = gradient_check(params, batch, mode, 1.2, eps, drop_mask=mask)
        assert result == reference
        abs_err = np.abs(analytic - numeric)
        assert result.worst_abs == (float(abs_err.max()) if abs_err.size else 0.0)

    def test_criterion_one_fixture_across_radius_weights_and_log_lambda(self):
        # criterion 1's shape: radius_weights (4 frames x d = 16, 64 values)
        # ends one coordinate before log_lambda, the last flat coordinate;
        # each is walked in blocks of its own
        params = randomize(init_model(16, 8, 4, "linear", seed=2), seed=2)
        batch = make_batch(4, 8, 6, seed=2)
        eps = draw_noise(substream(2, 7011), 1, 4, 16)
        names = trainable_names(params, "t-mass")
        assert names[-2:] == ["radius_weights", "log_lambda"]
        assert params.radius_weights.size == 64
        for block in (core.FD_BLOCK, 24):  # 24: radius_weights ends in a ragged block of 16
            numeric, result = _numeric_gradient(params, batch, "t-mass", 1.2, eps, None, block)
            assert result.passed, result.failures[:5]
            expected = _full_stack_gradient(params, names, batch, "t-mass", 1.2, eps, None, block)
            assert np.array_equal(numeric, expected), block

    def test_each_copy_set_holds_one_array_and_covers_it_once(self, monkeypatch):
        d, n = 6, 4
        params = randomize(init_model(d, d, 3, "linear", seed=6), seed=6)
        batch = make_batch(n, d, 5, seed=6)
        eps = draw_noise(substream(6, 7011), 2, n, d)
        names = trainable_names(params, "t-mass")
        real = objectives.parameter_copies
        moved = {name: [] for name in names}

        def recording(model, name, points):
            copies = real(model, name, points)
            widened = [a for a in all_array_names(params) if getattr(copies, a).ndim > getattr(params, a).ndim]
            assert widened == [name]
            # each row moves exactly one coordinate of the array
            rows, cols = np.nonzero(points != getattr(params, name).ravel())
            assert np.array_equal(rows, np.arange(len(points)))
            moved[name].extend(cols[: len(points) // 2])
            assert np.array_equal(cols[: len(points) // 2], cols[len(points) // 2 :])
            return copies

        monkeypatch.setattr(objectives, "parameter_copies", recording)
        assert gradient_check(params, batch, "t-mass", 1.2, eps).passed
        for name in names:
            assert moved[name] == list(range(getattr(params, name).size)), name


def _gradient_check_trace(params, batch, mode, eps, mask, full):
    """Each array's numeric gradient and each block's copy losses in one
    gradient_check, with the check's result; full drops the copy-free tape
    that gradient_check hands forward_batch, so every block recomputes
    every stage."""
    grads, losses, reused = [], [], []
    real_fd, real_forward = core.finite_diff_gradient, objectives.forward_batch

    def recording_fd(*args, **kwargs):
        grads.append(real_fd(*args, **kwargs))
        return grads[-1]

    def recording_forward(*args, reuse=None, **kwargs):
        reused.append(reuse is not None)
        breakdown, tape = real_forward(*args, reuse=None if full else reuse, **kwargs)
        losses.append(breakdown.l_total)
        return breakdown, tape

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "finite_diff_gradient", recording_fd)
        mp.setattr(objectives, "forward_batch", recording_forward)
        result = gradient_check(params, batch, mode, 1.2, eps, drop_mask=mask)
    # the copy-free forward, then one call per block, each handed its tape
    assert reused == [False] + [True] * (len(reused) - 1) and len(reused) > 1
    return grads, losses, result


class TestStageReuse:
    """gradient_check hands each block its copy-free tape; a stage that no
    copy reaches takes its record from it instead of running again."""

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(["linear", "scalar", "fixed-mean"]),
        mode=st.sampled_from(["t-mass", "ablation-ce-plus-s", "baseline"]),
        adapters=st.booleans(),
        frozen_radius=st.booleans(),
        dropout=st.booleans(),
        degenerate=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_reused_stages_equal_a_full_recompute_bit_for_bit(
        self, variant, mode, adapters, frozen_radius, dropout, degenerate, seed
    ):
        d, n = 6, 4
        params = randomize(init_model(d, d, 3, variant, seed=seed, adapters_enabled=adapters), seed=seed)
        params.radius_trainable = not frozen_radius
        batch = make_batch(n, d, 5, seed=seed)
        mask = dropout_grid_mask(substream(seed, 7010), n, d, 0.3) if dropout else None
        if degenerate:
            degenerate_first_pair(params, batch, mask)
        eps = None if mode == "baseline" else draw_noise(substream(seed, 7011), 2, n, d)
        if degenerate and mode != "baseline":
            with pytest.raises(DegenerateGeometryError, match="^pair 0 has no support direction"):
                gradient_check(params, batch, mode, 1.2, eps, drop_mask=mask)
            return
        grads, losses, result = _gradient_check_trace(params, batch, mode, eps, mask, full=False)
        full_grads, full_losses, full_result = _gradient_check_trace(params, batch, mode, eps, mask, full=True)
        assert len(grads) == len(full_grads) == len(trainable_names(params, mode))
        for got, want in zip(grads, full_grads):
            assert np.array_equal(got, want)
        assert len(losses) == len(full_losses)
        for got, want in zip(losses, full_losses):
            assert np.array_equal(got, want)
        assert result == full_result

    # shapes where OpenBLAS rounds one flattened GEMM of a 3-D input other
    # than the stacked x @ p.T: a stage whose inputs carry no copies runs the
    # stacked product, as the copy-free pass does, so each array's block of
    # copies scores the same bits with the tape as with every stage run again
    @pytest.mark.parametrize("d, n, frames", [(32, 8, 8), (32, 32, 3), (6, 4, 1), (32, 4, 1)])
    @pytest.mark.parametrize("variant", ["linear", "scalar"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reuse_equals_a_full_recompute_where_flat_and_stacked_products_round_apart(self, d, n, frames, variant,
                                                                                       seed):
        params = randomize(init_model(d, d, frames, variant, seed=seed), seed=seed)
        batch = make_batch(n, d, max(frames, 5), seed=seed)
        eps = draw_noise(substream(seed, 7011), 2, n, d)
        _, tape = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        rng = substream(seed, 7012)
        for name in trainable_names(params, "t-mass"):
            x0 = np.ravel(getattr(params, name))
            points = x0 + 1e-3 * rng.standard_normal(2 * core.FD_BLOCK * x0.size).reshape(-1, x0.size)
            copies = parameter_copies(params, name, points)
            reused, _ = forward_batch(batch, copies, "t-mass", 1.2, eps=eps, reuse=tape)
            full, _ = forward_batch(batch, copies, "t-mass", 1.2, eps=eps)
            for term in dataclasses.fields(full):
                assert np.array_equal(getattr(reused, term.name), getattr(full, term.name)), (name, term.name)

    # copies of fusion_out re-run only the output projection and its pooling
    # under the tape's attention, and the mask still falls on the projected grid
    @pytest.mark.parametrize("dropout", [False, True])
    def test_copies_of_fusion_out_equal_their_own_copy_free_passes(self, dropout):
        k, d, n = 2 * core.FD_BLOCK, 6, 4
        params = randomize(init_model(d, d, 3, "linear", seed=12), seed=12)
        batch = make_batch(n, d, 5, seed=12)
        mask = dropout_grid_mask(substream(12, 7010), n, d, 0.3) if dropout else None
        eps = draw_noise(substream(12, 7011), 2, n, d)
        _, tape = forward_batch(batch, params, "t-mass", 1.2, eps=eps, drop_mask=mask)
        x0 = params.fusion_out.ravel()
        points = np.tile(x0, (k, 1)) + 1e-3 * substream(12, 7012).standard_normal(k * x0.size).reshape(k, x0.size)
        copies = parameter_copies(params, "fusion_out", points)
        blocked, reused = forward_batch(batch, copies, "t-mass", 1.2, eps=eps, drop_mask=mask, reuse=tape)
        assert reused.attention is tape.attention and reused.values is tape.values
        assert reused.outputs.shape == (k,) + tape.outputs.shape
        assert_copies_match(blocked, one_at_a_time(params, "fusion_out", points, batch, "t-mass", eps, mask), k)

    @pytest.mark.parametrize("variant", ["linear", "scalar"])
    def test_only_stages_that_copies_reach_run_again(self, monkeypatch, variant):
        d, n = 6, 4
        params = randomize(init_model(d, d, 3, variant, seed=8), seed=8)
        batch = make_batch(n, d, 5, seed=8)
        eps = draw_noise(substream(8, 7011), 2, n, d)

        # whether a stage call has an input with a copy axis: a (k, ...)
        # array, or a parameter array it reads as a stack of copies
        def copies_of(model, *names):
            return any(np.ndim(getattr(model, name)) > np.ndim(getattr(params, name)) for name in names)

        # each stage call's label (a projection is named by its map) and whether it carries copies
        stages = {
            "encode_batch": lambda x, model, tower: (tower, copies_of(model, f"adapter_{tower}")),
            "project": lambda x, model, name: (name, x.ndim == 4 or copies_of(model, name)),
            "attend": lambda texts, keys, model: (
                "attend", texts.ndim == 3 or keys.ndim == 4 or copies_of(model, "fusion_query")
            ),
            "fuse_output": lambda weights, mask, outputs: ("fuse_output", weights.ndim == 4 or outputs.ndim == 4),
            "radius_batch": lambda texts, frames, model: (
                "radius_batch",
                texts.ndim == 3 or frames.ndim == 4 or copies_of(model, "radius_theta", "radius_weights"),
            ),
        }
        block = [None]  # the array whose copies the running pass carries; None: the copy-free pass
        calls = []

        def guarded(name, real):
            def stage(*args):
                calls.append((block[0], *stages[name](*args)))
                return real(*args)

            return stage

        def copying(model, name, points):
            block[0] = name
            return parameter_copies(model, name, points)

        # encode_video_batch looks encode_batch up in encoders
        monkeypatch.setattr(encoders, "encode_batch", guarded("encode_batch", encoders.encode_batch))
        for name in stages:
            monkeypatch.setattr(objectives, name, guarded(name, getattr(objectives, name)))
        monkeypatch.setattr(objectives, "parameter_copies", copying)
        assert gradient_check(params, batch, "t-mass", 1.2, eps).passed

        def run_under(array):
            return sorted(label for copied, label, _ in calls if copied == array)

        everything = ["attend", "frame", "fuse_output", "fusion_key", "fusion_out", "fusion_value", "radius_batch",
                      "text"]
        assert run_under(None) == everything
        assert not any(carried for copied, _, carried in calls if copied is None)
        copy_calls = [call for call in calls if call[0] is not None]
        assert all(carried for _, _, carried in copy_calls), [call for call in copy_calls if not call[2]]
        assert {label for _, label, _ in copy_calls} == set(everything)
        # the stages each array's copies reach: copies of fusion_key run neither
        # the value nor the output projection, and copies of fusion_value run
        # neither the key projection nor the attention
        radius = {"radius_batch"}
        reach = {
            "adapter_text": {"text", "attend", "fuse_output"} | radius,
            "adapter_frame": {"frame", "fusion_key", "fusion_value", "fusion_out", "attend", "fuse_output"} | radius,
            "fusion_query": {"attend", "fuse_output"},
            "fusion_key": {"fusion_key", "attend", "fuse_output"},
            "fusion_value": {"fusion_value", "fusion_out", "fuse_output"},
            "fusion_out": {"fusion_out", "fuse_output"},
            "radius_theta": radius,
            "radius_weights": radius,
            "log_lambda": set(),
        }
        for array in trainable_names(params, "t-mass"):
            assert set(run_under(array)) == reach[array], array


class TestOracleCatchesBrokenBackward:
    @pytest.mark.parametrize(
        "variant,name,entry",
        [("linear", "fusion_out", 0), ("linear", "radius_weights", 5), ("scalar", "radius_theta", 0),
         ("linear", "log_lambda", 0), ("linear", "adapter_frame", 17)],
    )
    def test_one_wrong_entry_is_named(self, monkeypatch, variant, name, entry):
        params = randomize(make_model(variant=variant, seed=3), seed=31)
        batch = make_batch(4, 6, 5, seed=6)
        eps = draw_noise(substream(8, 7008), 1, 4, 8)
        assert gradient_check(params, batch, "t-mass", 1.2, eps).passed
        real = objectives.backward_batch

        def broken(tape):
            grads = real(tape)
            grads[name] = np.array(grads[name], dtype=np.float64)
            grads[name].flat[entry] += 1e-3
            return grads

        monkeypatch.setattr(objectives, "backward_batch", broken)
        result = gradient_check(params, batch, "t-mass", 1.2, eps)
        assert not result.passed
        assert len(result.failures) == 1 and result.failures[0].startswith(f"{name}[{entry}]: ")

    def test_a_non_finite_copy_names_its_coordinate(self, monkeypatch):
        params = randomize(make_model(), seed=43)
        batch = make_batch(3, 6, 5, seed=13)
        eps = draw_noise(substream(18, 7008), 1, 3, 8)
        target = params.fusion_out[2, 3]
        real = objectives.forward_batch

        def poisoned(batch, params, *args, **kwargs):
            breakdown, tape = real(batch, params, *args, **kwargs)
            if params.copies is not None and params.fusion_out.ndim == 3:
                breakdown.l_total[params.fusion_out[:, 2, 3] < target] = np.nan
            return breakdown, tape

        monkeypatch.setattr(objectives, "forward_batch", poisoned)
        with pytest.raises(OracleFailure, match="^non-finite evaluation at coordinate 19 of 'fusion_out'$"):
            gradient_check(params, batch, "t-mass", 1.2, eps)


class TestGradientCheckLeavesParamsAlone:
    def test_a_failing_second_block_leaves_params_unchanged(self, monkeypatch):
        params = randomize(make_model(), seed=44)
        batch = make_batch(3, 6, 5, seed=14)
        eps = draw_noise(substream(19, 7008), 1, 3, 8)
        before = copy.deepcopy(params)
        real = objectives.forward_batch
        blocks = []

        def failing(batch, params, *args, **kwargs):
            if params.copies is not None:
                blocks.append(params.copies)
                if len(blocks) == 2:
                    raise RuntimeError("second block fails")
            return real(batch, params, *args, **kwargs)

        monkeypatch.setattr(objectives, "forward_batch", failing)
        with pytest.raises(RuntimeError, match="second block fails"):
            gradient_check(params, batch, "t-mass", 1.2, eps)
        assert len(blocks) == 2
        for name in all_array_names(params):
            assert np.array_equal(getattr(params, name), getattr(before, name)), name
        assert params.copies is None and params.log_lambda.shape == ()
        assert np.shares_memory(params.log_lambda, params.flat)

    def test_params_never_alias_the_copy_buffers(self, monkeypatch):
        params = randomize(make_model(), seed=45)
        batch = make_batch(3, 6, 5, seed=15)
        eps = draw_noise(substream(20, 7008), 1, 3, 8)
        names = all_array_names(params)
        arrays = {name: getattr(params, name) for name in names}
        real = objectives.forward_batch
        buffers = []

        def recording(batch, model, *args, **kwargs):
            if model.copies is not None:
                buffers.extend(
                    value for name in names
                    if np.ndim(value := getattr(model, name)) > np.ndim(arrays[name])
                )
            return real(batch, model, *args, **kwargs)

        monkeypatch.setattr(objectives, "forward_batch", recording)
        assert gradient_check(params, batch, "t-mass", 1.2, eps).passed
        assert buffers
        for name in names:
            now = getattr(params, name)
            assert np.array_equal(now, arrays[name]), name
            assert not any(np.shares_memory(now, buffer) for buffer in buffers), name
