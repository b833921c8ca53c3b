"""Objective forward values against closed forms and per-item oracles, and
the hand-written backward pass against central finite differences."""

import numpy as np
import pytest

from textmass.core import ContractViolation, DegenerateGeometryError, SeededRng, substream
from textmass.encoders import encode_frames, encode_text, fuse
from textmass.mass import frame_similarities, radius, support_text
from textmass.model import (
    ModelParameters,
    flatten_grads,
    flatten_params,
    get_param,
    init_model,
    trainable_names,
    unflatten_params,
)
from textmass.objectives import (
    PairBatch,
    backward_batch,
    draw_noise,
    dropout_grid_mask,
    forward_batch,
    gradient_check,
    mode_weights,
    symmetric_ce,
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


class TestForwardAgainstModuleOps:
    """The batched pipeline must reproduce the per-item ops it composes."""

    def setup_method(self):
        self.params = randomize(make_model(d=8, c=6, frames=3, variant="linear"))
        self.batch = make_batch(n=3, c=6, t_raw=5, seed=1)
        self.eps = draw_noise(substream(1, 7004), 1, 3, 8)
        self.breakdown, self.cache = forward_batch(
            self.batch, self.params, "t-mass", 1.2, eps=self.eps
        )

    def test_text_embeddings(self):
        for i in range(3):
            oracle = encode_text(self.batch.text[i], self.params.stack)
            assert np.allclose(self.cache.text_emb[i], oracle, atol=1e-12)

    def test_frame_embeddings(self):
        for i in range(3):
            oracle = encode_frames(self.batch.videos[i], 3, self.params.stack)
            assert np.allclose(self.cache.frame_emb[i], oracle, atol=1e-12)

    def test_fused_grid(self):
        for i in range(3):
            for j in range(3):
                oracle = fuse(self.cache.frame_emb[j], self.cache.text_emb[i], self.params.fusion)
                assert np.allclose(self.cache.fused[i, j], oracle, atol=1e-12)

    def test_frame_similarities_and_radius(self):
        sims_f = self.cache.frame_sims[0]
        for i in range(3):
            oracle = frame_similarities(self.cache.text_emb[i], self.cache.frame_emb[i])
            assert np.allclose(sims_f[i], oracle, atol=1e-12)
            assert np.allclose(
                self.cache.radius_grid[i], radius(oracle, self.params.radius), atol=1e-12
            )

    def test_shifted_text_is_reparameterized_sample(self):
        expected = self.cache.text_emb + self.cache.radius_grid * self.eps[0]
        assert np.array_equal(self.cache.stochastic[0], expected)

    def test_support_rows(self):
        for pos, i in enumerate(np.flatnonzero(self.cache.valid)):
            oracle = support_text(
                self.cache.text_emb[i], self.cache.fused[i, i], self.cache.radius_grid[i]
            )
            assert np.allclose(self.cache.support_rows[pos], oracle, atol=1e-12)

    def test_ce_grid_matches_cosine(self):
        from textmass.core import cosine_similarity

        ce_sims = self.cache.ce_grid[0]
        for i in range(3):
            for j in range(3):
                oracle = cosine_similarity(self.cache.text_emb[i], self.cache.fused[i, j])
                assert abs(ce_sims[i, j] - oracle) <= 1e-12

    def test_diagnostic_ce_matches_public_op(self):
        ce_sims = self.cache.ce_grid[0]
        l_t2v, l_v2t, l_ce = symmetric_ce(ce_sims, self.params.log_lambda)
        assert abs(self.breakdown.l_ce - l_ce) <= 1e-12
        assert abs(self.breakdown.l_t2v - l_t2v) <= 1e-12
        assert abs(self.breakdown.l_v2t - l_v2t) <= 1e-12


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
        b, cache = forward_batch(batch, params, "baseline")
        assert b.l_total == b.l_ce
        assert b.l_s is None and b.l_sup is None
        assert cache.radius_grid is None and cache.eps is None

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


class TestNoiseHelpers:
    def test_draw_noise_prefix_nesting(self):
        wide = draw_noise(substream(5, 7005), 4, 3, 8)
        narrow = draw_noise(substream(5, 7005), 2, 3, 8)
        assert np.array_equal(wide[:2], narrow)

    def test_dropout_mask_values(self):
        mask = dropout_grid_mask(substream(6, 7005), 4, 8, 0.25)
        assert mask.shape == (4, 4, 8)
        scaled = 1.0 / 0.75
        assert set(np.unique(mask)) <= {0.0, scaled}

    def test_dropout_mask_off(self):
        assert dropout_grid_mask(substream(6, 7005), 4, 8, 0.0) is None
        with pytest.raises(ContractViolation):
            dropout_grid_mask(substream(6, 7005), 4, 8, 1.0)


class TestDegenerateSupport:
    def test_all_degenerate_batch_raises(self):
        # Force video == text by an identity-ish model on a single pair with
        # the video frames all equal to the text feature.
        params = make_model(d=8, c=8, frames=2)
        # identity projections make embeddings equal for equal raw features
        params.stack.proj_text = np.eye(8)
        params.stack.proj_frame = np.eye(8)
        feat = substream(7, 7006).standard_normal(8)
        batch = PairBatch(text=feat[None, :], videos=np.stack([np.stack([feat, feat])]))
        eps = draw_noise(substream(7, 7007), 1, 1, 8)
        with pytest.raises(DegenerateGeometryError):
            forward_batch(batch, params, "t-mass", 1.2, eps=eps)


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
        params.radius.trainable = False
        batch = make_batch(3, 6, 5, seed=9)
        eps = draw_noise(substream(14, 7008), 1, 3, 8)
        names = trainable_names(params, "t-mass")
        assert "radius_theta" not in names
        result = gradient_check(params, batch, "t-mass", 1.2, eps)
        assert result.passed, result.failures[:5]

    def test_clamped_scale_kills_scale_gradient(self):
        params = randomize(make_model(), seed=35)
        params.log_lambda = float(np.log(500.0))
        batch = make_batch(3, 6, 5, seed=10)
        eps = draw_noise(substream(15, 7008), 1, 3, 8)
        _, cache = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        grads = backward_batch(cache)
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
        _, cache1 = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        _, cache2 = forward_batch(batch, params, "t-mass", 1.2, eps=eps)
        g1 = flatten_grads(backward_batch(cache1), names)
        g2 = flatten_grads(backward_batch(cache2), names)
        assert np.array_equal(g1, g2)


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

    def test_frozen_projections_reject_assignment(self):
        from textmass.model import set_param

        params = make_model()
        with pytest.raises(ContractViolation):
            set_param(params, "proj_text", np.eye(8, 6))

    def test_scalar_params_round_trip_as_zero_d(self):
        params = make_model(variant="scalar")
        theta = get_param(params, "radius_theta")
        assert theta.shape == ()
        assert isinstance(params.radius.theta, float)
