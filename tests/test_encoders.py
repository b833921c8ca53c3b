import numpy as np
import pytest

from textmass.core import FD_BLOCK, ContractViolation
from textmass.encoders import _pooled, _product, attend, encode_batch, fuse_output, project, sample_frame_indices
from textmass.model import init_model, restore_param

from oracle import encode_frames, encode_text, fuse


def make_stack(d=8, c=5, seed=3):
    return init_model(d, c, 6, seed=seed)


def oracle_encode(features, proj, adapter):
    # straight-line reimplementation: project, adapt, normalize
    y = adapter @ (proj @ features)
    return y / np.linalg.norm(y)


class TestEncodeText:
    def test_zero_features_rejected(self):
        stack = make_stack()
        with pytest.raises(ContractViolation):
            encode_text(np.zeros(5), stack)

    def test_basis_vector_identity_adapter(self):
        stack = make_stack()
        e1 = np.zeros(5)
        e1[0] = 1.0
        out = encode_text(e1, stack)
        col = stack.proj_text[:, 0]
        np.testing.assert_allclose(out, col / np.linalg.norm(col), atol=1e-12)

    def test_matches_oracle(self):
        stack = make_stack()
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=5)
            np.testing.assert_allclose(
                encode_text(x, stack),
                oracle_encode(x, stack.proj_text, stack.adapter_text),
                atol=1e-12,
            )

    def test_unit_norm(self):
        stack = make_stack()
        rng = np.random.default_rng(5)
        for _ in range(50):
            out = encode_text(rng.normal(size=5), stack)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            encode_text(np.ones(4), make_stack())


class TestEncodeBatch:
    # the one check of a feature width against the model: a width-4 text
    # used to reach numpy's matmul and die with its ValueError
    @pytest.mark.parametrize("tower, shape", [("text", (3, 4)), ("frame", (3, 2, 7))])
    def test_another_width_is_refused_naming_the_tower_and_both_widths(self, tower, shape):
        message = f"^{tower} features have width {shape[-1]} but the model's concept_dim is 5$"
        with pytest.raises(ContractViolation, match=message):
            encode_batch(np.ones(shape), make_stack(), tower)

    @pytest.mark.parametrize("tower", ["text", "frame"])
    def test_all_zero_features_are_refused(self, tower):
        with pytest.raises(ContractViolation, match=f"^{tower} embedding collapsed to zero norm$"):
            encode_batch(np.zeros((3, 5)), make_stack(), tower)


class TestEncodeFrames:
    def test_identity_sampling(self):
        assert sample_frame_indices(6, 6).tolist() == [0, 1, 2, 3, 4, 5]

    def test_even_stride(self):
        assert sample_frame_indices(24, 12).tolist() == list(range(0, 24, 2))

    def test_too_few_frames(self):
        with pytest.raises(ContractViolation):
            sample_frame_indices(3, 4)

    def test_matches_per_frame_oracle(self):
        stack = make_stack()
        rng = np.random.default_rng(2)
        video = rng.normal(size=(10, 5))
        out = encode_frames(video, 4, stack)
        for row, idx in zip(out, sample_frame_indices(10, 4)):
            np.testing.assert_allclose(
                row, oracle_encode(video[idx], stack.proj_frame, stack.adapter_frame), atol=1e-12
            )


class TestFuse:
    def setup_method(self):
        self.stack = make_stack()
        self.p = self.stack
        rng = np.random.default_rng(4)
        for name in ("fusion_query", "fusion_key", "fusion_value", "fusion_out"):
            restore_param(self.p, name, rng.normal(size=(8, 8)) * 0.3 + np.eye(8))
        self.frames = encode_frames(rng.normal(size=(6, 5)), 6, self.stack)
        self.t = encode_text(rng.normal(size=5), self.stack)

    def test_single_frame_ignores_attention(self):
        out = fuse(self.frames[:1], self.t, self.p)
        expect = self.p.fusion_out @ (self.p.fusion_value @ self.frames[0])
        np.testing.assert_allclose(out, expect / np.linalg.norm(expect), atol=1e-12)

    def test_identical_frames_collapse(self):
        rep = np.tile(self.frames[2], (5, 1))
        np.testing.assert_allclose(
            fuse(rep, self.t, self.p), fuse(rep[:1], self.t, self.p), atol=1e-12
        )

    def test_matches_step_oracle(self):
        # independent step-by-step recomputation
        d = 8
        q = self.p.fusion_query @ self.t
        logits = np.array([q @ (self.p.fusion_key @ f) for f in self.frames]) / np.sqrt(d)
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        pooled = sum(wi * (self.p.fusion_value @ f) for wi, f in zip(w, self.frames))
        expect = self.p.fusion_out @ pooled
        expect = expect / np.linalg.norm(expect)
        np.testing.assert_allclose(fuse(self.frames, self.t, self.p), expect, atol=1e-12)

    def test_eval_mode_deterministic(self):
        a = fuse(self.frames, self.t, self.p)
        b = fuse(self.frames, self.t, self.p)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        assert abs(np.linalg.norm(fuse(self.frames, self.t, self.p)) - 1.0) <= 1e-9

    def test_permuting_identical_frames_invariant(self):
        rng = np.random.default_rng(9)
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            fuse(self.frames, self.t, self.p),
            fuse(self.frames[perm], self.t, self.p),
            atol=1e-12,
        )


class TestFuseBatch:
    def test_a_mis_shaped_drop_mask_is_refused(self):
        stack = make_stack()
        rng = np.random.default_rng(4)
        texts = encode_batch(rng.normal(size=(3, 5)), stack, "text").emb
        frames = encode_batch(rng.normal(size=(2, 4, 5)), stack, "frame").emb
        weights = attend(texts, project(frames, stack, "fusion_key"), stack).weights
        outputs = project(project(frames, stack, "fusion_value"), stack, "fusion_out")
        assert fuse_output(weights, np.ones((3, 2, 8)), outputs).fused.shape == (3, 2, 8)
        with pytest.raises(ContractViolation, match="^dropout mask shape mismatch$"):
            fuse_output(weights, np.ones((2, 3, 8)), outputs)

    def test_a_fused_vector_of_zero_norm_is_refused(self):
        stack = make_stack()
        restore_param(stack, "fusion_out", np.zeros((8, 8)))
        rng = np.random.default_rng(6)
        texts = encode_batch(rng.normal(size=(2, 5)), stack, "text").emb
        frames = encode_batch(rng.normal(size=(2, 4, 5)), stack, "frame").emb
        weights = attend(texts, project(frames, stack, "fusion_key"), stack).weights
        outputs = project(project(frames, stack, "fusion_value"), stack, "fusion_out")
        with pytest.raises(ContractViolation, match="^fused video embedding collapsed to zero norm$"):
            fuse_output(weights, None, outputs)

    def test_outputs_are_the_projected_values_and_the_grid_matches_the_oracle(self):
        stack = make_stack()
        rng = np.random.default_rng(5)
        for name in ("fusion_query", "fusion_key", "fusion_value", "fusion_out"):
            restore_param(stack, name, rng.normal(size=(8, 8)) * 0.3 + np.eye(8))
        texts = encode_batch(rng.normal(size=(3, 5)), stack, "text").emb
        frames = encode_batch(rng.normal(size=(4, 6, 5)), stack, "frame").emb
        values = project(frames, stack, "fusion_value")
        outputs = project(values, stack, "fusion_out")
        assert np.array_equal(outputs, np.stack([v @ stack.fusion_out.T for v in values]))
        weights = attend(texts, project(frames, stack, "fusion_key"), stack).weights
        fused = fuse_output(weights, None, outputs).fused
        for i in range(3):
            for j in range(4):
                np.testing.assert_allclose(fused[i, j], fuse(frames[j], texts[i], stack), atol=1e-12)


class TestReproducibility:
    def test_stack_init_reproducible(self):
        a = make_stack(seed=17)
        b = make_stack(seed=17)
        assert np.array_equal(a.proj_text, b.proj_text)
        assert np.array_equal(a.proj_frame, b.proj_frame)
        assert np.array_equal(a.adapter_text, np.eye(8))


# the copy count of one gradient_check block: the +h and -h points of FD_BLOCK coordinates
ORACLE_COPIES = 2 * FD_BLOCK


def assert_matches(got, want):
    """Equal up to roundoff of the summation order, relative to the largest entry."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


class TestProducts:
    """`_product` and `_pooled` against one plain product per copy."""

    # a copy set holds one array, so copies reach the map or the input, never both
    @pytest.mark.parametrize("lead", [(5,), (4, 3)])  # texts (m, d) and frames (n, T', d)
    @pytest.mark.parametrize("side", ["map", "input"])
    def test_copies_equal_one_product_per_copy(self, lead, side):
        rng = np.random.default_rng(21)
        k, d = ORACLE_COPIES, 6
        x = rng.standard_normal(((k,) if side == "input" else ()) + lead + (d,))
        p = rng.standard_normal(((k,) if side == "map" else ()) + (d + 1, d))
        got = _product(x, p, side == "input")
        want = np.stack([(x[c] if side == "input" else x) @ (p[c] if side == "map" else p).T for c in range(k)])
        assert_matches(got, want)
        assert got.flags.c_contiguous

    # both: adapter_frame's copies reach the attention weights and the values
    @pytest.mark.parametrize("side", ["weights", "values", "both"])
    def test_pooled_copies_equal_one_product_per_copy_and_video(self, side):
        rng = np.random.default_rng(22)
        k, m, n, frames, d = ORACLE_COPIES, 4, 3, 5, 6
        weights = rng.random(((k,) if side != "values" else ()) + (m, n, frames))
        values = rng.standard_normal(((k,) if side != "weights" else ()) + (n, frames, d))
        got = _pooled(weights, values)
        w = np.broadcast_to(weights, (k, m, n, frames))
        v = np.broadcast_to(values, (k, n, frames, d))
        want = np.array([[[w[c, i, j] @ v[c, j] for j in range(n)] for i in range(m)] for c in range(k)])
        assert_matches(got, want)
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("queries", [1, 7])
    def test_without_copies_the_stacked_product_is_untouched(self, queries):
        # inference's block shapes: texts (k, 1, d) against shared maps, keys
        # (n * T', d) and values (n, T', d); its per-query bits rest on them
        rng = np.random.default_rng(23)
        d, n, frames = 8, 5, 3
        texts = rng.standard_normal((queries, 1, d))
        p = rng.standard_normal((d, d))
        keys = rng.standard_normal((n * frames, d))
        assert np.array_equal(_product(texts, p, False), texts @ p.T)
        assert np.array_equal(_product(texts, keys, False), texts @ keys.T)
        weights = rng.random((queries, 1, n, frames))
        values = rng.standard_normal((n, frames, d))
        stacked = np.matmul(weights.swapaxes(-3, -2), values).swapaxes(-3, -2)
        assert np.array_equal(_pooled(weights, values), stacked)
