import numpy as np
import pytest

from textmass.core import ContractViolation, substream
from textmass.encoders import (
    EncoderStack,
    FusionParameters,
    encode_frames,
    encode_text,
    fuse,
    init_encoder_stack,
    init_fusion,
    sample_frame_indices,
)


def make_stack(d=8, c=5, seed=3):
    return init_encoder_stack(d, c, substream(seed, 0))


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
        self.p = init_fusion(8)
        rng = np.random.default_rng(4)
        self.p.query_map = rng.normal(size=(8, 8)) * 0.3 + np.eye(8)
        self.p.key_map = rng.normal(size=(8, 8)) * 0.3 + np.eye(8)
        self.p.value_map = rng.normal(size=(8, 8)) * 0.3 + np.eye(8)
        self.p.output_map = rng.normal(size=(8, 8)) * 0.3 + np.eye(8)
        self.frames = encode_frames(rng.normal(size=(6, 5)), 6, self.stack)
        self.t = encode_text(rng.normal(size=5), self.stack)

    def test_single_frame_ignores_attention(self):
        out = fuse(self.frames[:1], self.t, self.p)
        expect = self.p.output_map @ (self.p.value_map @ self.frames[0])
        np.testing.assert_allclose(out, expect / np.linalg.norm(expect), atol=1e-12)

    def test_identical_frames_collapse(self):
        rep = np.tile(self.frames[2], (5, 1))
        np.testing.assert_allclose(
            fuse(rep, self.t, self.p), fuse(rep[:1], self.t, self.p), atol=1e-12
        )

    def test_matches_step_oracle(self):
        # independent step-by-step recomputation
        d = 8
        q = self.p.query_map @ self.t
        logits = np.array([q @ (self.p.key_map @ f) for f in self.frames]) / np.sqrt(d)
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        pooled = sum(wi * (self.p.value_map @ f) for wi, f in zip(w, self.frames))
        expect = self.p.output_map @ pooled
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


class TestReproducibility:
    def test_stack_init_reproducible(self):
        a = make_stack(seed=17)
        b = make_stack(seed=17)
        assert np.array_equal(a.proj_text, b.proj_text)
        assert np.array_equal(a.proj_frame, b.proj_frame)
        assert np.array_equal(a.adapter_text, np.eye(8))
