import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textmass.core import (
    FD_BLOCK,
    ContractViolation,
    OracleFailure,
    SeededRng,
    box_muller,
    cosine_similarity,
    finite_diff_gradient,
    softmax,
    stacked_uniforms,
    stream_key,
    substream,
)

_U64 = 2**64 - 1


def _unmix(z: int) -> int:
    """Inverse of stream_key's splitmix64 finalizer."""
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & _U64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _U64
    return z ^ (z >> 30) ^ (z >> 60)


def part_for_stream(stream: int) -> int:
    """The part p with stream_key(p, 0) == stream."""
    golden = 0x9E3779B97F4A7C15
    return (_unmix((_unmix(stream) - golden) & _U64) - golden) & _U64


finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=8
)


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        # denominator guard keeps this a hair under 1.0
        s = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert abs(s - 1.0) <= 1e-9

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_analytic_45_degrees(self):
        s = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert abs(s - np.sqrt(2.0) / 2.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            cosine_similarity(np.zeros(3), np.zeros(4))

    def test_zero_vector_guard(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    @given(finite_vectors, finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, a, b):
        n = min(len(a), len(b))
        a, b = np.array(a[:n]), np.array(b[:n])
        assert abs(cosine_similarity(a, b) - cosine_similarity(b, a)) <= 1e-12

    @given(
        finite_vectors,
        st.floats(min_value=1e-2, max_value=1e2, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariant(self, a, c):
        a = np.array(a)
        if np.linalg.norm(a) < 1.0:  # guard term dominates degenerate norms
            a = a + 1.0
        b = np.arange(1.0, a.size + 1.0)
        assert abs(cosine_similarity(c * a, b) - cosine_similarity(a, b)) <= 1e-9

    def test_clamped_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.normal(size=5), rng.normal(size=5)
            assert -1.0 <= cosine_similarity(a, b) <= 1.0


class TestSoftmax:
    def test_uniform_logits(self):
        for c in (-3.0, 0.0, 17.5):
            np.testing.assert_allclose(softmax(np.full(3, c)), 1.0 / 3.0, atol=1e-12)

    def test_analytic_two_class(self):
        p = softmax(np.array([0.0, np.log(2.0)]))
        np.testing.assert_allclose(p, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_overflow_safe(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] > 1.0 - 1e-12 and p[1] < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            softmax(np.array([]))

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_probability_vector(self, logits):
        p = softmax(np.array(logits))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariant(self, logits):
        x = np.array(logits)
        np.testing.assert_allclose(softmax(x), softmax(x + 11.25), atol=1e-12)


class TestSeededRng:
    def test_replay_bit_exact(self):
        a = SeededRng(42, 3).standard_normal(64)
        b = SeededRng(42, 3).standard_normal(64)
        assert np.array_equal(a, b)

    def test_substreams_swap_exactly(self):
        a1 = SeededRng(9, 1).standard_normal(16)
        b1 = SeededRng(9, 2).standard_normal(16)
        # Re-draw with stream ids swapped: outputs swap with no cross-talk.
        b2 = SeededRng(9, 2).standard_normal(16)
        a2 = SeededRng(9, 1).standard_normal(16)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)
        assert not np.array_equal(a1, b1)

    def test_prefix_property(self):
        r1 = SeededRng(5, 0).standard_normal(33)
        r2 = SeededRng(5, 0).standard_normal(80)
        assert np.array_equal(r1, r2[:33])

    def test_gaussian_moments_monte_carlo(self):
        n = 10**5
        z = SeededRng(2024, 0).standard_normal(n)
        assert abs(z.mean()) <= 5.0 / np.sqrt(n)
        assert abs(z.std() - 1.0) <= 0.02

    def test_sample_gaussian_determinism(self):
        a = SeededRng(1, 7).standard_normal(12)
        b = SeededRng(1, 7).standard_normal(12)
        assert np.array_equal(a, b)
        with pytest.raises(ContractViolation):
            SeededRng(1, 7).standard_normal(0)

    def test_permutation_is_permutation(self):
        p = SeededRng(3, 0).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    def test_stream_key_distinct(self):
        keys = {stream_key(a, b) for a in range(20) for b in range(20)}
        assert len(keys) == 400
        assert stream_key(1, 2) != stream_key(2, 1)

    def test_substream_helper(self):
        a = substream(11, 4, 5).standard_normal(8)
        b = SeededRng(11, stream_key(4, 5)).standard_normal(8)
        assert np.array_equal(a, b)


class TestStackedUniforms:
    """stacked_uniforms re-implements numpy's SeedSequence hash and PCG64
    seeding, whose constants are numpy internals: these tests are the
    guard that fails before any sampled score drifts."""

    @given(
        seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, _U64]), st.integers(0, _U64)),
        parts=st.lists(st.integers(0, _U64), max_size=3),
        low_stream=st.none() | st.integers(0, 2**32 - 1),
        count=st.integers(1, 5),
        width=st.integers(1, 700),
    )
    @example(seed=0, parts=[301, 0], low_stream=None, count=3, width=640)
    @example(seed=0, parts=[], low_stream=0, count=2, width=7)
    @example(seed=2**32, parts=[], low_stream=5, count=2, width=700)
    @example(seed=2**32, parts=[], low_stream=2**32 - 1, count=1, width=1)
    @example(seed=_U64, parts=[_U64], low_stream=None, count=4, width=699)
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_seeded_rng(self, seed, parts, low_stream, count, width):
        if low_stream is not None:
            # row 0's stream id fits in one u32 word
            parts = [part_for_stream(low_stream)]
            assert stream_key(*parts, 0) == low_stream
        got = stacked_uniforms(seed, tuple(parts), count, width)
        assert got.shape == (count, width)
        for c in range(count):
            want = SeededRng(seed, stream_key(*parts, c)).uniform(width)
            assert np.array_equal(got[c], want)

    def test_fills_and_returns_out(self):
        out = np.full((3, 8), np.nan)
        assert stacked_uniforms(4, (2,), 3, 8, out) is out
        assert np.array_equal(out[2], substream(4, 2, 2).uniform(8))

    @pytest.mark.parametrize(
        "out",
        [np.empty((3, 9)), np.empty((3, 8), dtype=np.float32), np.empty((8, 3)).T],
        ids=["shape", "dtype", "strides"],
    )
    def test_bad_out_rejected(self, out):
        with pytest.raises(ContractViolation):
            stacked_uniforms(4, (2,), 3, 8, out)


class TestBoxMuller:
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        stream=st.integers(min_value=0, max_value=2**64 - 1),
        rows=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=700),
        in_place=st.booleans(),
    )
    @example(seed=0, stream=0, rows=3, n=1, in_place=False)
    @example(seed=0, stream=0, rows=3, n=7, in_place=True)
    @example(seed=0, stream=0, rows=3, n=640, in_place=False)
    @example(seed=0, stream=0, rows=3, n=641, in_place=True)
    @settings(max_examples=60, deadline=None)
    def test_stacked_rows_equal_per_stream_draws(self, seed, stream, rows, n, in_place):
        width = 2 * ((n + 1) // 2)
        streams = [(stream + k) % 2**64 for k in range(rows)]
        u = np.stack([SeededRng(seed, s).uniform(width) for s in streams])
        z = box_muller(u, out=u if in_place else None)
        for k, s in enumerate(streams):
            assert np.array_equal(z[k, :n], SeededRng(seed, s).standard_normal(n))

    def test_odd_width_rejected(self):
        with pytest.raises(ContractViolation):
            box_muller(np.zeros((2, 5)))


def _recording(f):
    """f, recording the stack of points of every call."""
    calls = []

    def wrapped(points):
        calls.append(points.copy())
        return f(points)

    return wrapped, calls


def _cubic(points):
    """sum_i c_i x_i^3 per point, c_i = i + 1."""
    return np.sum(np.arange(1, points.shape[1] + 1) * points**3, axis=1)


class TestFiniteDiffGradient:
    def test_quadratic(self):
        g = finite_diff_gradient(lambda xs: xs[:, 0] ** 2, np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-6

    def test_constant(self):
        g = finite_diff_gradient(lambda xs: np.full(len(xs), 4.25), np.ones(5))
        np.testing.assert_allclose(g, 0.0, atol=1e-8)

    def test_quadratic_form_matches_2Ax(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        a = 0.5 * (m + m.T)
        x = rng.normal(size=4)
        g = finite_diff_gradient(lambda vs: np.sum((vs @ a) * vs, axis=1), x)
        np.testing.assert_allclose(g, 2.0 * a @ x, atol=1e-5)

    def test_nonfinite_reported(self):
        with pytest.raises(OracleFailure, match="^non-finite evaluation at coordinate 0$"), \
                np.errstate(invalid="ignore"):
            finite_diff_gradient(lambda xs: np.log(xs[:, 0]), np.array([0.0]), h=1.0)

    def test_nonfinite_in_a_later_block_names_its_coordinate(self):
        bad = FD_BLOCK + 2
        x = np.ones(FD_BLOCK + 5)
        x[bad] = 0.0
        with pytest.raises(OracleFailure, match=f"^non-finite evaluation at coordinate {bad}$"), \
                np.errstate(invalid="ignore"):
            finite_diff_gradient(lambda xs: np.sum(np.log(xs + 0.5), axis=1), x, h=1.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ContractViolation):
            finite_diff_gradient(lambda xs: np.zeros(len(xs)), np.zeros(2), h=0.0)

    def test_callback_must_give_one_value_per_point(self):
        with pytest.raises(ContractViolation):
            finite_diff_gradient(lambda xs: np.zeros(1), np.zeros(3))

    def test_single_coordinate_is_one_call_of_two_points(self):
        f, calls = _recording(_cubic)
        g = finite_diff_gradient(f, np.array([0.5]), h=1e-4)
        assert [c.shape for c in calls] == [(2, 1)]
        assert calls[0][0, 0] == 0.5 + 1e-4 and calls[0][1, 0] == 0.5 - 1e-4
        assert abs(g[0] - 0.75) <= 1e-7

    def test_ragged_last_block_matches_per_coordinate_differences(self):
        n = 2 * FD_BLOCK + 3
        x = substream(3, 7100).standard_normal(n)
        f, calls = _recording(_cubic)
        g = finite_diff_gradient(f, x, h=1e-4)
        assert [c.shape for c in calls] == [(2 * FD_BLOCK, n)] * 2 + [(6, n)]
        # the points are x +- h e_i built one coordinate at a time, and each
        # partial is their difference quotient, bit for bit
        points = np.concatenate([np.concatenate([c[: len(c) // 2], c[len(c) // 2 :]], axis=1)
                                 for c in calls]).reshape(n, 2, n)
        expected = np.empty(n)
        for i in range(n):
            xp, xm = x.copy(), x.copy()
            xp.flat[i] += 1e-4
            xm.flat[i] -= 1e-4
            assert np.array_equal(points[i, 0], xp) and np.array_equal(points[i, 1], xm)
            fp, fm = _cubic(xp[None])[0], _cubic(xm[None])[0]
            expected[i] = (fp - fm) / (2.0 * 1e-4)
        assert np.array_equal(g, expected)
        # the central difference of c x^3 errs by c h^2
        np.testing.assert_allclose(g, 3.0 * np.arange(1, n + 1) * x**2, rtol=0, atol=n * 1e-8 * 1.01)

    def test_gradient_keeps_the_shape_of_x(self):
        x = np.arange(6.0).reshape(2, 3)
        g = finite_diff_gradient(lambda xs: np.sum(xs**2, axis=(1, 2)), x)
        assert g.shape == (2, 3)
        np.testing.assert_allclose(g, 2.0 * x, atol=1e-6)
