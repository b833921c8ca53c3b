import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textmass import core
from textmass.core import (
    FD_BLOCK,
    ContractViolation,
    OracleFailure,
    SeededRng,
    box_muller,
    check_finite,
    finite_diff_gradient,
    grid_normals,
    row_max,
    row_norms,
    row_sums,
    stream_key,
    stream_rngs,
    stream_uniforms,
    substream,
)
from textmass.dataset import SyntheticSpec, generate

from oracle import box_muller_trig, cosine_similarity, pcg64_srandom, pcg64_words

_U64 = 2**64 - 1


def _unmix(z: int) -> int:
    """Inverse of stream_key's splitmix64 finalizer."""
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & _U64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _U64
    return z ^ (z >> 30) ^ (z >> 60)


def part_for_stream(stream: int, zeros: int = 1) -> int:
    """The part p with stream_key(p, *[0] * zeros) == stream."""
    golden = 0x9E3779B97F4A7C15
    for _ in range(zeros + 1):
        stream = (_unmix(stream) - golden) & _U64
    return stream


def swap_state_words(monkeypatch, request):
    """Derive every PCG64 state with its 128-bit words high half first, as
    a numpy build whose struct differs from this one's would lay them out,
    and make the next sampled call check the layout again."""
    derive = core._pcg64_states
    monkeypatch.setattr(
        core, "_pcg64_states", lambda seed, streams: derive(seed, streams)[:, [1, 0, 3, 2]].copy()
    )
    core._check_pcg64_layout.cache_clear()
    request.addfinalizer(core._check_pcg64_layout.cache_clear)


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

    @pytest.mark.parametrize("n", [1, 2, 33, 64])
    def test_standard_normal_is_box_muller_of_its_uniforms(self, n):
        # Box-Muller runs in place on the fresh uniforms
        want = box_muller(SeededRng(8, 4).uniform(2 * ((n + 1) // 2)))[:n]
        assert SeededRng(8, 4).standard_normal(n).tobytes() == want.tobytes()

    def test_substream_helper(self):
        a = substream(11, 4, 5).standard_normal(8)
        b = SeededRng(11, stream_key(4, 5)).standard_normal(8)
        assert np.array_equal(a, b)


u64_words = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, _U64 - 1, _U64]), st.integers(0, _U64))
# streams whose low u32 word is all ones, or that fit in that one word
edge_streams = st.integers(0, 2**32 - 1).flatmap(
    lambda hi: st.sampled_from([(hi << 32) | 0xFFFFFFFF, hi])
)


class TestPcg64States:
    """The uint64-limb seeding against the Python-int derivation of
    tests/oracle.py, carry edges included."""

    @given(st.lists(st.tuples(u64_words, u64_words, u64_words, u64_words), min_size=1, max_size=8))
    @example([(_U64, _U64, _U64, _U64), (0, 0, 0, 0), (0, _U64, 0, _U64), (_U64, 0, 2**63, 0)])
    @settings(max_examples=200, deadline=None)
    def test_limb_seeding_equals_big_ints(self, rows):
        columns = [np.array(column, dtype=np.uint64) for column in zip(*rows)]
        got = core._pcg64_srandom(*columns).tolist()
        for (a, b, c, d), words in zip(rows, got):
            state, inc = pcg64_srandom((a << 64) | b, (c << 64) | d)
            assert words == [state & _U64, state >> 64, inc & _U64, inc >> 64]

    @given(
        seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, _U64]), st.integers(0, _U64)),
        streams=st.lists(st.one_of(edge_streams, st.integers(0, _U64)), min_size=1, max_size=8),
    )
    @example(seed=0, streams=[0, 2**32 - 1, _U64])
    @example(seed=_U64, streams=[2**32 - 1, (2**32 - 1) << 32 | (2**32 - 1)])
    @settings(max_examples=100, deadline=None)
    def test_state_words_equal_oracle(self, seed, streams):
        got = core._pcg64_states(seed, np.array(streams, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.shape == (len(streams), 4) and got.flags.c_contiguous
        assert got.tolist() == [pcg64_words(seed, s) for s in streams]

    @pytest.mark.parametrize("seed, stream", [(0, 0), (2**32, 2**32 - 1), (_U64, _U64)])
    def test_oracle_is_numpys_own_state(self, seed, stream):
        lo, hi, inc_lo, inc_hi = pcg64_words(seed, stream)
        state = SeededRng(seed, stream)._gen.bit_generator.state["state"]
        assert state == {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}


class TestGridNormals:
    """grid_normals re-implements numpy's SeedSequence hash and PCG64
    seeding, whose constants are numpy internals, and writes each state
    into numpy's PCG64 struct: these tests are the guard that fails before
    any sampled score drifts."""

    @given(
        seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, _U64]), st.integers(0, _U64)),
        parts=st.lists(st.integers(0, _U64), max_size=3),
        low_stream=st.none() | st.integers(0, 2**32 - 1),
        queries=st.integers(1, 3),
        count=st.integers(1, 5),
        n=st.integers(1, 700),
        block_rows=st.sampled_from([1, 2, 3, 7, core.STATE_BLOCK_ROWS]),
    )
    @example(seed=0, parts=[301], low_stream=None, queries=1, count=3, n=640, block_rows=2048)
    @example(seed=0, parts=[], low_stream=0, queries=1, count=2, n=7, block_rows=2048)
    @example(seed=2**32, parts=[], low_stream=5, queries=1, count=2, n=700, block_rows=2048)
    @example(seed=2**32, parts=[], low_stream=2**32 - 1, queries=1, count=1, n=1, block_rows=2048)
    @example(seed=_U64, parts=[_U64], low_stream=None, queries=1, count=4, n=699, block_rows=2048)
    # blocks of 2 queries and a partial last block of 1; queries wider than a block
    @example(seed=3, parts=[301], low_stream=None, queries=3, count=2, n=9, block_rows=4)
    @example(seed=3, parts=[301], low_stream=None, queries=3, count=5, n=9, block_rows=3)
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_seeded_rng(self, seed, parts, low_stream, queries, count, n, block_rows):
        if low_stream is not None:
            # row (0, 0)'s stream id fits in one u32 word
            parts = [part_for_stream(low_stream, zeros=2)]
            assert stream_key(*parts, 0, 0) == low_stream
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "STATE_BLOCK_ROWS", block_rows)
            grid = [rows.copy() for rows in grid_normals(seed, tuple(parts), queries, count, n)]
        assert len(grid) == queries
        for q, rows in enumerate(grid):
            assert rows.shape == (count, n)
            for c in range(count):
                want = SeededRng(seed, stream_key(*parts, q, c)).standard_normal(n)
                assert np.array_equal(rows[c], want)

    def test_grid_refills_one_buffer(self):
        draws = grid_normals(4, (2,), 3, 3, 7)
        first = next(draws)
        second = next(draws)
        assert second.base is first.base
        assert np.array_equal(first[2], substream(4, 2, 1, 2).standard_normal(7))

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_draw_refused(self, n):
        with pytest.raises(ContractViolation, match="sample count"):
            next(grid_normals(4, (2,), 1, 3, n))


class TestStreamUniforms:
    @given(
        seed=st.integers(0, _U64),
        parts=st.lists(st.integers(0, _U64), max_size=2),
        count=st.integers(1, 9),
        out_rows=st.integers(1, 4),
        n=st.integers(1, 40),
    )
    # runs of 4 rows and a ragged last run of 1; one run that ends exactly
    @example(seed=0, parts=[402], count=9, out_rows=4, n=336)
    @example(seed=7, parts=[], count=4, out_rows=4, n=1)
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_seeded_rng(self, seed, parts, count, out_rows, n):
        out = np.empty((out_rows, n))
        ids = (np.arange(count),)  # int64 ids, as generate passes them
        runs = [rows.copy() for rows in stream_uniforms(seed, tuple(parts), ids, out)]
        assert [len(rows) for rows in runs] == [min(out_rows, count - k) for k in range(0, count, out_rows)]
        for i, row in enumerate(np.concatenate(runs)):
            assert np.array_equal(row, SeededRng(seed, stream_key(*parts, i)).uniform(n))

    def test_ids_broadcast_in_c_order(self):
        out = np.empty((2, 5))
        ids = (np.arange(3, dtype=np.uint64)[:, None], np.arange(2, dtype=np.uint64))
        rows = np.concatenate([r.copy() for r in stream_uniforms(9, (301,), ids, out)])
        for k, (q, c) in enumerate((q, c) for q in range(3) for c in range(2)):
            assert np.array_equal(rows[k], SeededRng(9, stream_key(301, q, c)).uniform(5))


class TestStreamRngs:
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        parts=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=2),
        ids=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=5),
        n=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_rng_draws_what_its_substream_draws(self, seed, parts, ids, n):
        got = [
            (rng.uniform(n), rng.standard_normal(n), rng.permutation(n))
            for rng in stream_rngs(seed, tuple(parts), np.array(ids))
        ]
        assert len(got) == len(ids)
        for i, (uniform, normal, order) in zip(ids, got):
            want = substream(seed, *parts, i)
            assert uniform.tobytes() == want.uniform(n).tobytes()
            assert normal.tobytes() == want.standard_normal(n).tobytes()
            assert np.array_equal(order, want.permutation(n))

    def test_training_noise_is_refused_on_a_swapped_layout(self, monkeypatch, request):
        swap_state_words(monkeypatch, request)
        with pytest.raises(ContractViolation, match=f"numpy {np.__version__}"):
            next(stream_rngs(0, (202,), np.arange(3)))


class TestPcg64LayoutGuard:
    def test_passes_on_this_build(self):
        core._check_pcg64_layout.cache_clear()
        core._check_pcg64_layout()

    def test_swapped_words_refused(self, monkeypatch, request):
        swap_state_words(monkeypatch, request)
        with pytest.raises(ContractViolation, match=f"numpy {np.__version__}"):
            next(grid_normals(0, (301,), 2, 3, 8))

    def test_corpus_generation_refused(self, monkeypatch, request):
        swap_state_words(monkeypatch, request)
        with pytest.raises(ContractViolation, match=f"numpy {np.__version__}"):
            generate(SyntheticSpec(pairs=4, concept_dim=4, raw_frames=2))


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


_BELOW_ONE = 1.0 - 2.0**-53  # largest double below 1


class TestBoxMullerTangent:
    """box_muller takes cos and sin of the angle from one tangent of its
    half; each normal stays within 4 eps r of the cos/sin form, and numpy's
    SIMD tan gives the same bits whatever the layout of the uniforms."""

    @given(
        radius_u=st.floats(0.0, _BELOW_ONE),
        angle_u=st.floats(0.0, _BELOW_ONE),
    )
    @example(radius_u=0.3, angle_u=0.0)
    @example(radius_u=0.3, angle_u=0.25)
    @example(radius_u=0.3, angle_u=0.5 - 2.0**-54)
    @example(radius_u=0.3, angle_u=0.5)
    @example(radius_u=0.3, angle_u=0.75)
    @example(radius_u=0.3, angle_u=_BELOW_ONE)
    @example(radius_u=0.0, angle_u=0.6)
    @example(radius_u=_BELOW_ONE, angle_u=0.6)
    @example(radius_u=_BELOW_ONE, angle_u=0.5)
    @settings(max_examples=200, deadline=None)
    def test_within_four_eps_r_of_cos_sin(self, radius_u, angle_u):
        u = np.array([radius_u, angle_u])
        got, want = box_muller(u), box_muller_trig(u)
        r = np.sqrt(-2.0 * np.log(1.0 - radius_u))
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(np.float64).eps * r)

    @given(seed=st.integers(0, 2**32), n=st.integers(1, 4000))
    @settings(max_examples=30, deadline=None)
    def test_drawn_pairs_within_four_eps_r_of_cos_sin(self, seed, n):
        u = SeededRng(seed, 0).uniform(2 * n)
        got, want = box_muller(u), box_muller_trig(u)
        r = np.repeat(np.sqrt(-2.0 * np.log(1.0 - u[0::2])), 2)
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(np.float64).eps * r)

    @pytest.mark.parametrize("width", [2, 8, 34, 640, 642])
    def test_every_layout_gives_the_contiguous_bits(self, width):
        u = SeededRng(7, width).uniform(5 * width).reshape(5, width)
        want = box_muller(u)
        strided = np.zeros((10, width))
        strided[::2] = u
        wide = np.zeros((5, width + 6))
        wide[:, 3 : width + 3] = u
        in_place = u.copy()
        layouts = {
            "strided rows": box_muller(strided[::2]),
            "column slice": box_muller(wide[:, 3 : width + 3]),
            "transposed copy": box_muller(u.T.copy().T),
            "in place": box_muller(in_place, out=in_place),
        }
        for name, got in layouts.items():
            assert np.array_equal(got, want), name
        for k in range(5):
            assert np.array_equal(box_muller(u[k].copy()), want[k]), f"1-D row {k}"


def _on_points(f, x):
    """A callback for finite_diff_gradient at x that hands f each block's
    points, a (2b, x.size) stack, as a (2b, *x.shape) stack; it records a
    copy of every call's points."""
    calls = []

    def callback(points):
        calls.append(points.copy())
        return f(points.reshape((len(points),) + np.shape(x)))

    return callback, calls


def _fd(f, x, h=1e-4):
    """finite_diff_gradient of f, a function of a stack of full points, and
    the calls of its callback."""
    callback, calls = _on_points(f, x)
    return finite_diff_gradient(callback, x, h=h), calls


def _cubic(points):
    """sum_i c_i x_i^3 per point, c_i = i + 1."""
    return np.sum(np.arange(1, points.shape[1] + 1) * points**3, axis=1)


class TestCheckFinite:
    def test_finite_values_pass(self):
        check_finite("scores", np.arange(12.0).reshape(3, 4))
        check_finite("scale", 2.5)

    @pytest.mark.parametrize("bad, count", [([np.nan], 1), ([np.inf], 1), ([-np.inf, np.nan], 2)],
                             ids=["nan", "inf", "both"])
    def test_the_message_counts_the_non_finite_values(self, bad, count):
        values = np.ones((2, 5))
        values.flat[[3, 8][: len(bad)]] = bad
        with pytest.raises(ContractViolation, match=f"^scores: {count} of 10 values are non-finite$"):
            check_finite("scores", values)


class TestRowKernels:
    """row_sums, and row_norms through it, sum each row on its own; row_max
    is np.max along the last axis."""

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(1, 130),
        rows=st.integers(1, 64),
        copies=st.sampled_from([0, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_a_row_has_the_same_bits_alone_or_stacked(self, width, rows, copies, seed):
        rng = substream(seed, 7101)
        lead = (copies,) if copies else ()
        a, b = rng.standard_normal(2 * max(copies, 1) * 64 * width).reshape((2,) + lead + (64, width))
        stacked = row_sums(a), row_sums(a, b), row_norms(a)
        for c in np.ndindex(*lead):
            for i in range(rows):
                alone = row_sums(a[c][i]), row_sums(a[c][i], b[c][i]), row_norms(a[c][i])
                for got, full in zip(alone, stacked):
                    assert got.tobytes() == full[c][i].tobytes()
            # the first rows as a stack of their own
            for got, full in zip((row_sums(a[c][:rows]), row_sums(a[c][:rows], b[c][:rows])), stacked):
                assert np.array_equal(got, full[c][:rows])

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 16, 17, 32, 33, 64, 128])
    def test_within_a_few_ulp_of_add_reduce(self, width):
        rng = substream(width, 7102)
        a, b = rng.standard_normal(2 * 500 * width).reshape(2, 500, width)
        eps = np.finfo(np.float64).eps
        # sums and dots: within 4 ulp of the summed magnitudes, whatever cancels
        for got, terms in ((row_sums(a), a), (row_sums(a, b), a * b)):
            reference = np.add.reduce(terms, axis=-1)
            assert np.all(np.abs(got - reference) <= 4 * eps * np.add.reduce(np.abs(terms), axis=-1))
        # norms: within 4 ulp of np.linalg.norm
        reference = np.linalg.norm(a, axis=-1)
        assert np.all(np.abs(row_norms(a) - reference) <= 4 * np.spacing(reference))

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]), min_size=1),
        seed=st.integers(0, 2**16),
    )
    def test_row_max_equals_np_max_bit_for_bit(self, shape, values, seed):
        # entries from a few values, so that rows hold ties, signed zeros, infinities and NaN
        rng = np.random.default_rng(seed)
        x = rng.choice(np.array(values), size=tuple(shape))
        assert row_max(x).tobytes() == np.max(x, axis=-1).tobytes()
        y = rng.standard_normal(tuple(shape))
        assert row_max(y).tobytes() == np.max(y, axis=-1).tobytes()


class TestFiniteDiffGradient:
    def test_quadratic(self):
        g, _ = _fd(lambda xs: xs[:, 0] ** 2, np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-6

    def test_constant(self):
        g, _ = _fd(lambda xs: np.full(len(xs), 4.25), np.ones(5))
        np.testing.assert_allclose(g, 0.0, atol=1e-8)

    def test_quadratic_form_matches_2Ax(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        a = 0.5 * (m + m.T)
        x = rng.normal(size=4)
        g, _ = _fd(lambda vs: np.sum((vs @ a) * vs, axis=1), x)
        np.testing.assert_allclose(g, 2.0 * a @ x, atol=1e-5)

    def test_nonfinite_reported(self):
        with pytest.raises(OracleFailure, match="^non-finite evaluation at coordinate 0$"), \
                np.errstate(invalid="ignore"):
            _fd(lambda xs: np.log(xs[:, 0]), np.array([0.0]), h=1.0)

    def test_nonfinite_in_a_later_block_names_its_coordinate(self):
        bad = FD_BLOCK + 2
        x = np.ones(FD_BLOCK + 5)
        x[bad] = 0.0
        with pytest.raises(OracleFailure, match=f"^non-finite evaluation at coordinate {bad}$"), \
                np.errstate(invalid="ignore"):
            _fd(lambda xs: np.sum(np.log(xs + 0.5), axis=1), x, h=1.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ContractViolation):
            finite_diff_gradient(lambda points: np.zeros(len(points)), np.zeros(2), h=0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_a_non_finite_step_is_refused_by_name(self, h):
        # a NaN step used to be misreported as a non-finite evaluation at coordinate 0
        with pytest.raises(ContractViolation, match=f"^step size must be positive and finite, got {h}$"):
            finite_diff_gradient(lambda points: np.zeros(len(points)), np.zeros(2), h=h)

    def test_callback_must_give_one_value_per_point(self):
        with pytest.raises(ContractViolation):
            finite_diff_gradient(lambda points: np.zeros(1), np.zeros(3))

    def test_single_coordinate_is_one_call_of_two_points(self):
        g, calls = _fd(_cubic, np.array([0.5]), h=1e-4)
        assert [points.shape for points in calls] == [(2, 1)]
        points = calls[0]
        assert points[0, 0] == 0.5 + 1e-4 and points[1, 0] == 0.5 - 1e-4
        assert abs(g[0] - 0.75) <= 1e-7

    def test_ragged_last_block_matches_per_coordinate_differences(self):
        n = 2 * FD_BLOCK + 3
        x = substream(3, 7100).standard_normal(n)
        g, calls = _fd(_cubic, x, h=1e-4)
        assert [points.shape for points in calls] == [(2 * FD_BLOCK, n), (2 * FD_BLOCK, n), (6, n)]
        # each block moves its own coordinates and no others
        moved = [np.flatnonzero((c != x).any(axis=0)) for c in calls]
        assert [list(m) for m in moved] == [list(range(0, FD_BLOCK)), list(range(FD_BLOCK, 2 * FD_BLOCK)),
                                            list(range(2 * FD_BLOCK, n))]
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
        g, _ = _fd(lambda xs: np.sum(xs**2, axis=(1, 2)), x)
        assert g.shape == (2, 3)
        np.testing.assert_allclose(g, 2.0 * x, atol=1e-6)
