"""The kernels that write each grid array once, through their product's
`out=` in the layout their readers use, or in place on their own fresh
products, against the layout references in `tests/oracle.py`: bit for bit,
over d in 1-64, S in {1, 2, 18}, several grid sizes and frame counts, with
and without a copy axis. An `out=` write changes only where the product is
stored (BLAS's ldc), not which product BLAS forms. `cos_grid` forms its
dots as `cos_grid_strided` does and reads them through the same transposed
view.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from textmass.encoders import _pooled, _product, attend, encode_batch, fuse_output
from textmass.mass import cos_grid
from textmass.model import init_model, parameter_copies
from textmass.objectives import _cos_grid_backward, _normalize_backward

from oracle import (
    attend_fresh,
    cos_grid_backward_strided,
    cos_grid_strided,
    fuse_output_fresh,
    normalize_backward_fresh,
    pooled_copied,
)

dims = st.integers(1, 64)
samples = st.sampled_from([1, 2, 18])
sizes = st.sampled_from([1, 2, 3, 5, 8, 32])
frame_counts = st.sampled_from([1, 2, 4, 8])
# a gradient check's block holds 2 * FD_BLOCK = 64 copies
copy_counts = st.sampled_from([1, 2, 64])
seeds = st.integers(0, 2**32 - 1)


def assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def lead(side, sides, k):
    """The copy axis of an operand: (k,) when the copies reach its side."""
    return (k,) if side in sides else ()


class TestLayouts:
    @settings(max_examples=120, deadline=None)
    @given(d=dims, s=samples, m=sizes, n=sizes, k=copy_counts, seed=seeds,
           sides=st.sampled_from(["", "rows", "stack", "rows stack"]))
    def test_cos_grid_equals_the_strided_product_bit_for_bit(self, d, s, m, n, k, seed, sides):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal(lead("rows", sides, k) + (s, m, d))
        stack = unit(rng.standard_normal(lead("stack", sides, k) + (m, n, d)))
        sims, norms = cos_grid(rows, stack)
        want_sims, want_norms = cos_grid_strided(rows, stack)
        assert_bits(sims, want_sims)
        assert_bits(norms, want_norms)

    @settings(max_examples=80, deadline=None)
    @given(d=dims, m=sizes, n=sizes, frames=frame_counts, k=copy_counts, seed=seeds,
           sides=st.sampled_from(["", "weights", "values", "weights values"]))
    def test_pooled_writes_each_video_into_its_rows(self, d, m, n, frames, k, seed, sides):
        rng = np.random.default_rng(seed)
        weights = rng.random(lead("weights", sides, k) + (m, n, frames))
        values = rng.standard_normal(lead("values", sides, k) + (n, frames, d))
        got = _pooled(weights, values)
        assert_bits(got, pooled_copied(weights, values))
        assert got.flags.c_contiguous

    @settings(max_examples=80, deadline=None)
    @given(d=dims, s=samples, m=sizes, n=sizes, seed=seeds)
    def test_cos_grid_backward_rows_and_their_readers(self, d, s, m, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((s, m, d))
        stack = unit(rng.standard_normal((m, n, d)))
        sims, norms = cos_grid(rows, stack)
        lead_grad = rng.standard_normal((s, m, n))
        got = _cos_grid_backward(lead_grad, rows, stack, sims, norms)
        want, _ = cos_grid_backward_strided(lead_grad, rows, stack, sims, norms)
        assert_bits(got, want)
        assert got.flags.c_contiguous
        # backward_batch's readers: the S-sum, the support slice and the eps-weighted sum
        assert_bits(got.sum(axis=0), want.sum(axis=0))
        assert_bits(got[-1], np.ascontiguousarray(want[-1]))
        eps = rng.standard_normal((max(s - 2, 0), m, d))
        assert_bits((eps * got[1:-1]).sum(axis=0), (eps * want[1:-1]).sum(axis=0))

    @settings(max_examples=80, deadline=None)
    @given(d=dims, n=sizes, frames=frame_counts, seed=seeds)
    def test_radius_stack_gradient_is_the_one_term_product(self, d, n, frames, seed):
        # backward_batch forms the radius stage's frame gradient, a one-sample
        # product, as a broadcast outer product per pair
        rng = np.random.default_rng(seed)
        text = unit(rng.standard_normal((n, d)))
        frame_emb = unit(rng.standard_normal((n, frames, d)))
        sims, norms = cos_grid(text[None], frame_emb)
        lead_f = rng.standard_normal((n, frames))
        _, want = cos_grid_backward_strided(lead_f[None], text[None], frame_emb, sims, norms)
        assert_bits(lead_f[:, :, None] * text[:, None, :], want)

    @settings(max_examples=60, deadline=None)
    @given(d=dims, m=sizes, n=sizes, seed=seeds, grid=st.booleans())
    def test_normalize_backward_writes_over_its_gradient(self, d, m, n, seed, grid):
        rng = np.random.default_rng(seed)
        shape = (m, n, d) if grid else (n, d)
        pre = rng.standard_normal(shape)
        norms = np.linalg.norm(pre, axis=-1)
        unit_out = pre / norms[..., None]
        d_unit = rng.standard_normal(shape)
        want = normalize_backward_fresh(unit_out, norms, d_unit)
        got = _normalize_backward(unit_out, norms, d_unit)
        assert got is d_unit
        assert_bits(got, want)

    @settings(max_examples=80, deadline=None)
    @given(d=dims, m=sizes, n=sizes, frames=frame_counts, k=copy_counts, seed=seeds,
           copies=st.sampled_from(["none", "fusion_query", "texts", "keys", "inference"]))
    def test_attend_normalises_in_place(self, d, m, n, frames, k, seed, copies):
        rng = np.random.default_rng(seed)
        model = init_model(d, 3, frames, seed=seed % 1000)
        texts = unit(rng.standard_normal((m, d)))
        keys = rng.standard_normal((n, frames, d))
        if copies == "fusion_query":
            points = model.fusion_query.ravel() + 1e-3 * rng.standard_normal((k, d * d))
            model = parameter_copies(model, "fusion_query", points)
        elif copies in ("texts", "keys"):
            # copies of another array reach the texts or the keys alone
            model = parameter_copies(model, "adapter_text", np.repeat(model.adapter_text.ravel()[None], k, axis=0))
            texts, keys = (unit(rng.standard_normal((k, m, d))), keys) if copies == "texts" else (
                texts, rng.standard_normal((k, n, frames, d)))
        elif copies == "inference":
            # inference's (queries, 1, d) text blocks on a model without copies
            texts = texts[:, None, :]
        got = attend(texts, keys, model)
        queries, weights = attend_fresh(texts, keys, model)
        assert_bits(got.queries, queries)
        assert_bits(got.weights, weights)

    @settings(max_examples=80, deadline=None)
    @given(d=dims, m=sizes, n=sizes, frames=frame_counts, k=copy_counts, seed=seeds, masked=st.booleans(),
           sides=st.sampled_from(["", "weights", "outputs", "weights outputs"]))
    def test_fuse_output_normalises_in_place(self, d, m, n, frames, k, seed, masked, sides):
        rng = np.random.default_rng(seed)
        weights = rng.random(lead("weights", sides, k) + (m, n, frames)) + 0.1
        outputs = rng.standard_normal(lead("outputs", sides, k) + (n, frames, d))
        mask = None
        if masked:
            mask = np.where(rng.random((m, n, d)) < 0.3, 0.0, 1.0 / 0.7)
            mask[~mask.any(axis=-1)] = 1.0 / 0.7
        got = fuse_output(weights, mask, outputs)
        norms, fused = fuse_output_fresh(weights, mask, outputs)
        assert_bits(got.norms, norms)
        assert_bits(got.fused, fused)
        assert got.fused.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(d=dims, n=sizes, frames=frame_counts, seed=seeds, adapters=st.booleans())
    def test_encode_batch_divides_only_its_own_product_in_place(self, d, n, frames, seed, adapters):
        rng = np.random.default_rng(seed)
        model = init_model(d, 5, frames, seed=seed % 1000, adapters_enabled=adapters)
        x = rng.standard_normal((n, frames, 5))
        got = encode_batch(x, model, "frame")
        pre = _product(x @ model.proj_frame.T, model.adapter_frame, False) if adapters else x @ model.proj_frame.T
        assert_bits(got.projected, x @ model.proj_frame.T)
        assert_bits(got.emb, pre / got.norms[..., None])
        assert got.emb is not got.projected
