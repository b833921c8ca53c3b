"""Synthetic text/frame encoders and text-conditioned feature fusion.

The encoder towers are frozen random linear projections (a desk-scale stand-in
for large pretrained backbones) followed by optional trainable adapters that
start at identity, with L2 normalization on every output embedding. Fusion is
single-head scaled-dot-product attention pooling over frame embeddings,
conditioned on the text embedding, with an output projection that runs once
on a video set's values (`video_keys`). Training dropout is applied to the
projected fusion grid (objectives.dropout_grid_mask).

The batched stages `encode_batch` and `fuse_batch` take the model and read
its proj_*, adapter_* and fusion_* arrays by name. They run in training and
inference alike and return what their backward (in objectives) replays;
`encode_text`, `encode_frames` and `fuse` in `tests/oracle.py` are their
per-vector oracle. One trainable array may be a (k, ...) stack of
parameter copies (model.parameter_copies); every output it reaches then
gains a leading copy axis of length k. Without copies every product is the
stacked `x @ p.T` that inference's per-query bits rest on; with copies
(gradient checks) `_product` runs each product as one whole GEMM instead
of one small product per copy and row. For copies of fusion_out a gradient
check re-runs only `project_values` and `fuse_output`. Last-axis sums and
norms go through `core.row_sums`, and the attention's shift is `core.row_max`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, row_max, row_norms, row_sums
from .model import ModelParameters

# An embedding whose pre-normalization length falls below this is rejected.
ZERO_NORM_THRESHOLD = 1e-12


def sample_frame_indices(total: int, count: int) -> np.ndarray:
    """Uniform-by-index frame sampling: floor(k * T / T') for k = 0..T'-1."""
    if count < 1 or total < count:
        raise ContractViolation(f"cannot sample {count} frames from {total}")
    return (np.arange(count) * total) // count


# ---------------------------------------------------------------------------
# batched stages


def _product(x: np.ndarray, p: np.ndarray, copies: int | None) -> np.ndarray:
    """x @ p.T for an input x (..., i) and a map p (o, i). With k copies, x
    or p (never both: a copy set holds one array) may lead with a copy axis
    of length k, which the result leads with, and the product runs as one
    whole GEMM: a shared map over every row of x, or the k maps side by
    side against the rows of a shared x."""
    if copies is None:
        return x @ p.T
    i = x.shape[-1]
    if p.ndim == 2:
        return (x.reshape(-1, i) @ p.T).reshape(x.shape[:-1] + p.shape[:1])
    # the maps as the left operand: with x on the left, OpenBLAS gave a copy
    # other bits than its own product at some widths; the result is made
    # C-contiguous, as matmul's is, since reductions over it sum in memory
    # order
    k, o = p.shape[:2]
    out = (p.reshape(k * o, i) @ x.reshape(-1, i).T).reshape(k, o, -1)
    return np.ascontiguousarray(out.swapaxes(1, 2)).reshape((k,) + x.shape[:-1] + (o,))


@dataclass
class Encoded:
    """One tower's batch: projected = x @ proj.T (the adapter's input), the
    lengths before normalization, and the unit embeddings."""

    projected: np.ndarray
    norms: np.ndarray
    emb: np.ndarray


def encode_batch(x: np.ndarray, model: ModelParameters, tower: str) -> Encoded:
    """Raw features (..., c) through the "text" or "frame" tower to unit
    embeddings (..., d): texts (n, c) and frames (n, T', c) alike. This is
    the one place raw features meet the model, so it alone refuses a width
    c other than the model's concept_dim."""
    if x.shape[-1] != model.concept_dim:
        raise ContractViolation(
            f"{tower} features have width {x.shape[-1]} but the model's concept_dim is {model.concept_dim}"
        )
    projected = x @ getattr(model, f"proj_{tower}").T
    if model.adapters_enabled:
        pre = _product(projected, getattr(model, f"adapter_{tower}"), model.copies)
    else:
        pre = projected
    norms = row_norms(pre)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation(f"{tower} embedding collapsed to zero norm")
    return Encoded(projected, norms, pre / norms[..., None])


def encode_video_batch(videos: np.ndarray, model: ModelParameters) -> Encoded:
    """Raw videos (n, T, c) to embeddings (n, frame_count, d) of sampled frames."""
    return encode_batch(videos[:, sample_frame_indices(videos.shape[1], model.frame_count)], model, "frame")


@dataclass
class VideoKeys:
    """Key, value and output projections (n, T', d) of a video set's frames; outputs = values @ fusion_out.T."""

    keys: np.ndarray
    values: np.ndarray
    outputs: np.ndarray


def video_keys(frames: np.ndarray, model: ModelParameters) -> VideoKeys:
    values = _product(frames, model.fusion_value, model.copies)
    return VideoKeys(_product(frames, model.fusion_key, model.copies), values, project_values(values, model))


def project_values(values: np.ndarray, model: ModelParameters) -> np.ndarray:
    return _product(values, model.fusion_out, model.copies)


def _pooled(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """pooled[i, j] = weights[i, j] @ values[j] for weights (m, n, T') and
    values (n, T', d), either with an optional copy axis: one product per
    video j (and per copy)."""
    return np.ascontiguousarray(np.matmul(weights.swapaxes(-3, -2), values).swapaxes(-3, -2))


@dataclass
class Fused:
    """An (m, n) fusion grid: queries (m, d), attention weights (m, n, T'),
    the dropout mask on the projected grid or None, and the lengths before
    normalization of the unit fused embeddings (m, n, d)."""

    queries: np.ndarray
    weights: np.ndarray
    mask: np.ndarray | None
    norms: np.ndarray
    fused: np.ndarray


def fuse_batch(
    texts: np.ndarray, kv: VideoKeys, model: ModelParameters, drop_mask: np.ndarray | None = None
) -> Fused:
    """`fuse` of every video j under every text i of an (m, d) block, as
    (batched) matmuls; drop_mask is an optional (m, n, d) inverted-dropout
    mask on the projected grid. Texts, keys and maps may carry copies."""
    m, d = texts.shape[-2:]
    n, frames = kv.keys.shape[-3:-1]
    copies = model.copies
    if drop_mask is not None and drop_mask.shape != (m, n, d):
        raise ContractViolation("dropout mask shape mismatch")
    queries = _product(texts, model.fusion_query, copies)
    keys = kv.keys.reshape(kv.keys.shape[:-3] + (n * frames, d))
    logits = _product(queries, keys, copies)
    logits = logits.reshape(logits.shape[:-1] + (n, frames)) / np.sqrt(d)
    shifted = np.exp(logits - row_max(logits)[..., None])
    weights = shifted / row_sums(shifted)[..., None]
    return fuse_output(queries, weights, drop_mask, kv.outputs)


def fuse_output(queries: np.ndarray, weights: np.ndarray, mask: np.ndarray | None, outputs: np.ndarray) -> Fused:
    """What ends `fuse_batch`: the projected values pooled under the attention
    weights and masked, to unit fused embeddings, with the attention's
    queries, weights and mask as its record."""
    pre = _pooled(weights, outputs)
    if mask is not None:
        pre *= mask
    norms = row_norms(pre)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("fused video embedding collapsed to zero norm")
    return Fused(queries, weights, mask, norms, pre / norms[..., None])
