"""Synthetic text/frame encoders and text-conditioned feature fusion.

The encoder towers are frozen random linear projections (a desk-scale stand-in
for large pretrained backbones) followed by optional trainable adapters that
start at identity, with L2 normalization on every output embedding. Fusion is
single-head scaled-dot-product attention pooling over frame embeddings,
conditioned on the text embedding, with an output projection that runs once
on a video set's values. Training dropout is applied to the projected fusion
grid (objectives.dropout_grid_mask).

The batched stages are `encode_batch`, `project` (the fusion keys, values and
outputs), `attend` and `fuse_output`; the first three read the model's proj_*,
adapter_* and fusion_* arrays by name. They run in training and inference
alike and return what their backward (in objectives) replays; `encode_text`,
`encode_frames` and `fuse` in `tests/oracle.py` are their per-vector oracle.
One trainable array may be a (k, ...) stack of parameter copies
(model.parameter_copies); every output it reaches then gains a leading copy
axis of length k, and `_product` runs a product with copies on one side as
one whole GEMM (gradient checks). A copy-free product is the stacked `x @ p.T`
that inference's per-query bits rest on, with copies elsewhere or not.
Last-axis sums and norms go through `core.row_sums`, and the attention's shift
is `core.row_max`.
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


def _product(x: np.ndarray, p: np.ndarray, copied: bool) -> np.ndarray:
    """x @ p.T for an input x (..., i) and a map p (o, i); copied says
    whether x leads with a copy axis. x or p (never both: a copy set holds
    one array) may carry k copies, which the result leads with; the product
    then runs as one whole GEMM: a shared map over every row of x, or the k
    maps side by side against the rows of a shared x. A copy-free pair is
    the stacked `x @ p.T`, as in the copy-free pass."""
    i = x.shape[-1]
    if p.ndim == 3:
        # the maps as the left operand: with x on the left, OpenBLAS gave a
        # copy other bits than its own product at some widths; the result is
        # made C-contiguous, as matmul's is, since reductions over it sum in
        # memory order
        k, o = p.shape[:2]
        out = (p.reshape(k * o, i) @ x.reshape(-1, i).T).reshape(k, o, -1)
        return np.ascontiguousarray(out.swapaxes(1, 2)).reshape((k,) + x.shape[:-1] + (o,))
    if copied:
        return (x.reshape(-1, i) @ p.T).reshape(x.shape[:-1] + p.shape[:1])
    return x @ p.T


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
    pre = projected
    if model.adapters_enabled:
        pre = _product(projected, getattr(model, f"adapter_{tower}"), False)
    norms = row_norms(pre)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation(f"{tower} embedding collapsed to zero norm")
    # the adapter's product is this call's own, so it is normalised in place
    return Encoded(projected, norms, np.divide(pre, norms[..., None], out=None if pre is projected else pre))


def encode_video_batch(videos: np.ndarray, model: ModelParameters) -> Encoded:
    """Raw videos (n, T, c) to embeddings (n, frame_count, d) of sampled frames."""
    return encode_batch(videos[:, sample_frame_indices(videos.shape[1], model.frame_count)], model, "frame")


def project(x: np.ndarray, model: ModelParameters, name: str) -> np.ndarray:
    """x @ model.<name>.T for frame embeddings or values x (n, T', d): the
    fusion keys, values or outputs (outputs = values @ fusion_out.T). x (a
    leading copy axis) or the map may carry copies."""
    return _product(x, getattr(model, name), x.ndim == 4)


def _pooled(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """pooled[i, j] = weights[i, j] @ values[j] for weights (m, n, T') and
    values (n, T', d), either with an optional copy axis: one product per
    video j (and per copy), each written through `out=` straight into its
    rows of the C-contiguous (m, n, d) result."""
    m, n = weights.shape[-3:-1]
    out = np.empty(np.broadcast_shapes(weights.shape[:-3], values.shape[:-3]) + (m, n, values.shape[-1]))
    np.matmul(weights.swapaxes(-3, -2), values, out=out.swapaxes(-3, -2))
    return out


@dataclass
class Attention:
    """Single-head attention of m texts over n videos' frames: queries
    (m, d) and weights (m, n, T')."""

    queries: np.ndarray
    weights: np.ndarray


def attend(texts: np.ndarray, keys: np.ndarray, model: ModelParameters) -> Attention:
    """Attention of every text i of an (m, d) block over the keys (n, T', d)
    of every video j. Texts, keys or fusion_query may carry copies; on a model
    without copies, inference's (k, 1, d) text blocks stay k stacked products."""
    n, frames, d = keys.shape[-3:]
    queries = _product(texts, model.fusion_query, model.copies is not None and texts.ndim == 3)
    flat = keys.reshape(keys.shape[:-3] + (n * frames, d))
    logits = _product(queries, flat, model.copies is not None and queries.ndim == 3)
    # the softmax runs in place on the fresh logits
    logits = logits.reshape(logits.shape[:-1] + (n, frames))
    logits /= np.sqrt(d)
    logits -= row_max(logits)[..., None]
    np.exp(logits, out=logits)
    logits /= row_sums(logits)[..., None]
    return Attention(queries, logits)


@dataclass
class Fused:
    """An (m, n) fusion grid: the dropout mask on the projected grid or None,
    and the pre-normalization lengths of the unit fused embeddings (m, n, d)."""

    mask: np.ndarray | None
    norms: np.ndarray
    fused: np.ndarray


def fuse_output(weights: np.ndarray, mask: np.ndarray | None, outputs: np.ndarray) -> Fused:
    """`fuse` of every video j under every text i: the projected values
    outputs (n, T', d) pooled under the attention weights (m, n, T'),
    masked by mask, an optional (m, n, d) inverted-dropout mask, and
    normalized. Weights or outputs may carry copies."""
    pre = _pooled(weights, outputs)
    if mask is not None:
        if mask.shape != pre.shape[-3:]:
            raise ContractViolation("dropout mask shape mismatch")
        pre *= mask
    norms = row_norms(pre)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("fused video embedding collapsed to zero norm")
    pre /= norms[..., None]
    return Fused(mask, norms, pre)
