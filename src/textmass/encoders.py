"""Synthetic text/frame encoders and text-conditioned feature fusion.

The encoder towers are frozen random linear projections (a desk-scale stand-in
for large pretrained backbones) followed by optional trainable adapters that
start at identity, with L2 normalization on every output embedding. Fusion is
single-head scaled-dot-product attention pooling over frame embeddings,
conditioned on the text embedding, with an output projection. Training
dropout is applied to the batched fusion grid (objectives.dropout_grid_mask).

The batched stages `encode_batch` and `fuse_batch` take the model and read
its proj_*, adapter_* and fusion_* arrays by name. They run in training and
inference alike and return what their backward (in objectives) replays;
`encode_text`, `encode_frames` and `fuse` in `tests/oracle.py` are their
per-vector oracle. A trainable map may be a (k, d, d) stack of parameter
copies (model.parameter_copies); every output it reaches then gains a
leading copy axis of length k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, row_norms
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


def _transposed(p: np.ndarray, rank: int) -> np.ndarray:
    """p.T as the right operand of x @ p.T, x of `rank` axes without
    copies; a (k, d, d) stack of copies is shaped (k, 1, .., 1, d, d) so
    that its copies lead the product whether or not x has copies too."""
    if p.ndim == 2:
        return p.T
    return p.reshape(p.shape[:1] + (1,) * (rank - 2) + p.shape[1:]).swapaxes(-1, -2)


@dataclass
class Encoded:
    """One tower's batch: projected = x @ proj.T (the adapter's input), the
    lengths before normalization, and the unit embeddings."""

    projected: np.ndarray
    norms: np.ndarray
    emb: np.ndarray


def encode_batch(x: np.ndarray, model: ModelParameters, tower: str) -> Encoded:
    """Raw features (..., c) through the "text" or "frame" tower to unit
    embeddings (..., d): texts (n, c) and frames (n, T', c) alike."""
    projected = x @ getattr(model, f"proj_{tower}").T
    if model.adapters_enabled:
        pre = projected @ _transposed(getattr(model, f"adapter_{tower}"), projected.ndim)
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
    """Key and value projections (n, T', d) of a video set's frames."""

    keys: np.ndarray
    values: np.ndarray


def video_keys(frames: np.ndarray, model: ModelParameters) -> VideoKeys:
    return VideoKeys(frames @ _transposed(model.fusion_key, 3), frames @ _transposed(model.fusion_value, 3))


@dataclass
class Fused:
    """An (m, n) fusion grid: queries (m, d), attention weights (m, n, T'),
    the dropout mask or None, the pooled grid after the mask, and the
    lengths before normalization of the unit fused embeddings (m, n, d)."""

    queries: np.ndarray
    weights: np.ndarray
    mask: np.ndarray | None
    pooled: np.ndarray
    norms: np.ndarray
    fused: np.ndarray


def fuse_batch(
    texts: np.ndarray, kv: VideoKeys, model: ModelParameters, drop_mask: np.ndarray | None = None
) -> Fused:
    """`fuse` of every video j under every text i of an (m, d) block, as
    (batched) matmuls; drop_mask is an optional (m, n, d) inverted-dropout
    mask on the pooled grid. Texts, keys and maps may carry copies."""
    m, d = texts.shape[-2:]
    n, frames = kv.keys.shape[-3:-1]
    queries = texts @ _transposed(model.fusion_query, 2)
    keys = kv.keys.reshape(kv.keys.shape[:-3] + (n * frames, d)).swapaxes(-1, -2)
    logits = queries @ keys
    logits = logits.reshape(logits.shape[:-1] + (n, frames)) / np.sqrt(d)
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = shifted / shifted.sum(axis=-1, keepdims=True)
    # pooled[i, j] = weights[i, j] @ values[j]: one product per video j
    pooled = np.ascontiguousarray(np.matmul(weights.swapaxes(-3, -2), kv.values).swapaxes(-3, -2))
    if drop_mask is not None:
        if drop_mask.shape != (m, n, d):
            raise ContractViolation("dropout mask shape mismatch")
        pooled = pooled * drop_mask
    pre = pooled @ _transposed(model.fusion_out, 3)
    norms = row_norms(pre)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("fused video embedding collapsed to zero norm")
    return Fused(queries, weights, drop_mask, pooled, norms, pre / norms[..., None])
