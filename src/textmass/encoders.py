"""Synthetic text/frame encoders and text-conditioned feature fusion.

The encoder towers are frozen random linear projections (a desk-scale stand-in
for large pretrained backbones) followed by optional trainable adapters that
start at identity, with L2 normalization on every output embedding. Fusion is
single-head scaled-dot-product attention pooling over frame embeddings,
conditioned on the text embedding, with an output projection. Training
dropout is applied to the batched fusion grid (objectives.dropout_grid_mask).

The batched stages `encode_batch` and `fuse_batch` run in training and
inference alike and return what their backward (in objectives) replays;
`encode_text`, `encode_frames` and `fuse` are their per-vector oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, SeededRng

# An embedding whose pre-normalization length falls below this is rejected.
ZERO_NORM_THRESHOLD = 1e-12


@dataclass
class EncoderStack:
    """Frozen projections plus identity-initialized trainable adapters.

    proj_text / proj_frame: (d, c), immutable after initialization.
    adapter_text / adapter_frame: (d, d), the only trainable encoder parts.
    """

    proj_text: np.ndarray
    proj_frame: np.ndarray
    adapter_text: np.ndarray
    adapter_frame: np.ndarray
    adapters_enabled: bool = True

    @property
    def dim(self) -> int:
        return self.proj_text.shape[0]

    @property
    def concept_dim(self) -> int:
        return self.proj_text.shape[1]


@dataclass
class FusionParameters:
    """Single-head attention pooling weights, all (d, d), identity at init."""

    query_map: np.ndarray
    key_map: np.ndarray
    value_map: np.ndarray
    output_map: np.ndarray


def init_encoder_stack(d: int, c: int, rng: SeededRng, adapters_enabled: bool = True) -> EncoderStack:
    """Frozen projections with i.i.d. N(0, 1/c) entries; adapters = identity."""
    proj_t = rng.standard_normal(d * c).reshape(d, c) / np.sqrt(c)
    proj_f = rng.standard_normal(d * c).reshape(d, c) / np.sqrt(c)
    return EncoderStack(
        proj_text=proj_t,
        proj_frame=proj_f,
        adapter_text=np.eye(d),
        adapter_frame=np.eye(d),
        adapters_enabled=adapters_enabled,
    )


def init_fusion(d: int) -> FusionParameters:
    return FusionParameters(
        query_map=np.eye(d),
        key_map=np.eye(d),
        value_map=np.eye(d),
        output_map=np.eye(d),
    )


def _normalize(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x)
    if n <= ZERO_NORM_THRESHOLD:
        raise ContractViolation("embedding norm guard hit (zero or near-zero vector)")
    return x / n


def encode_text(features: np.ndarray, stack: EncoderStack) -> np.ndarray:
    """Text feature vector (c,) -> unit-norm embedding (d,)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (stack.concept_dim,):
        raise ContractViolation(
            f"text features shape {features.shape} does not match concept dim {stack.concept_dim}"
        )
    y = stack.proj_text @ features
    if stack.adapters_enabled:
        y = stack.adapter_text @ y
    return _normalize(y)


def _encode_frame(features: np.ndarray, stack: EncoderStack) -> np.ndarray:
    y = stack.proj_frame @ features
    if stack.adapters_enabled:
        y = stack.adapter_frame @ y
    return _normalize(y)


def sample_frame_indices(total: int, count: int) -> np.ndarray:
    """Uniform-by-index frame sampling: floor(k * T / T') for k = 0..T'-1."""
    if count < 1 or total < count:
        raise ContractViolation(f"cannot sample {count} frames from {total}")
    return (np.arange(count) * total) // count


def encode_frames(frames: np.ndarray, count: int, stack: EncoderStack) -> np.ndarray:
    """Raw frames (T, c) -> (count, d) unit-norm embeddings of uniformly sampled frames."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != stack.concept_dim:
        raise ContractViolation(f"frame array shape {frames.shape} invalid")
    idx = sample_frame_indices(frames.shape[0], count)
    return np.stack([_encode_frame(frames[i], stack) for i in idx])


def fuse(frames: np.ndarray, t: np.ndarray, p: FusionParameters) -> np.ndarray:
    """Pool frame embeddings (T', d) into one video embedding conditioned on t.

    w = softmax_i <Q t, K f_i> / sqrt(d); pooled = sum_i w_i (V f_i);
    output = normalize(O pooled).
    """
    frames = np.asarray(frames, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    d = t.shape[0]
    if frames.ndim != 2 or frames.shape[1] != d:
        raise ContractViolation(f"frames shape {frames.shape} does not match text dim {d}")
    q = p.query_map @ t
    keys = frames @ p.key_map.T
    logits = keys @ q / np.sqrt(d)
    m = logits.max()
    e = np.exp(logits - m)
    w = e / e.sum()
    pooled = (frames @ p.value_map.T).T @ w
    return _normalize(p.output_map @ pooled)


# ---------------------------------------------------------------------------
# batched stages


@dataclass
class Encoded:
    """One tower's batch: projected = x @ proj.T (the adapter's input), the
    lengths before normalization, and the unit embeddings."""

    projected: np.ndarray
    norms: np.ndarray
    emb: np.ndarray


def encode_batch(x: np.ndarray, stack: EncoderStack, tower: str) -> Encoded:
    """Raw features (..., c) through the "text" or "frame" tower to unit
    embeddings (..., d): texts (n, c) and frames (n, T', c) alike."""
    projected = x @ getattr(stack, f"proj_{tower}").T
    pre = projected @ getattr(stack, f"adapter_{tower}").T if stack.adapters_enabled else projected
    norms = np.linalg.norm(pre, axis=-1)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation(f"{tower} embedding collapsed to zero norm")
    return Encoded(projected, norms, pre / norms[..., None])


def encode_video_batch(videos: np.ndarray, count: int, stack: EncoderStack) -> Encoded:
    """Raw videos (n, T, c) to embeddings (n, count, d) of sampled frames."""
    return encode_batch(videos[:, sample_frame_indices(videos.shape[1], count)], stack, "frame")


@dataclass
class VideoKeys:
    """Key and value projections (n, T', d) of a video set's frames."""

    keys: np.ndarray
    values: np.ndarray


def video_keys(frames: np.ndarray, p: FusionParameters) -> VideoKeys:
    return VideoKeys(frames @ p.key_map.T, frames @ p.value_map.T)


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
    texts: np.ndarray, kv: VideoKeys, p: FusionParameters, drop_mask: np.ndarray | None = None
) -> Fused:
    """`fuse` of every video j under every text i of an (m, d) block, as
    (batched) matmuls; drop_mask is an optional (m, n, d) inverted-dropout
    mask on the pooled grid."""
    m, d = texts.shape
    n, frames = kv.keys.shape[:2]
    queries = texts @ p.query_map.T
    logits = (queries @ kv.keys.reshape(n * frames, d).T).reshape(m, n, frames) / np.sqrt(d)
    shifted = np.exp(logits - logits.max(axis=2, keepdims=True))
    weights = shifted / shifted.sum(axis=2, keepdims=True)
    # pooled[i, j] = weights[i, j] @ values[j]: one product per video j
    pooled = np.matmul(weights.transpose(1, 0, 2), kv.values).transpose(1, 0, 2)
    if drop_mask is not None:
        if drop_mask.shape != (m, n, d):
            raise ContractViolation("dropout mask shape mismatch")
        pooled = pooled * drop_mask
    pre = pooled @ p.output_map.T
    norms = np.linalg.norm(pre, axis=2)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("fused video embedding collapsed to zero norm")
    return Fused(queries, weights, drop_mask, pooled, norms, pre / norms[..., None])
