"""Synthetic text/frame encoders and text-conditioned feature fusion.

The encoder towers are frozen random linear projections (a desk-scale stand-in
for large pretrained backbones) followed by optional trainable adapters that
start at identity, with L2 normalization on every output embedding. Fusion is
single-head scaled-dot-product attention pooling over frame embeddings,
conditioned on the text embedding, with an output projection. Training
dropout is applied to the batched fusion grid (objectives.dropout_grid_mask).

The batched stages `encode_batch` and `fuse_batch` run in training and
inference alike and return what their backward (in objectives) replays;
`encode_text`, `encode_frames` and `fuse` are their per-vector oracle. A
trainable map may be a (k, d, d) stack of parameter copies
(model.parameter_copies); every output it reaches then gains a leading
copy axis of length k.
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


def encode_batch(x: np.ndarray, stack: EncoderStack, tower: str) -> Encoded:
    """Raw features (..., c) through the "text" or "frame" tower to unit
    embeddings (..., d): texts (n, c) and frames (n, T', c) alike."""
    projected = x @ getattr(stack, f"proj_{tower}").T
    if stack.adapters_enabled:
        pre = projected @ _transposed(getattr(stack, f"adapter_{tower}"), projected.ndim)
    else:
        pre = projected
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
    return VideoKeys(frames @ _transposed(p.key_map, 3), frames @ _transposed(p.value_map, 3))


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
    mask on the pooled grid. Texts, keys and maps may carry copies."""
    m, d = texts.shape[-2:]
    n, frames = kv.keys.shape[-3:-1]
    queries = texts @ _transposed(p.query_map, 2)
    keys = kv.keys.reshape(kv.keys.shape[:-3] + (n * frames, d)).swapaxes(-1, -2)
    logits = queries @ keys
    logits = logits.reshape(logits.shape[:-1] + (n, frames)) / np.sqrt(d)
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = shifted / shifted.sum(axis=-1, keepdims=True)
    # pooled[i, j] = weights[i, j] @ values[j]: one product per video j
    pooled = np.matmul(weights.swapaxes(-3, -2), kv.values).swapaxes(-3, -2)
    if drop_mask is not None:
        if drop_mask.shape != (m, n, d):
            raise ContractViolation("dropout mask shape mismatch")
        pooled = pooled * drop_mask
    pre = pooled @ _transposed(p.output_map, 3)
    norms = np.linalg.norm(pre, axis=-1)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("fused video embedding collapsed to zero norm")
    return Fused(queries, weights, drop_mask, pooled, norms, pre / norms[..., None])
