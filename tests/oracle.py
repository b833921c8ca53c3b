"""Per-vector oracles of the batched stages.

Each function takes one vector (or one matrix) at a time and states its
stage in the plainest numpy, independently of the batched code in
`textmass`: `encode_text`, `encode_frames` and `fuse` are the oracle of
`encoders.encode_batch`, `project`, `attend` and `fuse_output`;
`frame_similarities` and `radius` of `mass.radius_batch`; `sample_text_mass`
and `support_text` of the rows `objectives.forward_batch` stacks;
`cosine_similarity` of `mass.cos_grid`; `symmetric_ce` of
`objectives._ce_terms`; `box_muller_trig` bounds `core.box_muller`, the
cos/sin form it replaces; `generate` builds each corpus pair call by call,
normalising with `np.linalg.norm`, the reference of `dataset.generate`,
which draws every pair's row of uniforms at once and builds blocks of pairs
as arrays; and `unflatten_params` is the inverse of `model.flatten_params`.
`pcg64_srandom` and `pcg64_words` derive a substream's PCG64 state with
Python integers, the reference of `core._pcg64_srandom` and
`core._pcg64_states`. The encoder, fusion and radius oracles take the model
(`model.ModelParameters`) and read its arrays by their checkpoint names.
The layout references (`cos_grid_strided`, `pooled_copied`,
`cos_grid_backward_strided`, `normalize_backward_fresh`, `attend_fresh`,
`fuse_output_fresh`) are the batched kernels as they were before each grid
array was written once by its product's `out=`: the same products into
matmul's own layout, then a copy or a strided read, and fresh arrays for
every elementwise step; `tests/test_layouts.py` holds the kernels to their
bits. Nothing in `textmass` imports them.
"""

from __future__ import annotations

import numpy as np

from textmass.core import (NORM_GUARD, ContractViolation, DegenerateGeometryError, SeededRng, row_max, row_norms,
                           row_sums, substream)
from textmass.dataset import (
    _STREAM_PAIR,
    _STREAM_POOL,
    DISTRACTOR_POOL_FACTOR,
    TEST_FRACTION,
    PairRecord,
    SyntheticSpec,
)
from textmass.encoders import ZERO_NORM_THRESHOLD, _product, sample_frame_indices
from textmass.mass import DEGENERATE_DISTANCE
from textmass.model import LAMBDA_MAX, ModelParameters, restore_param

# ---------------------------------------------------------------------------
# encoders


def _normalize(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x)
    if n <= ZERO_NORM_THRESHOLD:
        raise ContractViolation("embedding norm guard hit (zero or near-zero vector)")
    return x / n


def encode_text(features: np.ndarray, model: ModelParameters) -> np.ndarray:
    """Text feature vector (c,) -> unit-norm embedding (d,)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (model.concept_dim,):
        raise ContractViolation(
            f"text features shape {features.shape} does not match concept dim {model.concept_dim}"
        )
    y = model.proj_text @ features
    if model.adapters_enabled:
        y = model.adapter_text @ y
    return _normalize(y)


def _encode_frame(features: np.ndarray, model: ModelParameters) -> np.ndarray:
    y = model.proj_frame @ features
    if model.adapters_enabled:
        y = model.adapter_frame @ y
    return _normalize(y)


def encode_frames(frames: np.ndarray, count: int, model: ModelParameters) -> np.ndarray:
    """Raw frames (T, c) -> (count, d) unit-norm embeddings of uniformly sampled frames."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != model.concept_dim:
        raise ContractViolation(f"frame array shape {frames.shape} invalid")
    idx = sample_frame_indices(frames.shape[0], count)
    return np.stack([_encode_frame(frames[i], model) for i in idx])


def fuse(frames: np.ndarray, t: np.ndarray, model: ModelParameters) -> np.ndarray:
    """Pool frame embeddings (T', d) into one video embedding conditioned on t.

    w = softmax_i <Q t, K f_i> / sqrt(d); pooled = sum_i w_i (V f_i);
    output = normalize(O pooled).
    """
    frames = np.asarray(frames, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    d = t.shape[0]
    if frames.ndim != 2 or frames.shape[1] != d:
        raise ContractViolation(f"frames shape {frames.shape} does not match text dim {d}")
    q = model.fusion_query @ t
    keys = frames @ model.fusion_key.T
    logits = keys @ q / np.sqrt(d)
    m = logits.max()
    e = np.exp(logits - m)
    w = e / e.sum()
    pooled = (frames @ model.fusion_value.T).T @ w
    return _normalize(model.fusion_out @ pooled)


# ---------------------------------------------------------------------------
# mass


def frame_similarities(t: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """S_i = cos(t, f_i) for each frame embedding; shape (T',)."""
    t = np.asarray(t, dtype=np.float64)
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != t.shape[0]:
        raise ContractViolation(f"frames shape {frames.shape} does not match text dim {t.shape}")
    dots = frames @ t
    denom = np.linalg.norm(frames, axis=1) * np.linalg.norm(t) + NORM_GUARD
    return np.clip(dots / denom, -1.0, 1.0)


def radius(similarities: np.ndarray, model: ModelParameters) -> np.ndarray:
    """Strictly positive radius vector (d,) from the frame-similarity vector.

    fixed-mean: exp(mean(S)) in every coordinate;
    scalar:     exp(theta * mean(S)) broadcast across d;
    linear:     exp(S @ W) per coordinate.
    """
    s = np.asarray(similarities, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ContractViolation("similarity vector must be non-empty and 1-d")
    if model.radius_variant == "fixed-mean":
        return np.full(model.dim, np.exp(s.mean()))
    if model.radius_variant == "scalar":
        return np.full(model.dim, np.exp(model.radius_theta * s.mean()))
    if s.size != model.radius_weights.shape[0]:
        raise ContractViolation(
            f"similarity length {s.size} does not match radius weights rows {model.radius_weights.shape[0]}"
        )
    return np.exp(s @ model.radius_weights)


def sample_text_mass(t: np.ndarray, r: np.ndarray, rng: SeededRng) -> np.ndarray:
    """One stochastic text embedding t + R * eps; not renormalized."""
    t = np.asarray(t, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if t.shape != r.shape:
        raise ContractViolation(f"radius shape {r.shape} does not match text {t.shape}")
    return t + r * rng.standard_normal(t.shape[0])


def support_text(t: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Point on the mass surface along the direction from t toward v.

    t_sup = t + ((v - t) / ||v - t||) * R, componentwise in R. Raises
    DegenerateGeometryError when v is within 1e-9 of t; callers skip the
    support term for such pairs.
    """
    t = np.asarray(t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    delta = v - t
    dist = np.linalg.norm(delta)
    if dist <= DEGENERATE_DISTANCE:
        raise DegenerateGeometryError("video embedding coincides with text embedding")
    return t + (delta / dist) * r


# ---------------------------------------------------------------------------
# core, objectives and model


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1].

    Denominator carries a 1e-12 guard so degenerate zero vectors do not
    divide by zero (they return 0 instead of NaN).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractViolation(f"dimension mismatch: {a.shape} vs {b.shape}")
    s = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b) + NORM_GUARD))
    return float(min(1.0, max(-1.0, s)))


def box_muller_trig(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms on [0, 1), pairwise along the last
    axis: z[2k] = r cos(a), z[2k+1] = r sin(a), r = sqrt(-2 log(1 - u[2k])),
    a = 2 pi u[2k+1]."""
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    ang = 2.0 * np.pi * u[..., 1::2]
    np.multiply(r, np.cos(ang), out=out[..., 0::2])
    np.multiply(r, np.sin(ang), out=out[..., 1::2])
    return out


def symmetric_ce(sims: np.ndarray, log_lambda: float) -> tuple[float, float, float]:
    """(l_t2v, l_v2t, l_ce) for a square similarity matrix under the clamped
    logit scale lambda = min(exp(log_lambda), LAMBDA_MAX).

    Any matrix is accepted, so each row and each column is shifted by its
    own maximum; this closed form is the oracle of `_ce_terms`."""
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[0] != sims.shape[1]:
        raise ContractViolation("similarity matrix must be square")
    if sims.shape[0] == 0:
        raise ContractViolation("empty similarity matrix")
    lam = float(min(np.exp(log_lambda), LAMBDA_MAX))
    logits = lam * sims
    diag = np.diagonal(logits)
    row_max = logits.max(axis=1)
    col_max = logits.max(axis=0)
    row_lse = np.log(np.exp(logits - row_max[:, None]).sum(axis=1)) + row_max
    col_lse = np.log(np.exp(logits - col_max[None, :]).sum(axis=0)) + col_max
    l_t2v = float(np.mean(row_lse - diag))
    l_v2t = float(np.mean(col_lse - diag))
    return l_t2v, l_v2t, 0.5 * (l_t2v + l_v2t)


def unflatten_params(params: ModelParameters, names: list[str], flat: np.ndarray) -> None:
    pos = 0
    for n in names:
        old = getattr(params, n)
        restore_param(params, n, flat[pos : pos + old.size].reshape(old.shape))
        pos += old.size
    if pos != flat.size:
        raise ContractViolation("flat parameter vector length mismatch")


# ---------------------------------------------------------------------------
# layout references


def cos_grid_strided(rows: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`mass.cos_grid` with its dots in matmul's own (..., m, n, S) layout,
    read through a transposed view by a fresh divide."""
    lead = range(rows.ndim - 3)
    dots = np.matmul(stack, rows.transpose(*lead, -2, -1, -3))
    dots = dots.transpose(*range(dots.ndim - 3), -1, -3, -2)
    norms = row_norms(rows)
    return dots / (norms[..., None] + NORM_GUARD), norms


def pooled_copied(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`encoders._pooled` as matmul's (..., n, m, d) result copied into the
    (..., m, n, d) layout."""
    return np.ascontiguousarray(np.matmul(weights.swapaxes(-3, -2), values).swapaxes(-3, -2))


def cos_grid_backward_strided(lead, rows, stack, sims, norms) -> tuple[np.ndarray, np.ndarray]:
    """`objectives._cos_grid_backward` with d_rows a transposed view of
    matmul's (m, S, d) result, and the stack's gradient as one GEMM per row
    (one-term products when S = 1)."""
    d_rows = np.matmul(lead.transpose(1, 0, 2), stack).transpose(1, 0, 2)
    d_rows -= rows * (row_sums(lead, sims) / norms)[..., None]
    d_stack = np.matmul(lead.transpose(1, 2, 0), rows.transpose(1, 0, 2))
    return d_rows, d_stack


def normalize_backward_fresh(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """`objectives._normalize_backward` into fresh arrays, d_unit unwritten."""
    inner = row_sums(unit, d_unit)[..., None]
    return (d_unit - unit * inner) / norms[..., None]


def attend_fresh(texts: np.ndarray, keys: np.ndarray, model: ModelParameters) -> tuple[np.ndarray, np.ndarray]:
    """`encoders.attend`'s (queries, weights), each softmax step into a
    fresh array."""
    n, frames, d = keys.shape[-3:]
    queries = _product(texts, model.fusion_query, model.copies is not None and texts.ndim == 3)
    flat = keys.reshape(keys.shape[:-3] + (n * frames, d))
    logits = _product(queries, flat, model.copies is not None and queries.ndim == 3)
    logits = logits.reshape(logits.shape[:-1] + (n, frames)) / np.sqrt(d)
    shifted = np.exp(logits - row_max(logits)[..., None])
    return queries, shifted / row_sums(shifted)[..., None]


def fuse_output_fresh(weights: np.ndarray, mask: np.ndarray | None, outputs: np.ndarray):
    """`encoders.fuse_output`'s (norms, fused) from `pooled_copied`, the
    unit vectors a fresh divide."""
    pre = pooled_copied(weights, outputs)
    if mask is not None:
        pre *= mask
    norms = row_norms(pre)
    return norms, pre / norms[..., None]


# ---------------------------------------------------------------------------
# dataset


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm <= 1e-12:
        raise ContractViolation("cannot normalize a zero vector")
    return v / norm


def generate(spec: SyntheticSpec) -> list[PairRecord]:
    """Deterministic pair list; the last TEST_FRACTION of ids is the test
    split."""
    c = spec.concept_dim
    count = spec.mask_count
    pool = None
    if spec.distractors > 0:
        pool_size = DISTRACTOR_POOL_FACTOR * c
        raw = substream(spec.seed, _STREAM_POOL).standard_normal(pool_size * c)
        pool = raw.reshape(pool_size, c)
        pool = pool / np.linalg.norm(pool, axis=1)[:, None]

    test_start = spec.pairs - int(spec.pairs * TEST_FRACTION)
    records = []
    for pid in range(spec.pairs):
        rng = substream(spec.seed, _STREAM_PAIR, pid)
        z = _unit(rng.standard_normal(c))
        frames = np.empty((spec.raw_frames, c))
        for f in range(spec.raw_frames):
            frame = z.copy()
            if spec.distractors > 0:
                u = rng.uniform(2 * spec.distractors)
                idx = (u[0::2] * pool.shape[0]).astype(np.int64)
                frame = frame + (u[1::2, None] * pool[idx]).sum(axis=0)
            if spec.noise_sigma > 0.0:
                frame = frame + spec.noise_sigma * rng.standard_normal(c)
            frames[f] = _unit(frame)
        keep = np.argsort(-np.abs(z), kind="stable")[:count]
        text = np.zeros(c)
        text[keep] = z[keep]
        text = _unit(text)
        split = "test" if pid >= test_start else "train"
        records.append(PairRecord(pair_id=pid, text=text, video=frames, split=split))
    return records


# ---------------------------------------------------------------------------
# PCG64 seeding

_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1
PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def pcg64_srandom(initstate: int, initseq: int) -> tuple[int, int]:
    """pcg64_srandom_r on 128-bit Python ints: the generator starts at state
    0 with inc = initseq << 1 | 1, steps, adds initstate and steps again.
    Returns (state, inc)."""
    inc = ((initseq << 1) | 1) & _U128
    state = (0 * PCG64_MULT + inc) & _U128
    state = ((state + initstate) * PCG64_MULT + inc) & _U128
    return state, inc


def pcg64_words(seed: int, stream: int) -> list[int]:
    """[state lo, state hi, inc lo, inc hi] of SeededRng(seed, stream)'s
    PCG64: numpy's own SeedSequence words, seeded as numpy's PCG64 does
    (initstate from words 0-1, initseq from words 2-3, high word first)."""
    a, b, c, d = (int(w) for w in np.random.SeedSequence([seed, stream]).generate_state(4, np.uint64))
    state, inc = pcg64_srandom((a << 64) | b, (c << 64) | d)
    return [state & _U64, state >> 64, inc & _U64, inc >> 64]
