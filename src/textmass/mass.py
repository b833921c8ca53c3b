"""Stochastic text-mass mechanics.

A text embedding t is widened into a mass of valid representations
t_s = t + R * eps, where eps is standard-normal noise and the radius vector R
sets the per-coordinate scale. R is similarity-aware: it is derived from the
cosine similarities between t and the candidate video's frame embeddings,
through one of three variants (fixed mean, learnable scalar, linear map);
model.py names them and the arrays each holds. Every variant is
R = exp(S @ W) for the (T', d) map W of `radius_map`: the model's
radius_weights, or 1/T' (fixed mean) or radius_theta/T' (scalar) in every
entry. The support vector t_sup marks the point of the mass surface
along the direction from t toward the fused video embedding; inference draws
M samples per pair and keeps the one most similar to the video. Training and
inference run the batched radius stage `radius_batch` and form every mass
sample and support row with `text_mass`; their per-vector oracles are
`radius`, `sample_text_mass` and `support_text` in `tests/oracle.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    NORM_GUARD,
    ContractViolation,
    SeededRng,
    check_field_types,
    row_norms,
    row_sums,
)
from .model import ModelParameters
# unused here: held for perfbench/worker.py, which imports RADIUS_VARIANTS from mass
from .model import RADIUS_VARIANTS  # noqa: F401

# Distance below which v and t are treated as coincident (no support direction).
DEGENERATE_DISTANCE = 1e-9


@dataclass
class SamplingConfig:
    """Best-of-M inference settings: trials is the pool size M per pair."""

    trials: int = 20

    def __post_init__(self):
        check_field_types(self)
        if self.trials < 1:
            raise ContractViolation("sampling trial count must be >= 1")


def cos_grid(rows: np.ndarray, stack: np.ndarray):
    """Cosines between rows[s, i] and stack[i, j] for every s, i, j.

    rows: (S, m, d), S samples of m rows; stack: (m, n, d) of unit vectors.
    The dots divide by the row norms alone, so the stack must already be
    unit length, as `fuse_output` and `encode_batch` leave their outputs.
    Returns (sims, row_norms) shaped (S, m, n) and (S, m). Values are not
    clamped; callers stay inside (-1, 1) up to roundoff. Either side may
    lead with a copy axis, which the results then lead with too.
    """
    # (m, n, d) @ (m, d, S): one BLAS product per row i covers every sample
    lead = range(rows.ndim - 3)
    dots = np.matmul(stack, rows.transpose(*lead, -2, -1, -3))
    dots = dots.transpose(*range(dots.ndim - 3), -1, -3, -2)
    norms = row_norms(rows)
    return dots / (norms[..., None] + NORM_GUARD), norms


@dataclass
class Radii:
    """Radius stage of n aligned (text, frames) pairs: text-frame cosines
    (n, T') with the text norms they divide by, and the radii (n, d)."""

    sims: np.ndarray
    text_norms: np.ndarray
    radius: np.ndarray


def radius_map(model: ModelParameters, frames: int) -> np.ndarray:
    """The map W of R = exp(S @ W) over T' = frames similarities: the
    linear weights, or 1/T' (fixed-mean) or theta/T' (scalar) in all of
    its (T', d) entries. Weights (k, T', d) or theta (k,) with copies give
    (k, T', d)."""
    if model.radius_variant == "linear":
        return model.radius_weights
    scale = 1.0 if model.radius_variant == "fixed-mean" else np.asarray(model.radius_theta)
    return np.multiply.outer(scale / frames, np.ones((frames, model.dim)))


def radius_batch(texts: np.ndarray, frames: np.ndarray, model: ModelParameters) -> Radii:
    """The radii exp(S @ W) of every aligned pair of texts (n, d) and unit
    frame embeddings (n, T', d), S its text-frame cosines and W the
    `radius_map`. Inputs, weights (k, T', d) and theta (k,) may carry k
    copies."""
    sims, text_norms = cos_grid(texts[..., None, :, :], frames)
    sims, text_norms = sims[..., 0, :, :], text_norms[..., 0, :]
    return Radii(sims, text_norms, np.exp(sims @ radius_map(model, sims.shape[-1])))


def pool_similarities(pool: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Clipped cosine of every pool sample with its target: (..., M, d) pool
    and (..., d) target give (..., M) scores.

    The dots, the squared sample norms and the squared target norm are each
    a `row_sums` dot, which sums every row along d on its own, in one order
    whatever is stacked beside it. So a sample's score does not depend on
    how many pairs or samples are stacked with it: batched scoring equals
    per-pair scoring bit for bit, and pools for smaller M are prefixes of
    pools for larger M. A BLAS product (np.matmul) gives no such guarantee:
    its summation order changes with the stack's shape.
    """
    dots = row_sums(pool, v[..., None, :])
    sample_sq = row_sums(pool, pool)
    target_sq = row_sums(v, v)[..., None]
    denom = np.sqrt(sample_sq) * np.sqrt(target_sq) + NORM_GUARD
    return np.clip(dots / denom, -1.0, 1.0)


def text_mass(t: np.ndarray, radius: np.ndarray, eps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Text-mass samples R * eps + t, broadcast; a support row when eps is
    the unit direction toward the video. out may be eps itself."""
    out = np.multiply(radius, eps, out=out)
    out += t
    return out


def select_best_sample(
    t: np.ndarray,
    r: np.ndarray,
    v: np.ndarray,
    cfg: SamplingConfig,
    rng: SeededRng,
) -> tuple[np.ndarray, float]:
    """Best-of-M selection: draw M mass samples, keep the one closest to v.

    The pool is one batched draw of M*d normals split into consecutive
    d-blocks, so pools for smaller M are prefixes of pools for larger M on
    the same substream. Ties break toward the lowest trial index.
    """
    t, r, v = (np.asarray(a, dtype=np.float64) for a in (t, r, v))
    samples = text_mass(t, r, rng.standard_normal(cfg.trials * t.size).reshape(cfg.trials, -1))
    sims = pool_similarities(samples, v)
    best = int(np.argmax(sims))  # argmax returns the first maximal index
    return samples[best], float(sims[best])
