"""Stochastic text-mass mechanics.

A text embedding t is widened into a mass of valid representations
t_s = t + R * eps, where eps is standard-normal noise and the radius vector R
sets the per-coordinate scale. R is similarity-aware: it is derived from the
cosine similarities between t and the candidate video's frame embeddings,
through one of three variants (fixed mean, learnable scalar, linear map).
The support vector t_sup marks the point of the mass surface along the
direction from t toward the fused video embedding; inference draws M samples
per pair and keeps the one most similar to the video. Training and inference
both run the batched radius stage `radius_batch`; `radius` is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    NORM_GUARD,
    ContractViolation,
    DegenerateGeometryError,
    SeededRng,
    row_norms,
)

RADIUS_VARIANTS = ("fixed-mean", "scalar", "linear")

# Distance below which v and t are treated as coincident (no support direction).
DEGENERATE_DISTANCE = 1e-9


@dataclass
class RadiusParameters:
    """Parameters of the similarity-aware radius module.

    variant: one of fixed-mean / scalar / linear.
    theta:   learnable scalar (scalar variant), 0 at init so R starts at 1.
    weights: (T', d) learnable matrix (linear variant), zeros at init.
             Parameter copies make theta (k,) and weights (k, T', d).
    dim:     embedding dimension d of the produced radius vector.
    trainable: scalar/linear parameters receive gradients only when true;
               used to freeze theta for variant-equivalence checks.
    """

    variant: str
    dim: int
    theta: float = 0.0
    weights: np.ndarray | None = None
    trainable: bool = True

    def __post_init__(self):
        if self.variant not in RADIUS_VARIANTS:
            raise ContractViolation(f"unknown radius variant {self.variant!r}")
        if self.variant == "linear" and self.weights is None:
            raise ContractViolation("linear radius variant requires a weight matrix")


def init_radius(variant: str, dim: int, frame_count: int) -> RadiusParameters:
    weights = np.zeros((frame_count, dim)) if variant == "linear" else None
    return RadiusParameters(variant=variant, dim=dim, theta=0.0, weights=weights)


@dataclass
class SamplingConfig:
    """Best-of-M inference settings: trials is the pool size M per pair."""

    trials: int = 20

    def __post_init__(self):
        if self.trials < 1:
            raise ContractViolation("sampling trial count must be >= 1")


def frame_similarities(t: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """S_i = cos(t, f_i) for each frame embedding; shape (T',)."""
    t = np.asarray(t, dtype=np.float64)
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != t.shape[0]:
        raise ContractViolation(f"frames shape {frames.shape} does not match text dim {t.shape}")
    dots = frames @ t
    denom = np.linalg.norm(frames, axis=1) * np.linalg.norm(t) + NORM_GUARD
    return np.clip(dots / denom, -1.0, 1.0)


def radius(similarities: np.ndarray, params: RadiusParameters) -> np.ndarray:
    """Strictly positive radius vector (d,) from the frame-similarity vector.

    fixed-mean: exp(mean(S)) in every coordinate;
    scalar:     exp(theta * mean(S)) broadcast across d;
    linear:     exp(S @ W) per coordinate.
    """
    s = np.asarray(similarities, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ContractViolation("similarity vector must be non-empty and 1-d")
    if params.variant == "fixed-mean":
        return np.full(params.dim, np.exp(s.mean()))
    if params.variant == "scalar":
        return np.full(params.dim, np.exp(params.theta * s.mean()))
    if s.size != params.weights.shape[0]:
        raise ContractViolation(
            f"similarity length {s.size} does not match radius weights rows {params.weights.shape[0]}"
        )
    return np.exp(s @ params.weights)


def cos_grid(rows: np.ndarray, stack: np.ndarray):
    """Cosines between rows[s, i] and stack[i, j] for every s, i, j.

    rows: (S, m, d), S samples of m rows; stack: (m, n, d) of unit vectors.
    The dots divide by the row norms alone, so the stack must already be
    unit length, as `fuse_batch` and `encode_batch` leave their outputs.
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


def radius_batch(texts: np.ndarray, frames: np.ndarray, params: RadiusParameters) -> Radii:
    """`radius(frame_similarities(t, f), params)` for every aligned pair of
    texts (n, d) and unit frame embeddings (n, T', d). Inputs, weights
    (k, T', d) and theta (k,) may carry k copies."""
    sims, text_norms = cos_grid(texts[..., None, :, :], frames)
    sims, text_norms = sims[..., 0, :, :], text_norms[..., 0, :]
    if params.variant == "linear":
        return Radii(sims, text_norms, np.exp(sims @ params.weights))
    mean = sims.mean(axis=-1)
    if params.variant == "scalar":
        theta = params.theta if np.ndim(params.theta) == 0 else params.theta[:, None]
        expo = np.exp(theta * mean)
    else:
        expo = np.exp(mean)
    return Radii(sims, text_norms, expo[..., None] * np.ones(params.dim))


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


def pool_similarities(pool: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Clipped cosine of every pool sample with its target: (..., M, d) pool
    and (..., d) target give (..., M) scores.

    Every reduction, ||v|| included, is a sum along the last axis of one
    row, so a sample's score does not depend on how many pairs or samples
    are stacked beside it: batched scoring equals per-pair scoring bit for
    bit, and pools for smaller M are prefixes of pools for larger M.
    """
    v = v[..., None, :]
    dots = np.sum(pool * v, axis=-1)
    denom = np.sqrt(np.sum(pool * pool, axis=-1)) * np.sqrt(np.sum(v * v, axis=-1)) + NORM_GUARD
    return np.clip(dots / denom, -1.0, 1.0)


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
    t = np.asarray(t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    d = t.shape[0]
    eps = rng.standard_normal(cfg.trials * d).reshape(cfg.trials, d)
    samples = t[None, :] + r[None, :] * eps
    sims = pool_similarities(samples, v)
    best = int(np.argmax(sims))  # argmax returns the first maximal index
    return samples[best], float(sims[best])
