"""Contrastive objectives over a batch of text-video pairs, with gradients.

The training objective treats a text as a stochastic mass rather than a
point: the deterministic text embedding is shifted by radius-scaled Gaussian
noise before entering a symmetric InfoNCE loss, and a support-text term pulls
the shell of the mass toward the paired video. Everything here is plain
numpy with a hand-written backward pass; `tests/test_objectives.py` checks it
against central finite differences.

Loss modes
    "t-mass"             l_total = l_s + alpha * l_sup
    "baseline"           l_total = l_ce (deterministic embeddings only)
    "ablation-ce-plus-s" l_total = l_ce + l_s

l_ce on the deterministic embeddings is always computed and reported for
diagnostics; in "t-mass" mode it receives no gradient. Video embeddings are
text-conditioned, so each batch fuses an (N, N) grid of candidate embeddings:
entry (i, j) is video j pooled under text i's attention. The S noise samples
of a batch form one (S, N, d) stack, and every contraction over the grid is
a (batched) matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, DegenerateGeometryError, NORM_GUARD, SeededRng
from .encoders import ZERO_NORM_THRESHOLD, sample_frame_indices
from .mass import DEGENERATE_DISTANCE
from .model import LAMBDA_MAX, MODES, ModelParameters, get_param, trainable_names

DEFAULT_ALPHA = 1.2


@dataclass
class PairBatch:
    """Raw features for N aligned text-video pairs.

    text: (N, c) raw text features.
    videos: (N, T, c) raw per-frame features; T raw frames per video.
    """

    text: np.ndarray
    videos: np.ndarray

    def __post_init__(self):
        self.text = np.asarray(self.text, dtype=np.float64)
        self.videos = np.asarray(self.videos, dtype=np.float64)
        if self.text.ndim != 2 or self.videos.ndim != 3:
            raise ContractViolation("batch wants text (N, c) and videos (N, T, c)")
        if self.text.shape[0] != self.videos.shape[0]:
            raise ContractViolation("text and video counts disagree")
        if self.text.shape[1] != self.videos.shape[2]:
            raise ContractViolation("text and frame feature widths disagree")

    @property
    def size(self) -> int:
        return self.text.shape[0]


@dataclass
class LossBreakdown:
    """Per-term losses and the weighted total for one batch."""

    l_t2v: float
    l_v2t: float
    l_ce: float
    l_s: float | None
    l_sup: float | None
    l_total: float
    alpha: float


def mode_weights(mode: str, alpha: float) -> tuple[float, float, float]:
    """(w_ce, w_s, w_sup) applied to the per-term losses."""
    if mode == "t-mass":
        return 0.0, 1.0, float(alpha)
    if mode == "baseline":
        return 1.0, 0.0, 0.0
    if mode == "ablation-ce-plus-s":
        return 1.0, 1.0, 0.0
    raise ContractViolation(f"unknown training mode {mode!r}")


# ---------------------------------------------------------------------------
# symmetric cross-entropy


def _ce_terms(sims: np.ndarray, lam: float):
    """Row and column InfoNCE terms for each matrix of a (..., N, N) stack;
    rows are texts, columns videos.

    Returns (l_t2v, l_v2t, p_row, p_col): the terms have the leading shape
    (0-d for one matrix) and p_row / p_col are the softmax tables reused by
    the backward pass.
    """
    logits = lam * sims
    row_max = logits.max(axis=-1)
    exp_row = np.exp(logits - row_max[..., None])
    row_sum = exp_row.sum(axis=-1)
    p_row = exp_row / row_sum[..., None]
    col_max = logits.max(axis=-2)
    exp_col = np.exp(logits - col_max[..., None, :])
    col_sum = exp_col.sum(axis=-2)
    p_col = exp_col / col_sum[..., None, :]
    diag = np.diagonal(logits, axis1=-2, axis2=-1)
    l_t2v = np.mean(np.log(row_sum) + row_max - diag, axis=-1)
    l_v2t = np.mean(np.log(col_sum) + col_max - diag, axis=-1)
    return l_t2v, l_v2t, p_row, p_col


def _ce_backward(sims: np.ndarray, lam: float, p_row: np.ndarray, p_col: np.ndarray, upstream: float):
    """Gradients of upstream * l_ce where l_ce = (l_t2v + l_v2t) / 2, for
    each matrix of a (..., N, N) stack.

    Returns (d_sims, d_lam); d_lam has the leading shape and is the
    derivative with respect to the unclamped scale value.
    """
    n = sims.shape[-1]
    p_sum = p_row + p_col
    d_sims = (upstream * lam / (2.0 * n)) * p_sum
    idx = np.arange(n)
    d_sims[..., idx, idx] -= upstream * lam / n
    trace = np.trace(sims, axis1=-2, axis2=-1)
    d_lam = (np.sum(p_sum * sims, axis=(-2, -1)) - 2.0 * trace) * upstream / (2.0 * n)
    return d_sims, d_lam


def symmetric_ce(sims: np.ndarray, log_lambda: float) -> tuple[float, float, float]:
    """(l_t2v, l_v2t, l_ce) for a square similarity matrix under the clamped
    logit scale lambda = min(exp(log_lambda), LAMBDA_MAX)."""
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[0] != sims.shape[1]:
        raise ContractViolation("similarity matrix must be square")
    if sims.shape[0] == 0:
        raise ContractViolation("empty similarity matrix")
    lam = float(min(np.exp(log_lambda), LAMBDA_MAX))
    l_t2v, l_v2t, _, _ = _ce_terms(sims, lam)
    l_t2v, l_v2t = float(l_t2v), float(l_v2t)
    return l_t2v, l_v2t, 0.5 * (l_t2v + l_v2t)


# ---------------------------------------------------------------------------
# cosine grids: rows against per-row stacks of vectors


def _cos_grid(rows: np.ndarray, stack: np.ndarray, stack_norms: np.ndarray):
    """Cosines between rows[s, i] and stack[i, j] for every s, i, j.

    rows: (S, m, d), S samples of m rows; stack: (m, n, d) with its norms
    (m, n). Returns (sims, row_norms) shaped (S, m, n) and (S, m). Values
    are not clamped; callers stay inside (-1, 1) up to roundoff.
    """
    # (m, n, d) @ (m, d, S): one BLAS product per row i covers every sample
    dots = np.matmul(stack, rows.transpose(1, 2, 0)).transpose(2, 0, 1)
    row_norms = np.linalg.norm(rows, axis=-1)
    sims = dots / (row_norms[..., None] * stack_norms + NORM_GUARD)
    return sims, row_norms


def _cos_grid_backward(d_sims, rows, stack, sims, row_norms, stack_norms):
    """Backward of `_cos_grid`; returns d_rows (S, m, d) and d_stack
    (m, n, d) summed over the samples."""
    denom = row_norms[..., None] * stack_norms + NORM_GUARD
    lead = d_sims / denom
    d_rows = np.matmul(lead.transpose(1, 0, 2), stack).transpose(1, 0, 2)
    d_rows -= rows * np.sum(d_sims * sims * stack_norms / (row_norms[..., None] * denom), axis=-1)[..., None]
    d_stack = np.matmul(lead.transpose(1, 2, 0), rows.transpose(1, 0, 2))
    d_stack -= np.sum(d_sims * sims * row_norms[..., None] / (stack_norms * denom), axis=0)[..., None] * stack
    return d_rows, d_stack


def _normalize_backward(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """Backward of x -> x / ||x|| along the last axis, given the unit output."""
    inner = np.sum(unit * d_unit, axis=-1, keepdims=True)
    return (d_unit - unit * inner) / norms[..., None]


# ---------------------------------------------------------------------------
# forward


@dataclass
class ForwardCache:
    """Every intermediate the backward pass replays. Internal."""

    params: ModelParameters = None
    mode: str = ""
    alpha: float = 0.0
    eps: np.ndarray = None
    drop_mask: np.ndarray = None
    raw_text: np.ndarray = None
    raw_frames: np.ndarray = None
    pt: np.ndarray = None
    pf: np.ndarray = None
    text_norms: np.ndarray = None
    frame_norms: np.ndarray = None
    text_emb: np.ndarray = None
    frame_emb: np.ndarray = None
    attn_q: np.ndarray = None
    attn_k: np.ndarray = None
    attn_v: np.ndarray = None
    attn_w: np.ndarray = None
    pooled: np.ndarray = None
    pooled_dropped: np.ndarray = None
    fused_pre: np.ndarray = None
    fused_norms: np.ndarray = None
    fused: np.ndarray = None
    fused_unit_norms: np.ndarray = None
    lam: float = 0.0
    lam_clamped: bool = False
    ce_grid: tuple = None
    s_grids: tuple = None
    frame_sims: tuple = None
    sbar: np.ndarray = None
    radius_grid: np.ndarray = None
    stochastic: np.ndarray = None
    valid: np.ndarray = None
    support_dist: np.ndarray = None
    support_dir: np.ndarray = None
    support_rows: np.ndarray = None
    sup_grid: tuple = None


def forward_batch(
    batch: PairBatch,
    params: ModelParameters,
    mode: str = "t-mass",
    alpha: float = DEFAULT_ALPHA,
    eps: np.ndarray | None = None,
    drop_mask: np.ndarray | None = None,
) -> tuple[LossBreakdown, ForwardCache]:
    """One batch through encoders, fusion, radius, sampling, and losses.

    eps: (samples, N, d) standard-normal draws; required outside baseline
    mode. Multiple sample slices average their stochastic CE terms.
    drop_mask: optional (N, N, d) inverted-dropout mask (zeros and
    1 / keep-probability), applied to the pooled fusion grid.
    """
    if mode not in MODES:
        raise ContractViolation(f"unknown training mode {mode!r}")
    if alpha < 0:
        raise ContractViolation("alpha must be nonnegative")
    n = batch.size
    if n < 1:
        raise ContractViolation("empty batch")
    d = params.dim
    if batch.text.shape[1] != params.concept_dim:
        raise ContractViolation("batch feature width does not match model")

    cache = ForwardCache(params=params, mode=mode, alpha=float(alpha))
    cache.raw_text = batch.text
    idx = sample_frame_indices(batch.videos.shape[1], params.frame_count)
    raw_frames = batch.videos[:, idx, :]
    cache.raw_frames = raw_frames

    stack = params.stack
    pt = batch.text @ stack.proj_text.T
    pre_text = pt @ stack.adapter_text.T if stack.adapters_enabled else pt
    text_norms = np.linalg.norm(pre_text, axis=1)
    if np.any(text_norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("text embedding collapsed to zero norm")
    text_emb = pre_text / text_norms[:, None]

    pf = raw_frames @ stack.proj_frame.T
    pre_frame = pf @ stack.adapter_frame.T if stack.adapters_enabled else pf
    frame_norms = np.linalg.norm(pre_frame, axis=2)
    if np.any(frame_norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("frame embedding collapsed to zero norm")
    frame_emb = pre_frame / frame_norms[..., None]

    cache.pt, cache.pf = pt, pf
    cache.text_norms, cache.frame_norms = text_norms, frame_norms
    cache.text_emb, cache.frame_emb = text_emb, frame_emb

    # text-conditioned fusion over the full (text, video) grid
    fusion = params.fusion
    frames = raw_frames.shape[1]
    attn_q = text_emb @ fusion.query_map.T
    attn_k = frame_emb @ fusion.key_map.T
    attn_v = frame_emb @ fusion.value_map.T
    logits = (attn_q @ attn_k.reshape(n * frames, d).T).reshape(n, n, frames) / np.sqrt(d)
    shifted = np.exp(logits - logits.max(axis=2, keepdims=True))
    attn_w = shifted / shifted.sum(axis=2, keepdims=True)
    # pooled[i, j] = attn_w[i, j] @ attn_v[j]: one product per video j
    pooled = np.matmul(attn_w.transpose(1, 0, 2), attn_v).transpose(1, 0, 2)
    if drop_mask is not None:
        if drop_mask.shape != (n, n, d):
            raise ContractViolation("dropout mask shape mismatch")
        pooled_dropped = pooled * drop_mask
    else:
        pooled_dropped = pooled
    fused_pre = pooled_dropped @ fusion.output_map.T
    fused_norms = np.linalg.norm(fused_pre, axis=2)
    if np.any(fused_norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("fused video embedding collapsed to zero norm")
    fused = fused_pre / fused_norms[..., None]
    # the cosine grids below all measure against fused; norm it once
    fused_unit_norms = np.linalg.norm(fused, axis=2)

    cache.attn_q, cache.attn_k, cache.attn_v, cache.attn_w = attn_q, attn_k, attn_v, attn_w
    cache.pooled, cache.pooled_dropped = pooled, pooled_dropped
    cache.drop_mask = drop_mask
    cache.fused_pre, cache.fused_norms, cache.fused = fused_pre, fused_norms, fused
    cache.fused_unit_norms = fused_unit_norms

    lam_raw = np.exp(params.log_lambda)
    cache.lam_clamped = bool(lam_raw > LAMBDA_MAX)
    lam = float(min(lam_raw, LAMBDA_MAX))
    cache.lam = lam

    ce_sims, ce_rn = _cos_grid(text_emb[None], fused, fused_unit_norms)
    l_t2v, l_v2t, p_row, p_col = _ce_terms(ce_sims[0], lam)
    l_t2v, l_v2t = float(l_t2v), float(l_v2t)
    l_ce = 0.5 * (l_t2v + l_v2t)
    cache.ce_grid = (ce_sims[0], ce_rn[0], p_row, p_col)

    l_s = None
    l_sup = None
    if mode != "baseline":
        if eps is None:
            raise ContractViolation("stochastic modes need noise draws")
        eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim == 2:
            eps = eps[None, :, :]
        if eps.shape[1:] != (n, d):
            raise ContractViolation("noise shape mismatch")
        cache.eps = eps

        nf = np.linalg.norm(frame_emb, axis=2)
        sims_f, nt = _cos_grid(text_emb[None], frame_emb, nf)
        sims_f, nt = sims_f[0], nt[0]
        cache.frame_sims = (sims_f, nt, nf)
        rparams = params.radius
        if rparams.variant == "linear":
            radius_grid = np.exp(sims_f @ rparams.weights)
            sbar = None
        else:
            sbar = sims_f.mean(axis=1)
            radius_grid = np.exp(rparams.theta * sbar)[:, None] * np.ones(d) \
                if rparams.variant == "scalar" else np.exp(sbar)[:, None] * np.ones(d)
        cache.sbar = sbar
        cache.radius_grid = radius_grid

        # all S samples t + R * eps_s as one (S, N, d) stack
        stochastic = text_emb + radius_grid * eps
        s_sims, s_rn = _cos_grid(stochastic, fused, fused_unit_norms)
        s_t2v, s_v2t, s_prow, s_pcol = _ce_terms(s_sims, lam)
        l_s = float(np.mean(0.5 * (s_t2v + s_v2t)))
        cache.stochastic = stochastic
        cache.s_grids = (s_sims, s_rn, s_prow, s_pcol)

        fused_diag = fused[np.arange(n), np.arange(n)]
        delta = fused_diag - text_emb
        dist = np.linalg.norm(delta, axis=1)
        valid = dist > DEGENERATE_DISTANCE
        if not np.any(valid):
            raise DegenerateGeometryError("every pair has video == text embedding")
        cache.valid = valid
        vidx = np.flatnonzero(valid)
        direction = delta[vidx] / dist[vidx, None]
        support_rows = text_emb[vidx] + direction * radius_grid[vidx]
        cache.support_dist = dist[vidx]
        cache.support_dir = direction
        cache.support_rows = support_rows
        sub = np.ix_(vidx, vidx)
        sup_sims, sup_rn = _cos_grid(support_rows[None], fused[sub], fused_unit_norms[sub])
        sup_t2v, sup_v2t, sup_prow, sup_pcol = _ce_terms(sup_sims[0], lam)
        l_sup = 0.5 * (float(sup_t2v) + float(sup_v2t))
        cache.sup_grid = (sup_sims[0], sup_rn[0], sup_prow, sup_pcol)

    w_ce, w_s, w_sup = mode_weights(mode, alpha)
    l_total = w_ce * l_ce
    if l_s is not None:
        l_total = l_total + w_s * l_s
    if l_sup is not None:
        l_total = l_total + w_sup * l_sup

    breakdown = LossBreakdown(
        l_t2v=l_t2v,
        l_v2t=l_v2t,
        l_ce=l_ce,
        l_s=l_s,
        l_sup=l_sup,
        l_total=float(l_total),
        alpha=float(alpha),
    )
    return breakdown, cache


# ---------------------------------------------------------------------------
# backward


def backward_batch(cache: ForwardCache) -> dict[str, np.ndarray]:
    """Gradients of l_total with respect to every trainable parameter.

    Returns a dict keyed by the canonical trainable names for the cached
    mode. Terms whose mode weight is zero contribute exactly nothing.
    """
    params = cache.params
    mode = cache.mode
    w_ce, w_s, w_sup = mode_weights(mode, cache.alpha)
    names = trainable_names(params, mode)
    grads = {name: np.zeros_like(get_param(params, name)) for name in names}

    text_emb = cache.text_emb
    frame_emb = cache.frame_emb
    fused = cache.fused
    n, d = text_emb.shape
    lam = cache.lam

    d_text = np.zeros_like(text_emb)
    d_frames = np.zeros_like(frame_emb)
    d_fused = np.zeros_like(fused)
    d_radius = np.zeros_like(cache.radius_grid) if cache.radius_grid is not None else None
    d_lam_total = 0.0

    fused_sn = cache.fused_unit_norms
    if w_ce != 0.0:
        ce_sims, ce_rn, p_row, p_col = cache.ce_grid
        d_sims, d_lam = _ce_backward(ce_sims, lam, p_row, p_col, w_ce)
        d_lam_total += d_lam
        d_rows, d_stack = _cos_grid_backward(
            d_sims[None], text_emb[None], fused, ce_sims[None], ce_rn[None], fused_sn
        )
        d_text += d_rows[0]
        d_fused += d_stack

    if mode != "baseline" and w_s != 0.0:
        s_sims, s_rn, s_prow, s_pcol = cache.s_grids
        d_sims, d_lam = _ce_backward(s_sims, lam, s_prow, s_pcol, w_s / s_sims.shape[0])
        d_lam_total += np.sum(d_lam)
        d_rows, d_stack = _cos_grid_backward(d_sims, cache.stochastic, fused, s_sims, s_rn, fused_sn)
        d_fused += d_stack
        d_text += d_rows.sum(axis=0)
        d_radius += (cache.eps * d_rows).sum(axis=0)

    if mode != "baseline" and w_sup != 0.0:
        sup_sims, sup_rn, sup_prow, sup_pcol = cache.sup_grid
        vidx = np.flatnonzero(cache.valid)
        sub = np.ix_(vidx, vidx)
        d_sims, d_lam = _ce_backward(sup_sims, lam, sup_prow, sup_pcol, w_sup)
        d_lam_total += d_lam
        d_rows, d_stack = _cos_grid_backward(
            d_sims[None], cache.support_rows[None], fused[sub], sup_sims[None], sup_rn[None],
            fused_sn[sub],
        )
        d_rows = d_rows[0]
        d_fused[sub] += d_stack
        # support row: t + direction * R with direction = (v - t) / ||v - t||
        d_text[vidx] += d_rows
        d_radius[vidx] += cache.support_dir * d_rows
        d_dir = cache.radius_grid[vidx] * d_rows
        inner = np.sum(cache.support_dir * d_dir, axis=1, keepdims=True)
        d_delta = (d_dir - cache.support_dir * inner) / cache.support_dist[:, None]
        d_fused[vidx, vidx] += d_delta
        d_text[vidx] -= d_delta

    if d_radius is not None and (w_s != 0.0 or w_sup != 0.0):
        sims_f, nt, nf = cache.frame_sims
        rparams = params.radius
        if rparams.variant == "linear":
            d_pre = d_radius * cache.radius_grid
            if "radius_weights" in grads:
                grads["radius_weights"] += sims_f.T @ d_pre
            d_sims_f = d_pre @ rparams.weights.T
        else:
            row_sum = d_radius.sum(axis=1)
            if rparams.variant == "scalar":
                expo = np.exp(rparams.theta * cache.sbar)
                d_sbar = rparams.theta * expo * row_sum
                if "radius_theta" in grads:
                    grads["radius_theta"] += np.sum(cache.sbar * expo * row_sum)
            else:
                d_sbar = np.exp(cache.sbar) * row_sum
            d_sims_f = np.repeat(d_sbar[:, None], sims_f.shape[1], axis=1) / sims_f.shape[1]
        d_rows, d_stack = _cos_grid_backward(
            d_sims_f[None], text_emb[None], frame_emb, sims_f[None], nt[None], nf
        )
        d_text += d_rows[0]
        d_frames += d_stack

    # fusion grid backward: every contraction is a (batched) matmul
    fusion = params.fusion
    frames = frame_emb.shape[1]
    d_pre_fused = _normalize_backward(fused, cache.fused_norms, d_fused)
    grads["fusion_out"] += d_pre_fused.reshape(-1, d).T @ cache.pooled_dropped.reshape(-1, d)
    d_pooled = d_pre_fused @ fusion.output_map
    if cache.drop_mask is not None:
        d_pooled = d_pooled * cache.drop_mask
    # per video j: d_w[:, j] = d_pooled[:, j] @ v_j.T and d_v[j] = w[:, j].T @ d_pooled[:, j]
    d_pooled_j = d_pooled.transpose(1, 0, 2)
    d_w = np.matmul(d_pooled_j, cache.attn_v.transpose(0, 2, 1)).transpose(1, 0, 2)
    d_v = np.matmul(cache.attn_w.transpose(1, 2, 0), d_pooled_j)
    inner_w = np.sum(cache.attn_w * d_w, axis=2, keepdims=True)
    d_logits = (cache.attn_w * (d_w - inner_w)).reshape(n, n * frames)
    scale = 1.0 / np.sqrt(d)
    d_q = (d_logits @ cache.attn_k.reshape(n * frames, d)) * scale
    d_k = (d_logits.T @ cache.attn_q) * scale
    grads["fusion_query"] += d_q.T @ text_emb
    d_text += d_q @ fusion.query_map
    frame_rows = frame_emb.reshape(n * frames, d)
    grads["fusion_key"] += d_k.T @ frame_rows
    d_frames += (d_k @ fusion.key_map).reshape(n, frames, d)
    d_v = d_v.reshape(n * frames, d)
    grads["fusion_value"] += d_v.T @ frame_rows
    d_frames += (d_v @ fusion.value_map).reshape(n, frames, d)

    # encoder backward; projections are frozen, adapters may be absent
    stack = params.stack
    d_pre_frame = _normalize_backward(frame_emb, cache.frame_norms, d_frames)
    d_pre_text = _normalize_backward(text_emb, cache.text_norms, d_text)
    if stack.adapters_enabled:
        grads["adapter_frame"] += d_pre_frame.reshape(-1, d).T @ cache.pf.reshape(-1, d)
        grads["adapter_text"] += d_pre_text.T @ cache.pt

    if not cache.lam_clamped:
        grads["log_lambda"] = grads["log_lambda"] + d_lam_total * lam

    return grads


# ---------------------------------------------------------------------------
# noise and dropout draws for the batch pipeline


def draw_noise(rng: SeededRng, samples: int, n: int, d: int) -> np.ndarray:
    """(samples, n, d) standard-normal draws from one stream, in one call so
    a smaller draw is a prefix of a larger one."""
    if samples < 1 or n < 1 or d < 1:
        raise ContractViolation("noise draw wants positive sizes")
    return rng.standard_normal(samples * n * d).reshape(samples, n, d)


def dropout_grid_mask(rng: SeededRng, n: int, d: int, rate: float) -> np.ndarray | None:
    """Inverted-dropout mask for the pooled (N, N, d) fusion grid.

    An (i, j) cell whose d uniforms all fall below the rate is kept whole
    instead of dropped whole, since a zero fused vector has no direction;
    every other cell is masked entry by entry as drawn."""
    if rate <= 0.0:
        return None
    if rate >= 1.0:
        raise ContractViolation("dropout rate must stay below 1")
    keep = rng.uniform(n * n * d).reshape(n, n, d) >= rate
    keep |= ~keep.any(axis=2, keepdims=True)
    return keep.astype(np.float64) / (1.0 - rate)


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradientCheckResult:
    """Analytic-vs-numeric comparison for one configuration."""

    passed: bool
    worst_rel: float
    worst_abs: float
    checked: int
    failures: list[str]


def gradient_check(
    params: ModelParameters,
    batch: PairBatch,
    mode: str,
    alpha: float,
    eps: np.ndarray | None,
    drop_mask: np.ndarray | None = None,
    h: float = 1e-4,
    rel_tol: float = 1e-4,
    abs_tol: float = 1e-6,
    small_grad: float = 1e-3,
) -> GradientCheckResult:
    """Compare the hand-written backward pass against central differences.

    Every trainable parameter for the mode is flattened into one vector;
    noise and dropout are held fixed so the loss is deterministic in the
    parameters. Entries with |gradient| < small_grad must agree within
    abs_tol, everything else within rel_tol relative error.
    """
    from .core import finite_diff_gradient
    from .model import flatten_grads, flatten_params, unflatten_params

    names = trainable_names(params, mode)
    x0 = flatten_params(params, names)
    try:
        _, cache = forward_batch(batch, params, mode, alpha, eps=eps, drop_mask=drop_mask)
        analytic = flatten_grads(backward_batch(cache), names)

        def loss_at(flat: np.ndarray) -> float:
            unflatten_params(params, names, flat)
            breakdown, _ = forward_batch(batch, params, mode, alpha, eps=eps, drop_mask=drop_mask)
            return breakdown.l_total

        numeric = finite_diff_gradient(loss_at, x0, h=h)
    finally:
        unflatten_params(params, names, x0)

    sizes = [get_param(params, name).size for name in names]
    bounds = np.cumsum([0] + sizes)
    abs_err = np.abs(analytic - numeric)
    magnitude = np.maximum(np.abs(analytic), np.abs(numeric))
    rel_err = abs_err / np.maximum(magnitude, 1e-300)
    ok = np.where(magnitude < small_grad, abs_err <= abs_tol, rel_err <= rel_tol)
    failures = []
    for i in np.flatnonzero(~ok):
        owner = names[int(np.searchsorted(bounds, i, side="right")) - 1]
        failures.append(
            f"{owner}[{i - bounds[np.searchsorted(bounds, i, side='right') - 1]}]: "
            f"analytic={analytic[i]:.3e} numeric={numeric[i]:.3e}"
        )
    large = magnitude >= small_grad
    worst_rel = float(rel_err[large].max()) if np.any(large) else 0.0
    return GradientCheckResult(
        passed=bool(np.all(ok)),
        worst_rel=worst_rel,
        worst_abs=float(abs_err.max()) if abs_err.size else 0.0,
        checked=int(analytic.size),
        failures=failures,
    )
