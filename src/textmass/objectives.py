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
a (batched) matmul. The encode, fuse and radius stages are the batched
functions of `encoders` and `mass` that inference runs too; each stage's
backward lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ContractViolation, DegenerateGeometryError, NORM_GUARD, SeededRng
from .encoders import (
    Encoded,
    Fused,
    VideoKeys,
    encode_batch,
    encode_video_batch,
    fuse_batch,
    video_keys,
)
from .mass import DEGENERATE_DISTANCE, Radii, cos_grid, radius_batch
from .model import (
    LAMBDA_MAX,
    MODES,
    ModelParameters,
    flatten_grads,
    flatten_params,
    get_param,
    parameter_copies,
    trainable_names,
)

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
    """Per-term losses and the weighted total for one batch; with k
    parameter copies each is a (k,) array of one value per copy."""

    l_t2v: float | np.ndarray
    l_v2t: float | np.ndarray
    l_ce: float | np.ndarray
    l_s: float | np.ndarray | None
    l_sup: float | np.ndarray | None
    l_total: float | np.ndarray


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


def _ce_terms(sims: np.ndarray, lam: float | np.ndarray):
    """Row and column InfoNCE terms for each matrix of a (..., N, N) stack;
    rows are texts, columns videos. lam is a scale, or a (k,) scale per
    copy of a (k, S, N, N) stack.

    Returns (l_t2v, l_v2t, p_row, p_col): the terms have the leading shape
    (0-d for one matrix) and p_row / p_col are the softmax tables reused by
    the backward pass.
    """
    logits = (lam if isinstance(lam, float) else lam[:, None, None, None]) * sims
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
# cosine grids under the symmetric CE


def _cos_grid_backward(d_sims, rows, stack, sims, row_norms, stack_norms):
    """Backward of `mass.cos_grid`; returns d_rows (S, m, d) and d_stack
    (m, n, d) summed over the samples."""
    denom = row_norms[..., None] * stack_norms + NORM_GUARD
    lead = d_sims / denom
    d_rows = np.matmul(lead.transpose(1, 0, 2), stack).transpose(1, 0, 2)
    d_rows -= rows * np.sum(d_sims * sims * stack_norms / (row_norms[..., None] * denom), axis=-1)[..., None]
    d_stack = np.matmul(lead.transpose(1, 2, 0), rows.transpose(1, 0, 2))
    d_stack -= np.sum(d_sims * sims * row_norms[..., None] / (stack_norms * denom), axis=0)[..., None] * stack
    return d_rows, d_stack


@dataclass
class CETerm:
    """A symmetric-CE term: rows (S, m, d) scored against a per-row stack,
    their cosines (S, m, n) and norms (S, m), and `_ce_terms`' softmaxes."""

    rows: np.ndarray
    sims: np.ndarray
    row_norms: np.ndarray
    p_row: np.ndarray
    p_col: np.ndarray


def _ce_term(rows, stack, stack_norms, lam):
    """Per-sample (l_t2v, l_v2t), each (S,), and the term's record."""
    sims, row_norms = cos_grid(rows, stack, stack_norms)
    l_t2v, l_v2t, p_row, p_col = _ce_terms(sims, lam)
    return l_t2v, l_v2t, CETerm(rows, sims, row_norms, p_row, p_col)


def _ce_term_backward(term: CETerm, stack, stack_norms, lam: float, upstream: float):
    """(d_rows, d_stack, d_lam) of upstream times the term's per-sample CE."""
    d_sims, d_lam = _ce_backward(term.sims, lam, term.p_row, term.p_col, upstream)
    d_rows, d_stack = _cos_grid_backward(
        d_sims, term.rows, stack, term.sims, term.row_norms, stack_norms
    )
    return d_rows, d_stack, d_lam


def _normalize_backward(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """Backward of x -> x / ||x|| along the last axis, given the unit output."""
    inner = np.sum(unit * d_unit, axis=-1, keepdims=True)
    return (d_unit - unit * inner) / norms[..., None]


# ---------------------------------------------------------------------------
# forward


@dataclass
class Support:
    """Support rows t + direction * R of the non-degenerate pairs vidx, with
    direction = (v - t) / dist, and their CE term."""

    vidx: np.ndarray
    direction: np.ndarray
    dist: np.ndarray
    ce: CETerm


@dataclass
class BatchTape:
    """What backward_batch replays of one forward_batch call: the stage and
    loss-term records; the stochastic-mode fields are None in baseline mode.
    With parameter copies, each record the copies reach leads with the copy
    axis and support is None (each distinct support set among the copies
    has its own term); backward_batch refuses such a tape."""

    params: ModelParameters
    mode: str
    alpha: float
    text: Encoded
    frames: Encoded
    keys: VideoKeys
    fusion: Fused
    fused_norms: np.ndarray
    ce: CETerm
    eps: np.ndarray | None = None
    radii: Radii | None = None
    stochastic: CETerm | None = None
    support: Support | None = None


def forward_batch(
    batch: PairBatch,
    params: ModelParameters,
    mode: str = "t-mass",
    alpha: float = DEFAULT_ALPHA,
    eps: np.ndarray | None = None,
    drop_mask: np.ndarray | None = None,
) -> tuple[LossBreakdown, BatchTape]:
    """One batch through encoders, fusion, radius, sampling, and losses.

    eps: (samples, N, d) standard-normal draws; required outside baseline
    mode. Multiple sample slices average their stochastic CE terms.
    drop_mask: optional (N, N, d) inverted-dropout mask (zeros and
    1 / keep-probability), applied to the pooled fusion grid.
    With k parameter copies (model.parameter_copies) every loss is a (k,)
    array whose entry c equals the loss of copy c alone.
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

    text = encode_batch(batch.text, params.stack, "text")
    frames = encode_video_batch(batch.videos, params.frame_count, params.stack)
    keys = video_keys(frames.emb, params.fusion)
    # text-conditioned fusion over the full (text, video) grid
    fusion = fuse_batch(text.emb, keys, params.fusion, drop_mask)
    fused = fusion.fused
    # the cosine grids below all measure against fused; norm it once
    fused_norms = np.linalg.norm(fused, axis=-1)
    lam = params.logit_scale()
    lead = () if params.copies is None else (params.copies,)

    t2v, v2t, ce = _ce_term(text.emb[..., None, :, :], fused, fused_norms, lam)
    l_t2v, l_v2t = t2v[..., 0], v2t[..., 0]
    l_ce = 0.5 * (l_t2v + l_v2t)
    tape = BatchTape(params, mode, float(alpha), text, frames, keys, fusion, fused_norms, ce)

    l_s = l_sup = None
    if mode != "baseline":
        if eps is None:
            raise ContractViolation("stochastic modes need noise draws")
        eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim == 2:
            eps = eps[None, :, :]
        if eps.shape[1:] != (n, d):
            raise ContractViolation("noise shape mismatch")
        tape.eps = eps
        frame_norms = np.linalg.norm(frames.emb, axis=-1)
        tape.radii = radii = radius_batch(text.emb, frames.emb, frame_norms, params.radius)

        # all S samples t + R * eps_s as one (S, N, d) stack
        s_t2v, s_v2t, tape.stochastic = _ce_term(
            text.emb[..., None, :, :] + radii.radius[..., None, :, :] * eps, fused, fused_norms, lam
        )
        l_s = np.mean(0.5 * (s_t2v + s_v2t), axis=-1)

        delta = fused[..., np.arange(n), np.arange(n), :] - text.emb
        dist = np.linalg.norm(delta, axis=-1)
        l_sup = np.empty(lead)
        for copies, vidx in _support_sets(dist > DEGENERATE_DISTANCE):
            pick = partial(_pick, copies)
            direction = pick(delta, 2)[..., vidx, :] / pick(dist, 1)[..., vidx, None]
            support_rows = pick(text.emb, 2)[..., vidx, :] + direction * pick(radii.radius, 2)[..., vidx, :]
            sub = (..., vidx[:, None], vidx)
            sup_t2v, sup_v2t, sup_ce = _ce_term(
                support_rows[..., None, :, :],
                pick(fused, 3)[sub + (slice(None),)],
                pick(fused_norms, 2)[sub],
                pick(lam, 0),
            )
            l_sup[copies] = 0.5 * (sup_t2v[..., 0] + sup_v2t[..., 0])
        if params.copies is None:
            tape.support = Support(vidx, direction, dist[vidx], sup_ce)

    w_ce, w_s, w_sup = mode_weights(mode, alpha)
    l_total = w_ce * l_ce
    if l_s is not None:
        l_total = l_total + w_s * l_s
    if l_sup is not None:
        l_total = l_total + w_sup * l_sup
    terms = [l_t2v, l_v2t, l_ce, l_s, l_sup, l_total]
    return LossBreakdown(*(None if t is None else _per_copy(t, lead) for t in terms)), tape


def _support_sets(keep: np.ndarray) -> list:
    """(copies, vidx) for each distinct non-degenerate set vidx of a (n,)
    or per-copy (k, n) mask; copies is ... when every copy shares the set."""
    rows = keep.reshape(-1, keep.shape[-1])
    if len(rows) == 1 or (rows == rows[0]).all():
        groups = [(..., rows[0])]
    else:
        sets, which = np.unique(rows, axis=0, return_inverse=True)
        groups = [(np.flatnonzero(which.ravel() == g), s) for g, s in enumerate(sets)]
    for _, s in groups:
        if not s.any():
            raise DegenerateGeometryError("every pair has video == text embedding")
    return [(copies, np.flatnonzero(s)) for copies, s in groups]


def _pick(copies, x, rank: int):
    """The given copies of x, an array of `rank` axes that may lead with a
    copy axis; without one, x is shared by every copy."""
    return x if copies is ... or np.ndim(x) == rank else x[copies]


def _per_copy(value, lead: tuple):
    """A loss as a float, or as a (k,) array of one value per copy."""
    return float(value) if lead == () else np.broadcast_to(value, lead).copy()


# ---------------------------------------------------------------------------
# backward


def _adapter_backward(enc: Encoded, d_emb: np.ndarray) -> np.ndarray:
    """Adapter gradient of one tower; its projection is frozen."""
    d = enc.emb.shape[-1]
    d_pre = _normalize_backward(enc.emb, enc.norms, d_emb)
    return d_pre.reshape(-1, d).T @ enc.projected.reshape(-1, d)


def backward_batch(tape: BatchTape) -> dict[str, np.ndarray]:
    """Gradients of l_total with respect to every trainable parameter.

    Returns a dict keyed by the canonical trainable names for the taped
    mode. Terms whose mode weight is zero contribute exactly nothing.
    """
    params = tape.params
    if params.copies is not None:
        raise ContractViolation("backward_batch wants a tape without parameter copies")
    w_ce, w_s, w_sup = mode_weights(tape.mode, tape.alpha)
    names = trainable_names(params, tape.mode)
    grads = {name: np.zeros_like(get_param(params, name)) for name in names}
    lam = params.logit_scale()

    text_emb = tape.text.emb
    frame_emb = tape.frames.emb
    fused = tape.fusion.fused
    fused_sn = tape.fused_norms
    radii = tape.radii
    n, d = text_emb.shape
    d_text = np.zeros_like(text_emb)
    d_frames = np.zeros_like(frame_emb)
    d_fused = np.zeros_like(fused)
    d_radius = np.zeros_like(radii.radius) if radii is not None else None
    d_lam_total = 0.0

    if w_ce != 0.0:
        d_rows, d_stack, d_lam = _ce_term_backward(tape.ce, fused, fused_sn, lam, w_ce)
        d_lam_total += d_lam[0]
        d_text += d_rows[0]
        d_fused += d_stack

    if tape.stochastic is not None and w_s != 0.0:
        upstream = w_s / tape.eps.shape[0]
        d_rows, d_stack, d_lam = _ce_term_backward(tape.stochastic, fused, fused_sn, lam, upstream)
        d_lam_total += np.sum(d_lam)
        d_fused += d_stack
        d_text += d_rows.sum(axis=0)
        d_radius += (tape.eps * d_rows).sum(axis=0)

    if tape.support is not None and w_sup != 0.0:
        sup = tape.support
        vidx = sup.vidx
        sub = np.ix_(vidx, vidx)
        d_rows, d_stack, d_lam = _ce_term_backward(sup.ce, fused[sub], fused_sn[sub], lam, w_sup)
        d_lam_total += d_lam[0]
        d_rows = d_rows[0]
        d_fused[sub] += d_stack
        # support row: t + direction * R with direction = (v - t) / ||v - t||
        d_text[vidx] += d_rows
        d_radius[vidx] += sup.direction * d_rows
        d_dir = radii.radius[vidx] * d_rows
        inner = np.sum(sup.direction * d_dir, axis=1, keepdims=True)
        d_delta = (d_dir - sup.direction * inner) / sup.dist[:, None]
        d_fused[vidx, vidx] += d_delta
        d_text[vidx] -= d_delta

    if d_radius is not None and (w_s != 0.0 or w_sup != 0.0):
        rparams = params.radius
        if rparams.variant == "linear":
            d_pre = d_radius * radii.radius
            if "radius_weights" in grads:
                grads["radius_weights"] += radii.sims.T @ d_pre
            d_sims_f = d_pre @ rparams.weights.T
        else:
            # the radius is exp(theta * mean) (theta = 1 for fixed-mean) in every coordinate
            expo = radii.radius[:, 0]
            row_sum = d_radius.sum(axis=1)
            if rparams.variant == "scalar":
                d_mean = rparams.theta * expo * row_sum
                if "radius_theta" in grads:
                    grads["radius_theta"] += np.sum(radii.sims.mean(axis=1) * expo * row_sum)
            else:
                d_mean = expo * row_sum
            frames = radii.sims.shape[1]
            d_sims_f = np.repeat(d_mean[:, None], frames, axis=1) / frames
        d_rows, d_stack = _cos_grid_backward(
            d_sims_f[None], text_emb[None], frame_emb, radii.sims[None], radii.text_norms[None],
            radii.frame_norms,
        )
        d_text += d_rows[0]
        d_frames += d_stack

    # fusion grid backward: every contraction is a (batched) matmul
    fusion, f, kv = params.fusion, tape.fusion, tape.keys
    frames = frame_emb.shape[1]
    d_pre_fused = _normalize_backward(fused, f.norms, d_fused)
    grads["fusion_out"] += d_pre_fused.reshape(-1, d).T @ f.pooled.reshape(-1, d)
    d_pooled = d_pre_fused @ fusion.output_map
    if f.mask is not None:
        d_pooled = d_pooled * f.mask
    # per video j: d_w[:, j] = d_pooled[:, j] @ v_j.T and d_v[j] = w[:, j].T @ d_pooled[:, j]
    d_pooled_j = d_pooled.transpose(1, 0, 2)
    d_w = np.matmul(d_pooled_j, kv.values.transpose(0, 2, 1)).transpose(1, 0, 2)
    d_v = np.matmul(f.weights.transpose(1, 2, 0), d_pooled_j)
    inner_w = np.sum(f.weights * d_w, axis=2, keepdims=True)
    d_logits = (f.weights * (d_w - inner_w)).reshape(n, n * frames)
    scale = 1.0 / np.sqrt(d)
    d_q = (d_logits @ kv.keys.reshape(n * frames, d)) * scale
    d_k = (d_logits.T @ f.queries) * scale
    grads["fusion_query"] += d_q.T @ text_emb
    d_text += d_q @ fusion.query_map
    frame_rows = frame_emb.reshape(n * frames, d)
    grads["fusion_key"] += d_k.T @ frame_rows
    d_frames += (d_k @ fusion.key_map).reshape(n, frames, d)
    d_v = d_v.reshape(n * frames, d)
    grads["fusion_value"] += d_v.T @ frame_rows
    d_frames += (d_v @ fusion.value_map).reshape(n, frames, d)

    if params.stack.adapters_enabled:
        grads["adapter_frame"] += _adapter_backward(tape.frames, d_frames)
        grads["adapter_text"] += _adapter_backward(tape.text, d_text)
    if not np.exp(params.log_lambda) > LAMBDA_MAX:  # no gradient through the clamp
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
    parameters. The oracle's points are evaluated as parameter copies
    beside params, one forward pass per block, so params is never written. Entries with |gradient| < small_grad must agree within
    abs_tol, everything else within rel_tol relative error.
    """
    # looked up at call time, so that a probe rebinding core.finite_diff_gradient sees it
    from .core import finite_diff_gradient

    names = trainable_names(params, mode)
    _, tape = forward_batch(batch, params, mode, alpha, eps=eps, drop_mask=drop_mask)
    analytic = flatten_grads(backward_batch(tape), names)

    def losses_at(points: np.ndarray) -> np.ndarray:
        copies = parameter_copies(params, names, points)
        breakdown, _ = forward_batch(batch, copies, mode, alpha, eps=eps, drop_mask=drop_mask)
        return breakdown.l_total

    numeric = finite_diff_gradient(losses_at, flatten_params(params, names), h=h)

    sizes = [get_param(params, name).size for name in names]
    bounds = np.cumsum([0] + sizes)
    abs_err = np.abs(analytic - numeric)
    magnitude = np.maximum(np.abs(analytic), np.abs(numeric))
    rel_err = abs_err / np.maximum(magnitude, 1e-300)
    ok = np.where(magnitude < small_grad, abs_err <= abs_tol, rel_err <= rel_tol)
    failures = []
    for i in np.flatnonzero(~ok):
        k = int(np.searchsorted(bounds, i, side="right")) - 1
        failures.append(f"{names[k]}[{i - bounds[k]}]: analytic={analytic[i]:.3e} numeric={numeric[i]:.3e}")
    large = magnitude >= small_grad
    worst_rel = float(rel_err[large].max()) if np.any(large) else 0.0
    return GradientCheckResult(
        passed=bool(np.all(ok)),
        worst_rel=worst_rel,
        worst_abs=float(abs_err.max()) if abs_err.size else 0.0,
        checked=int(analytic.size),
        failures=failures,
    )
