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
entry (i, j) is video j pooled under text i's attention. The deterministic
texts, the S noise samples and the support texts of a batch, the last two
formed by `mass.text_mass` as inference's pools are, make one (S + 2, N, d)
stack scored by one CE pass, whose backward reads one softmax table; every
contraction over the grid is a (batched) matmul, and every last-axis sum or
dot is `core.row_sums`.
The encode, projection, attention, fusion and radius stages are the batched
functions of `encoders` and `mass` that inference runs too; each stage's
backward lives here. `gradient_check` scores its finite-difference points as
parameter copies and hands each block its copy-free tape; a stage takes the
tape's record when all it reads is the tape's own, so only the stages a copy
reaches run again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (NORM_GUARD, ContractViolation, DegenerateGeometryError, OracleFailure, SeededRng, check_finite,
                   row_norms, row_sums)
from .encoders import Attention, Encoded, Fused, attend, encode_batch, encode_video_batch, fuse_output, project
from .mass import DEGENERATE_DISTANCE, Radii, cos_grid, radius_batch, radius_map, text_mass
from .model import LAMBDA_MAX, ModelParameters, parameter_copies, trainable_names

DEFAULT_ALPHA = 1.2

# gradient_check: the oracle's step, the relative tolerance, and the
# absolute tolerance that replaces it below the small-gradient threshold
CHECK_STEP = 1e-5
CHECK_REL_TOL = 1e-4
CHECK_ABS_TOL = 1e-6
CHECK_SMALL_GRAD = 1e-3


@dataclass
class PairBatch:
    """Raw features for N aligned text-video pairs, every value finite.

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
            raise ContractViolation(f"text and video counts disagree: {len(self.text)} texts, {len(self.videos)} videos")
        check_finite("text features", self.text)
        check_finite("video features", self.videos)

    @property
    def size(self) -> int:
        return self.text.shape[0]

    def rows(self, idx: np.ndarray) -> PairBatch:
        """The pairs at idx, as a batch of these already-checked values:
        nothing is converted or scanned again."""
        batch = object.__new__(PairBatch)
        batch.text, batch.videos = self.text[idx], self.videos[idx]
        return batch


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
    """Row and column InfoNCE terms for each matrix of a (..., N, N) stack
    of cosines; rows are texts, columns videos. lam is a scale, or a (k,)
    scale per copy of a (k, M, N, N) stack.

    Each matrix is shifted once, by its largest logit, and its row and
    column softmaxes share one exponential, taken in place of the shifted
    logits. That is exact for cosines: every logit lies within LAMBDA_MAX
    of 0, so no term falls below exp(-2 * LAMBDA_MAX). Its oracle,
    `symmetric_ce` in `tests/oracle.py`, takes any matrix and keeps a shift
    per row and per column.

    Returns (l_t2v, l_v2t, p_sum): the terms have the leading shape (0-d
    for one matrix), and p_sum = exp * (1 / row_sum + 1 / col_sum) is the
    one table the backward pass reads, the row softmax plus the column
    softmax of each matrix.
    """
    logits = (lam if isinstance(lam, float) else lam[:, None, None, None]) * sims
    logits -= logits.max(axis=(-2, -1), keepdims=True)
    diag = np.diagonal(logits, axis1=-2, axis2=-1).copy()
    exp = np.exp(logits, out=logits)
    row_sum, col_sum = row_sums(exp), row_sums(exp.swapaxes(-1, -2))
    row_terms = np.log(row_sum) - diag
    col_terms = np.log(col_sum) - diag
    n = sims.shape[-1]
    exp *= 1.0 / row_sum[..., None] + 1.0 / col_sum[..., None, :]
    return row_sums(row_terms) / n, row_sums(col_terms) / n, exp


def _ce_backward(sims, lam: float, p_sum, norms, upstream: np.ndarray):
    """Gradients of sum_m upstream[m] * l_ce[m], where l_ce = (l_t2v +
    l_v2t) / 2, over the matrices m of an (M, N, N) stack whose rows have
    the norms (M, N); p_sum is `_ce_terms`' table.

    Returns (lead, d_lam). lead is the cosine gradient divided by each
    row's norm, what `_cos_grid_backward` contracts: one broadcast folds
    each matrix's upstream * lam / (2n) and each row's 1 / norm into the
    table, and the diagonal loses twice that scale. d_lam is (M,), one
    derivative per matrix with respect to the unclamped scale value.
    """
    n = sims.shape[-1]
    idx = np.arange(n)
    scale = (upstream * lam / (2.0 * n))[..., None] / (norms + NORM_GUARD)
    lead = p_sum * scale[..., None]
    lead[..., idx, idx] -= scale + scale
    diag = np.diagonal(sims, axis1=-2, axis2=-1)
    flat = sims.shape[:-2] + (-1,)
    d_lam = (row_sums(p_sum.reshape(flat), sims.reshape(flat)) - 2.0 * row_sums(diag)) * upstream / (2.0 * n)
    return lead, d_lam


# ---------------------------------------------------------------------------
# cosine grids under the symmetric CE


def _cos_grid_backward(lead, rows, stack, sims, norms):
    """Backward of `mass.cos_grid` to its rows from lead (S, m, n), the
    cosine gradient already divided by each row's norm: d_rows (S, m, d),
    C-contiguous, each row i's (S, d) block written by its product's out=.
    The stack's gradient, summed over the samples, is lead^T @ rows per row
    i; the caller forms it, leaving out the radial part that the unit
    stack's normalisation backward projects out anyway."""
    d_rows = np.empty(rows.shape)
    np.matmul(lead.transpose(1, 0, 2), stack, out=d_rows.transpose(1, 0, 2))
    d_rows -= rows * (row_sums(lead, sims) / norms)[..., None]
    return d_rows


@dataclass
class CETerm:
    """The symmetric-CE stack: rows (M, N, d) scored against the fused grid,
    their cosines (M, N, N) and norms (M, N), `_ce_terms`' one softmax
    table p_sum (M, N, N), and the mode's weight on each matrix (M,): w_ce
    for t, w_s / S for each sample and w_sup for the support rows."""

    rows: np.ndarray
    sims: np.ndarray
    row_norms: np.ndarray
    p_sum: np.ndarray
    weights: np.ndarray


def _normalize_backward(unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray) -> np.ndarray:
    """Backward of x -> x / ||x|| along the last axis, given the unit
    output; it is written over d_unit, which it returns."""
    d_unit -= unit * row_sums(unit, d_unit)[..., None]
    d_unit /= norms[..., None]
    return d_unit


# ---------------------------------------------------------------------------
# forward


@dataclass
class Support:
    """Support rows t + direction * R with direction = (v - t) / dist for
    each pair; forward_batch refuses a pair with no direction (||v - t|| at
    most DEGENERATE_DISTANCE)."""

    direction: np.ndarray
    dist: np.ndarray


@dataclass
class BatchTape:
    """What backward_batch replays of one forward_batch call: the stage
    records and the CE stack, whose matrices are the deterministic texts,
    then in the stochastic modes the S samples and the support texts; the
    stochastic-mode fields are None in baseline mode. With parameter
    copies, each record the copies reach leads with the copy axis, and
    backward_batch refuses the tape."""

    params: ModelParameters
    mode: str
    text: Encoded
    frames: Encoded
    keys: np.ndarray
    values: np.ndarray
    outputs: np.ndarray
    attention: Attention
    fusion: Fused
    ce: CETerm
    eps: np.ndarray | None
    radii: Radii | None
    support: Support | None


def forward_batch(
    batch: PairBatch,
    params: ModelParameters,
    mode: str = "t-mass",
    alpha: float = DEFAULT_ALPHA,
    eps: np.ndarray | None = None,
    drop_mask: np.ndarray | None = None,
    reuse: BatchTape | None = None,
) -> tuple[LossBreakdown, BatchTape]:
    """One batch through encoders, fusion, radius, sampling, and losses.

    eps: (samples, N, d) standard-normal draws; required outside baseline
    mode. Multiple sample slices average their stochastic CE terms. A pair
    with ||v - t|| at most DEGENERATE_DISTANCE has no support direction, so
    outside baseline mode it refuses the batch, naming the first such pair.
    drop_mask: optional (N, N, d) inverted-dropout mask (zeros and
    1 / keep-probability), applied to the projected fusion grid.
    With k parameter copies (model.parameter_copies) every loss is a (k,)
    array whose entry c equals the loss of copy c alone.
    reuse: gradient_check's copy-free tape of the same batch, mode, alpha,
    eps and drop_mask. Each stage (text, frames, keys, values, outputs,
    attention, fusion, radii) then takes the tape's record when every stage
    record and parameter array it reads is the tape's own object, as every
    array of parameter_copies but the copied one is; so only the stages
    that a copy reaches run again.
    """
    w_ce, w_s, w_sup = mode_weights(mode, alpha)
    if not 0 <= alpha < np.inf:
        raise ContractViolation(f"alpha must be finite and nonnegative, got {alpha}")
    n = batch.size
    if n < 1:
        raise ContractViolation("empty batch")
    d = params.dim

    records = {}

    def stage(name: str, run, *reads: str):
        """Stage `name`'s record: the tape's when every stage record and
        parameter array it reads is the tape's own object, else run()."""
        fresh = reuse is None or any(
            records[r] is not getattr(reuse, r) if r in records else getattr(params, r) is not getattr(reuse.params, r)
            for r in reads
        )
        records[name] = run() if fresh else getattr(reuse, name)
        return records[name]

    text = stage("text", lambda: encode_batch(batch.text, params, "text"), "proj_text", "adapter_text")
    frames = stage("frames", lambda: encode_video_batch(batch.videos, params), "proj_frame", "adapter_frame")
    keys = stage("keys", lambda: project(frames.emb, params, "fusion_key"), "frames", "fusion_key")
    values = stage("values", lambda: project(frames.emb, params, "fusion_value"), "frames", "fusion_value")
    outputs = stage("outputs", lambda: project(values, params, "fusion_out"), "values", "fusion_out")
    # text-conditioned fusion over the full (text, video) grid
    attention = stage("attention", lambda: attend(text.emb, keys, params), "text", "keys", "fusion_query")
    fusion = stage("fusion", lambda: fuse_output(attention.weights, drop_mask, outputs), "attention", "outputs")
    fused = fusion.fused
    lam = params.logit_scale()
    lead = () if params.copies is None else (params.copies,)

    rows = text.emb[..., None, :, :]
    weights = [w_ce]
    radii = support = None
    if mode != "baseline":
        if eps is None:
            raise ContractViolation("stochastic modes need noise draws")
        eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim != 3 or eps.shape[1:] != (n, d):
            raise ContractViolation(f"noise must be (samples, {n}, {d}), got {eps.shape}")
        radii = stage("radii", lambda: radius_batch(text.emb, frames.emb, params),
                      "text", "frames", "radius_theta", "radius_weights")
        delta = fused[..., np.arange(n), np.arange(n), :] - text.emb
        dist = row_norms(delta)
        if (dist <= DEGENERATE_DISTANCE).any():
            first = tuple(np.argwhere(dist <= DEGENERATE_DISTANCE)[0])
            where = f"pair {first[-1]}" if len(first) == 1 else f"copy {first[0]} pair {first[1]}"
            raise DegenerateGeometryError(f"{where} has no support direction: ||v - t|| = {dist[first]:.3e}")
        support = Support(delta / dist[..., None], dist)
        weights += [w_s / len(eps)] * len(eps) + [w_sup]
        support_rows = text_mass(text.emb, radii.radius, support.direction)
        # one (S + 2, N, d) stack: t, the S samples t + R * eps_s, the support rows
        rows = np.empty(support_rows.shape[:-2] + (len(eps) + 2, n, d))
        rows[..., 0, :, :] = text.emb
        text_mass(text.emb[..., None, :, :], radii.radius[..., None, :, :], eps, out=rows[..., 1:-1, :, :])
        rows[..., -1, :, :] = support_rows

    sims, norms = cos_grid(rows, fused)
    t2v, v2t, p_sum = _ce_terms(sims, lam)
    ce = CETerm(rows, sims, norms, p_sum, np.array(weights))
    tape = BatchTape(params, mode, text, frames, keys, values, outputs, attention, fusion, ce, eps, radii, support)
    per_matrix = 0.5 * (t2v + v2t)
    l_t2v, l_v2t, l_ce = t2v[..., 0], v2t[..., 0], per_matrix[..., 0]
    l_total = w_ce * l_ce
    l_s = l_sup = None
    if mode != "baseline":
        l_s = row_sums(per_matrix[..., 1:-1]) / len(eps)
        l_sup = per_matrix[..., -1]
        l_total = l_total + w_s * l_s + w_sup * l_sup
    terms = [l_t2v, l_v2t, l_ce, l_s, l_sup, l_total]
    return LossBreakdown(*(None if t is None else _per_copy(t, lead) for t in terms)), tape


def _per_copy(value, lead: tuple):
    """A loss as a float, or as a (k,) array of one value per copy."""
    if lead == ():
        return float(value)
    return value if value.shape == lead else np.full(lead, value)


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
    mode, in that order; each gradient is written once, as its block of
    the backward forms it. A term whose mode weight is zero enters the CE
    backward with a zero upstream weight, so it contributes zeros.
    """
    params = tape.params
    if params.copies is not None:
        raise ContractViolation("backward_batch wants a tape without parameter copies")
    names = trainable_names(params, tape.mode)
    grads = {}
    lam = params.logit_scale()

    text_emb = tape.text.emb
    frame_emb = tape.frames.emb
    fused = tape.fusion.fused
    radii = tape.radii
    n, d = text_emb.shape
    frames = frame_emb.shape[1]
    d_frames = np.zeros_like(frame_emb)

    ce = tape.ce
    lead, d_lam = _ce_backward(ce.sims, lam, ce.p_sum, ce.row_norms, ce.weights)
    d_rows = _cos_grid_backward(lead, ce.rows, fused, ce.sims, ce.row_norms)
    # the fused grid's gradient, summed over the stack: lead^T @ rows per text i
    d_fused = np.matmul(lead.transpose(1, 2, 0), ce.rows.transpose(1, 0, 2))
    # every row of the stack is t plus a shift
    d_text = d_rows.sum(axis=0)

    if radii is not None:
        sup = tape.support
        d_sup = d_rows[-1]
        d_radius = (tape.eps * d_rows[1:-1]).sum(axis=0) + sup.direction * d_sup
        # support row: t + direction * R with direction = (v - t) / ||v - t||
        d_delta = _normalize_backward(sup.direction, sup.dist, radii.radius * d_sup)
        d_fused[np.arange(n), np.arange(n)] += d_delta
        d_text -= d_delta

        # R = exp(S @ W), W the radius map; theta enters W as theta / T'
        d_pre = d_radius * radii.radius
        d_map = radii.sims.T @ d_pre
        if "radius_weights" in names:
            grads["radius_weights"] = d_map
        if "radius_theta" in names:
            grads["radius_theta"] = np.sum(d_map) / frames
        lead_f = (d_pre @ radius_map(params, frames).T) / (radii.text_norms + NORM_GUARD)[:, None]
        d_text += _cos_grid_backward(lead_f[None], text_emb[None], frame_emb, radii.sims[None],
                                     radii.text_norms[None])[0]
        # one sample: the stack's gradient is each pair's outer product
        d_frames += lead_f[:, :, None] * text_emb[:, None, :]

    # fusion grid backward: every contraction is a (batched) matmul, and fusion_out projected the values
    f, att = tape.fusion, tape.attention
    d_pre_fused = _normalize_backward(fused, f.norms, d_fused)
    if f.mask is not None:
        d_pre_fused *= f.mask
    # per video j: d_w[:, j] = d_pre[:, j] @ outputs[j].T and d_outputs[j] = w[:, j].T @ d_pre[:, j]
    d_pre_j = d_pre_fused.transpose(1, 0, 2)
    d_w = np.empty(att.weights.shape)
    np.matmul(d_pre_j, tape.outputs.transpose(0, 2, 1), out=d_w.transpose(1, 0, 2))
    d_outputs = np.matmul(att.weights.transpose(1, 2, 0), d_pre_j).reshape(n * frames, d)
    grads["fusion_out"] = d_outputs.T @ tape.values.reshape(n * frames, d)
    d_v = d_outputs @ params.fusion_out
    # the softmax backward runs in place on d_w: d_logits = w * (d_w - <w, d_w>)
    d_w -= row_sums(att.weights, d_w)[..., None]
    d_w *= att.weights
    d_logits = d_w.reshape(n, n * frames)
    scale = 1.0 / np.sqrt(d)
    d_q = d_logits @ tape.keys.reshape(n * frames, d)
    d_q *= scale
    d_k = d_logits.T @ att.queries
    d_k *= scale
    grads["fusion_query"] = d_q.T @ text_emb
    d_text += d_q @ params.fusion_query
    frame_rows = frame_emb.reshape(n * frames, d)
    grads["fusion_key"] = d_k.T @ frame_rows
    d_frames += (d_k @ params.fusion_key).reshape(n, frames, d)
    grads["fusion_value"] = d_v.T @ frame_rows
    d_frames += (d_v @ params.fusion_value).reshape(n, frames, d)

    if params.adapters_enabled:
        grads["adapter_frame"] = _adapter_backward(tape.frames, d_frames)
        grads["adapter_text"] = _adapter_backward(tape.text, d_text)
    # no gradient through the clamp
    grads["log_lambda"] = 0.0 if np.exp(params.log_lambda) > LAMBDA_MAX else np.sum(d_lam) * lam
    return {name: grads[name] for name in names}


# ---------------------------------------------------------------------------
# noise and dropout draws for the batch pipeline


def draw_noise(rng: SeededRng, samples: int, n: int, d: int) -> np.ndarray:
    """(samples, n, d) standard-normal draws from one stream, in one call so
    a smaller draw is a prefix of a larger one."""
    if samples < 1 or n < 1 or d < 1:
        raise ContractViolation("noise draw wants positive sizes")
    return rng.standard_normal(samples * n * d).reshape(samples, n, d)


def dropout_grid_mask(rng: SeededRng, n: int, d: int, rate: float) -> np.ndarray | None:
    """Inverted-dropout mask for the projected (N, N, d) fusion grid.

    An (i, j) cell whose d uniforms all fall below the rate is kept whole
    instead of dropped whole, since a zero fused vector has no direction;
    every other cell is masked entry by entry as drawn."""
    if not np.isfinite(rate):
        raise ContractViolation(f"dropout rate must be finite, got {rate}")
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
) -> GradientCheckResult:
    """Compare the hand-written backward pass against central differences.

    Noise and dropout are held fixed so the loss is deterministic in the
    parameters. The oracle walks the trainable arrays for the mode one at a
    time; each block of its points is evaluated as parameter copies of that
    one array, beside params, in one forward pass, so params is never
    written. Each block's pass reuses the copy-free pass's stage records
    that its copies do not reach (forward_batch's reuse). Entries with |gradient| below CHECK_SMALL_GRAD must agree
    within CHECK_ABS_TOL, everything else within CHECK_REL_TOL relative
    error. A failure names the array and the coordinate within it.
    """
    # looked up at call time, so that a probe rebinding core.finite_diff_gradient sees it
    from .core import finite_diff_gradient

    _, tape = forward_batch(batch, params, mode, alpha, eps=eps, drop_mask=drop_mask)
    grads = backward_batch(tape)
    abs_errs, rel_errs, failures = [], [], []
    for name in trainable_names(params, mode):

        def losses_at(points: np.ndarray) -> np.ndarray:
            copies = parameter_copies(params, name, points)
            breakdown, _ = forward_batch(batch, copies, mode, alpha, eps=eps, drop_mask=drop_mask, reuse=tape)
            return breakdown.l_total

        try:
            numeric = finite_diff_gradient(losses_at, getattr(params, name), h=CHECK_STEP).ravel()
        except OracleFailure as exc:
            raise OracleFailure(f"{exc} of {name!r}") from None
        analytic = np.asarray(grads[name]).ravel()
        abs_err = np.abs(analytic - numeric)
        magnitude = np.maximum(np.abs(analytic), np.abs(numeric))
        rel_err = abs_err / np.maximum(magnitude, 1e-300)
        ok = np.where(magnitude < CHECK_SMALL_GRAD, abs_err <= CHECK_ABS_TOL, rel_err <= CHECK_REL_TOL)
        failures += [f"{name}[{i}]: analytic={analytic[i]:.3e} numeric={numeric[i]:.3e}" for i in np.flatnonzero(~ok)]
        abs_errs.append(abs_err)
        rel_errs.append(rel_err[magnitude >= CHECK_SMALL_GRAD])
    abs_err = np.concatenate(abs_errs)
    return GradientCheckResult(
        passed=not failures,
        worst_rel=float(np.concatenate(rel_errs).max(initial=0.0)),
        worst_abs=float(abs_err.max(initial=0.0)),
        checked=abs_err.size,
        failures=failures,
    )
