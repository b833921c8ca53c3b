"""Retrieval evaluation in both directions plus diagnostic reports.

Inference mirrors training's text-conditioned fusion: each (query,
candidate) pair gets its own fused video embedding and its own radius.
Scoring runs one query at a time over all of its candidates in one numpy
pass. Without sampling a pair scores the clipped cosine of the text with
the fused video. With sampling it scores the best cosine over M stochastic
text samples, whose noise is drawn from a substream keyed by (seed, query
id, candidate id); each query's draws are seeded in one vectorised pass
(``core.stacked_uniforms``), stacked into one buffer and turned into pools
together, bit for bit as the per-pair ``select_best_sample`` would draw and
score them. Ranks use strictly-greater counting with index tie-break.
Reports are emitted as UTF-8 CSV with 6-decimal numbers so identical seeds
give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ContractViolation, NORM_GUARD, box_muller, stacked_uniforms
# substream and select_best_sample are the per-pair reference that
# _score_query batches; they stay bound here, unused, because the traced
# benchmark (perfbench/worker.py) wraps these module attributes by name
from .core import substream  # noqa: F401
from .encoders import ZERO_NORM_THRESHOLD, sample_frame_indices
from .mass import SamplingConfig, pool_similarities, select_best_sample  # noqa: F401
from .model import ModelParameters

# substream purpose for per-pair inference sampling
_STREAM_EVAL = 301


@dataclass
class RetrievalMetrics:
    direction: str
    r1: float
    r5: float
    r10: float
    mdr: float
    mnr: float


@dataclass
class RadiusRow:
    query_id: int
    candidate_id: int
    relevant: bool
    l1_radius: float
    best_similarity: float


@dataclass
class AlignmentRow:
    query_id: int
    max_irrelevant_sim_det: float
    max_irrelevant_sim_stoch: float
    ce_det: float
    ce_stoch: float


# ---------------------------------------------------------------------------
# embedding helpers shared by the inference paths


def _embed_texts(texts: np.ndarray, params: ModelParameters) -> np.ndarray:
    stack = params.stack
    pre = texts @ stack.proj_text.T
    if stack.adapters_enabled:
        pre = pre @ stack.adapter_text.T
    norms = np.linalg.norm(pre, axis=1)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("text embedding collapsed to zero norm")
    return pre / norms[:, None]


def _embed_frames(videos: np.ndarray, params: ModelParameters) -> np.ndarray:
    idx = sample_frame_indices(videos.shape[1], params.frame_count)
    stack = params.stack
    pre = videos[:, idx, :] @ stack.proj_frame.T
    if stack.adapters_enabled:
        pre = pre @ stack.adapter_frame.T
    norms = np.linalg.norm(pre, axis=2)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("frame embedding collapsed to zero norm")
    return pre / norms[..., None]


def _fused_for_query(
    text_vec: np.ndarray, keys: np.ndarray, values: np.ndarray, params: ModelParameters
) -> np.ndarray:
    """Fuse every candidate's frames under one text's attention.

    keys / values: (C, T', d) premultiplied frame embeddings.
    """
    d = params.dim
    query = params.fusion.query_map @ text_vec
    logits = np.einsum("cld,d->cl", keys, query) / np.sqrt(d)
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights = shifted / shifted.sum(axis=1, keepdims=True)
    pooled = np.einsum("cl,cld->cd", weights, values)
    out = pooled @ params.fusion.output_map.T
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        raise ContractViolation("fused video embedding collapsed to zero norm")
    return out / norms[:, None]


def _radius_for_query(
    text_vec: np.ndarray, frame_emb: np.ndarray, params: ModelParameters
) -> np.ndarray:
    """Per-candidate radius vectors (C, d) for one text."""
    norms = np.linalg.norm(frame_emb, axis=2)
    sims = np.einsum("cld,d->cl", frame_emb, text_vec) / (
        np.linalg.norm(text_vec) * norms + NORM_GUARD
    )
    rparams = params.radius
    if rparams.variant == "linear":
        return np.exp(sims @ rparams.weights)
    mean = sims.mean(axis=1)
    if rparams.variant == "scalar":
        return np.exp(rparams.theta * mean)[:, None] * np.ones(params.dim)
    return np.exp(mean)[:, None] * np.ones(params.dim)


def _uniform_width(trials: int, dim: int) -> int:
    """Uniforms one pair's pool consumes: 2 * ceil(M * d / 2)."""
    return 2 * ((trials * dim + 1) // 2)


def _score_query(
    t: np.ndarray,
    fused: np.ndarray,
    radius_grid: np.ndarray | None,
    trials: int,
    seed: int,
    query_id: int,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample scores (C, M) of one query against all of its candidates.

    Without a radius grid the pool is t alone and M is 1. With one,
    candidate c's pool is t + R_c * eps on substream (seed, _STREAM_EVAL,
    query_id, c): the uniforms of every candidate are drawn into scratch,
    (C, 2*ceil(M*d/2)), by one stacked_uniforms call, turned into normals
    and then into pools in place, so scratch may be reused across queries.
    A pair's best of its first m samples is the max of row prefix [:m].
    Raises ContractViolation if a pair has a non-finite score.
    """
    if radius_grid is None:
        scores = pool_similarities(t[None, None, :], fused)
    else:
        c_count, d = fused.shape
        width = _uniform_width(trials, d)
        scratch = stacked_uniforms(seed, (_STREAM_EVAL, query_id), c_count, width, scratch)
        box_muller(scratch, out=scratch)
        pool = scratch[:, : trials * d].reshape(c_count, trials, d)
        np.multiply(radius_grid[:, None, :], pool, out=pool)
        pool += t
        scores = pool_similarities(pool, fused)
    bad = int(np.count_nonzero(~np.isfinite(scores).all(axis=-1)))
    if bad:
        raise ContractViolation(
            f"query {query_id}: {bad} of {scores.shape[0]} pair scores are non-finite"
        )
    return scores


def _best_of_prefixes(
    texts: np.ndarray,
    videos: np.ndarray,
    params: ModelParameters,
    trial_counts: tuple[int, ...],
    use_sampling: bool,
    seed: int,
) -> dict[int, np.ndarray]:
    """(Q, C) best-of-m matrix for every m in trial_counts, one query's row
    at a time, from one pass at the largest m. Without sampling every pool
    is the text alone, so every matrix is the deterministic one."""
    texts = np.asarray(texts, dtype=np.float64)
    videos = np.asarray(videos, dtype=np.float64)
    if texts.ndim != 2 or videos.ndim != 3:
        raise ContractViolation("inference wants texts (Q, c) and videos (C, T, c)")
    if texts.shape[1] != videos.shape[2]:
        raise ContractViolation("text and frame feature widths disagree")
    text_emb = _embed_texts(texts, params)
    frame_emb = _embed_frames(videos, params)
    keys = frame_emb @ params.fusion.key_map.T
    values = frame_emb @ params.fusion.value_map.T

    q_count, c_count = text_emb.shape[0], frame_emb.shape[0]
    trials = max(trial_counts)
    scratch = None
    if use_sampling:
        scratch = np.empty((c_count, _uniform_width(trials, params.dim)))
    mats = {m: np.empty((q_count, c_count)) for m in trial_counts}
    for q, t in enumerate(text_emb):
        fused = _fused_for_query(t, keys, values, params)
        radius_grid = _radius_for_query(t, frame_emb, params) if use_sampling else None
        scores = _score_query(t, fused, radius_grid, trials, seed, q, scratch)
        for m, sims in mats.items():
            sims[q] = scores[:, :m].max(axis=-1)
    return mats


def inference_similarity_matrix(
    texts: np.ndarray,
    videos: np.ndarray,
    params: ModelParameters,
    cfg: SamplingConfig,
    use_sampling: bool,
    seed: int,
) -> np.ndarray:
    """(Q, C) pair scores, one query's row at a time.

    Without sampling each score is the clipped cosine of the text embedding
    with the pair's fused video. With sampling it is the best of M mass
    samples per pair, equal bit for bit to select_best_sample on the pair's
    substream. Raises ContractViolation if any score is non-finite."""
    return _best_of_prefixes(texts, videos, params, (cfg.trials,), use_sampling, seed)[cfg.trials]


def nested_trial_matrices(
    texts: np.ndarray,
    videos: np.ndarray,
    params: ModelParameters,
    trial_counts: tuple[int, ...],
    seed: int,
) -> dict[int, np.ndarray]:
    """Best-of-M (Q, C) matrices for every M in trial_counts from one
    sampled pass at the largest M.

    A pair's pool for a smaller M is a prefix of its pool for the largest,
    and every sample is scored on its own row, so each matrix equals
    inference_similarity_matrix with sampling at that M bit for bit."""
    counts = tuple(SamplingConfig(trials=m).trials for m in trial_counts)
    return _best_of_prefixes(texts, videos, params, counts, True, seed)


# ---------------------------------------------------------------------------
# rank metrics


def rank_metrics(
    sims: np.ndarray, relevant_index: np.ndarray, direction: str = "text-to-video"
) -> tuple[np.ndarray, RetrievalMetrics]:
    """1-based rank of each query's relevant candidate plus R@K/MdR/MnR.

    rank = 1 + #(strictly greater) + #(equal at an earlier index), so ties
    resolve deterministically by candidate index. Non-finite scores have no
    rank and raise ContractViolation.
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[0] < 1 or sims.shape[1] < 1:
        raise ContractViolation("similarity matrix must be non-empty and 2-D")
    bad = int(np.count_nonzero(~np.isfinite(sims)))
    if bad:
        raise ContractViolation(f"{bad} of {sims.size} similarity scores are non-finite")
    relevant = np.asarray(relevant_index, dtype=np.int64)
    if relevant.shape != (sims.shape[0],):
        raise ContractViolation("one relevant index per query row")
    if np.any(relevant < 0) or np.any(relevant >= sims.shape[1]):
        raise ContractViolation("relevant index outside the candidate pool")

    rows = np.arange(sims.shape[0])
    rel_scores = sims[rows, relevant]
    greater = (sims > rel_scores[:, None]).sum(axis=1)
    earlier = np.arange(sims.shape[1])[None, :] < relevant[:, None]
    tied_earlier = ((sims == rel_scores[:, None]) & earlier).sum(axis=1)
    ranks = (1 + greater + tied_earlier).astype(np.int64)
    metrics = RetrievalMetrics(
        direction=direction,
        r1=float(100.0 * np.mean(ranks <= 1)),
        r5=float(100.0 * np.mean(ranks <= 5)),
        r10=float(100.0 * np.mean(ranks <= 10)),
        mdr=float(np.median(ranks)),
        mnr=float(np.mean(ranks)),
    )
    return ranks, metrics


def video_to_text_metrics(sims: np.ndarray, relevant_index: np.ndarray) -> RetrievalMetrics:
    """Rank text candidates per video query over the transposed pair
    scores."""
    sims = np.asarray(sims, dtype=np.float64)
    _, metrics = rank_metrics(sims.T, relevant_index, direction="video-to-text")
    return metrics


# ---------------------------------------------------------------------------
# diagnostic reports


def _radius_rows(
    query_id: int, relevant_index: int, radius_grid: np.ndarray, best: np.ndarray
) -> list[RadiusRow]:
    return [
        RadiusRow(
            query_id=query_id,
            candidate_id=c,
            relevant=(c == relevant_index),
            l1_radius=float(np.abs(radius_grid[c]).sum()),
            best_similarity=float(best[c]),
        )
        for c in range(radius_grid.shape[0])
    ]


def radius_dynamics_report(
    query_text: np.ndarray,
    candidate_videos: np.ndarray,
    params: ModelParameters,
    relevant_index: int,
    cfg: SamplingConfig,
    seed: int,
    query_id: int = 0,
) -> list[RadiusRow]:
    """Per-candidate L1 radius mass and best-of-M similarity for one query,
    using the same substreams as the inference matrix."""
    query_text = np.asarray(query_text, dtype=np.float64)
    candidate_videos = np.asarray(candidate_videos, dtype=np.float64)
    if not 0 <= relevant_index < candidate_videos.shape[0]:
        raise ContractViolation("relevant index outside the candidate pool")
    text_emb = _embed_texts(query_text[None, :], params)[0]
    frame_emb = _embed_frames(candidate_videos, params)
    keys = frame_emb @ params.fusion.key_map.T
    values = frame_emb @ params.fusion.value_map.T
    fused = _fused_for_query(text_emb, keys, values, params)
    radius_grid = _radius_for_query(text_emb, frame_emb, params)
    best = _score_query(text_emb, fused, radius_grid, cfg.trials, seed, query_id).max(axis=-1)
    return _radius_rows(query_id, relevant_index, radius_grid, best)


def pool_radius_report(
    texts: np.ndarray, videos: np.ndarray, params: ModelParameters, sampled: np.ndarray
) -> list[RadiusRow]:
    """radius_dynamics_report of every query of an aligned pool (query q's
    relevant candidate is q), taking each best-of-M similarity from
    sampled, the pool's (Q, C) inference matrix with sampling, instead of
    scoring the pairs again."""
    texts = np.asarray(texts, dtype=np.float64)
    videos = np.asarray(videos, dtype=np.float64)
    if sampled.shape != (texts.shape[0], videos.shape[0]):
        raise ContractViolation("sampled matrix does not match the pool")
    text_emb = _embed_texts(texts, params)
    frame_emb = _embed_frames(videos, params)
    rows = []
    for q, t in enumerate(text_emb):
        rows.extend(_radius_rows(q, q, _radius_for_query(t, frame_emb, params), sampled[q]))
    return rows


def _per_pair_ce(sims: np.ndarray, lam: float) -> np.ndarray:
    """Per-query text-to-video cross-entropy terms on an aligned matrix."""
    logits = lam * sims
    shift = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]
    return lse - np.diagonal(logits)


def alignment_rows(det: np.ndarray, stoch: np.ndarray, lam: float) -> list[AlignmentRow]:
    """The alignment report of an aligned pool from its deterministic and
    best-of-M (Q, Q) inference matrices under logit scale lam."""
    if det.shape != stoch.shape or det.shape[0] != det.shape[1]:
        raise ContractViolation("alignment report wants an aligned text-video pool")
    ce_det = _per_pair_ce(det, lam)
    ce_stoch = _per_pair_ce(stoch, lam)
    n = det.shape[0]
    off_diag = ~np.eye(n, dtype=bool)
    rows = []
    for q in range(n):
        rows.append(
            AlignmentRow(
                query_id=q,
                max_irrelevant_sim_det=float(det[q, off_diag[q]].max()),
                max_irrelevant_sim_stoch=float(stoch[q, off_diag[q]].max()),
                ce_det=float(ce_det[q]),
                ce_stoch=float(ce_stoch[q]),
            )
        )
    return rows


def alignment_report(
    texts: np.ndarray,
    videos: np.ndarray,
    params: ModelParameters,
    cfg: SamplingConfig,
    seed: int,
) -> list[AlignmentRow]:
    """Per query: maximum similarity to irrelevant candidates and per-pair
    CE term, under the deterministic text and under best-of-M selection.
    Wants an aligned pool (query q's relevant candidate is q)."""
    texts = np.asarray(texts, dtype=np.float64)
    videos = np.asarray(videos, dtype=np.float64)
    if texts.shape[0] != videos.shape[0]:
        raise ContractViolation("alignment report wants an aligned text-video pool")
    det = inference_similarity_matrix(texts, videos, params, cfg, False, seed)
    stoch = inference_similarity_matrix(texts, videos, params, cfg, True, seed)
    return alignment_rows(det, stoch, params.logit_scale())


# ---------------------------------------------------------------------------
# CSV emission (fixed schemas, 6 decimal places)


def _write_lines(path, lines: list[str]) -> None:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_metrics_csv(path, metrics: list[RetrievalMetrics]) -> None:
    lines = ["direction,r1,r5,r10,mdr,mnr"]
    for m in metrics:
        lines.append(
            f"{m.direction},{m.r1:.6f},{m.r5:.6f},{m.r10:.6f},{m.mdr:.6f},{m.mnr:.6f}"
        )
    _write_lines(path, lines)


def write_radius_report(path, rows: list[RadiusRow]) -> None:
    lines = ["query_id,candidate_id,relevant,l1_radius,best_similarity"]
    for r in rows:
        lines.append(
            f"{r.query_id},{r.candidate_id},{int(r.relevant)},"
            f"{r.l1_radius:.6f},{r.best_similarity:.6f}"
        )
    _write_lines(path, lines)


def write_alignment_report(path, rows: list[AlignmentRow]) -> None:
    lines = ["query_id,max_irrelevant_sim_det,max_irrelevant_sim_stoch,ce_det,ce_stoch"]
    for r in rows:
        lines.append(
            f"{r.query_id},{r.max_irrelevant_sim_det:.6f},{r.max_irrelevant_sim_stoch:.6f},"
            f"{r.ce_det:.6f},{r.ce_stoch:.6f}"
        )
    _write_lines(path, lines)
