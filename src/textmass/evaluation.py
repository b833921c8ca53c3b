"""Retrieval evaluation in both directions plus diagnostic reports.

Inference runs training's encode, fusion and radius stages on blocks of about
QUERY_BLOCK_ROWS (query, candidate) rows, so each pair gets its own fused
video embedding and its own radius, bit for bit as a one-query call gives
them, and refuses non-finite features and seeds outside [0, 2**64). Scoring
runs one query at a time over all of its candidates in one numpy pass.
Without sampling a pair scores the clipped cosine of the text with the fused
video. With sampling it scores the best cosine over M text-mass samples:
``core.grid_normals`` draws each query's normals, one row per candidate on
the substream (seed, query id, candidate id), and ``mass.text_mass`` turns
the rows into pools in place, bit for bit as the per-pair
``select_best_sample`` draws and scores them. Ranks use strictly-greater
counting with index tie-break. Reports are emitted as UTF-8 CSV with
6-decimal numbers so identical seeds give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .core import ContractViolation, atomic_write, check_finite, check_seed, grid_normals
from .encoders import attend, encode_batch, encode_video_batch, fuse_output, project
from .mass import SamplingConfig, pool_similarities, radius_batch, text_mass
from .model import ModelParameters
# the per-pair reference that _best_of_prefixes batches stays bound here, unused,
# because the traced benchmark (perfbench/worker.py) wraps it by name
from .core import substream  # noqa: F401
from .mass import select_best_sample  # noqa: F401

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
# blocks of queries through training's stages


@dataclass
class _Pool:
    """A pool encoded once: texts as one-text blocks (Q, 1, d), each its own
    (1, c) product whatever Q is, and frames (C, T', d) with their fusion
    keys and projected values (outputs), which every query block pools."""

    blocks: np.ndarray
    frames: np.ndarray
    keys: np.ndarray
    outputs: np.ndarray


def _embed_pool(texts: np.ndarray, videos: np.ndarray, params: ModelParameters) -> _Pool:
    """Texts (Q, c) and videos (C, T, c) encoded once; other shapes and non-finite features are refused."""
    texts = np.asarray(texts, dtype=np.float64)
    videos = np.asarray(videos, dtype=np.float64)
    if texts.ndim != 2 or videos.ndim != 3:
        raise ContractViolation("inference wants texts (Q, c) and videos (C, T, c)")
    check_finite("text features", texts)
    check_finite("video features", videos)
    blocks = encode_batch(texts[:, None, :], params, "text").emb
    frames = encode_video_batch(videos, params).emb
    outputs = project(project(frames, params, "fusion_value"), params, "fusion_out")
    return _Pool(blocks, frames, project(frames, params, "fusion_key"), outputs)


# Rows (queries x candidates) of one block through fusion and the radius
# stage (whole queries, at least one): bounds the block's transient arrays
# to a few hundred kB at d = 32.
QUERY_BLOCK_ROWS = 512


def _query_stages(pool: _Pool, params: ModelParameters, with_fused: bool, with_radii: bool):
    """For every query in order yield its text (d,), and its fused videos
    (C, d) if with_fused and its radii (C, d) if with_radii, else None.

    A block of about QUERY_BLOCK_ROWS rows is fused as one (k, 1, d) slice
    of the text blocks, k along fusion's copy axis, and its texts go through
    the radius stage at once, broadcast to (k, C, d): every row comes out
    bit for bit as a one-query call gives it. The sampled matrix and
    pool_radius_report both take their radii from here, so the report shows
    the radii its scores were drawn with."""
    q_count, c_count = pool.blocks.shape[0], pool.frames.shape[0]
    per_block = max(1, QUERY_BLOCK_ROWS // max(c_count, 1))
    for first in range(0, q_count, per_block):
        blocks = pool.blocks[first : first + per_block]
        fused = radii = repeat(None)
        if with_fused:
            fused = fuse_output(attend(blocks, pool.keys, params).weights, None, pool.outputs).fused[:, 0]
        if with_radii:
            texts = np.broadcast_to(blocks, (blocks.shape[0], c_count, blocks.shape[2]))
            radii = radius_batch(texts, pool.frames, params).radius
        yield from zip(blocks[:, 0], fused, radii)


def _best_of_prefixes(
    texts: np.ndarray,
    videos: np.ndarray,
    params: ModelParameters,
    trial_counts: tuple[int, ...],
    use_sampling: bool,
    seed: int,
) -> dict[int, np.ndarray]:
    """(Q, C) best-of-m matrix for every m in trial_counts, one query's row
    at a time over blocks of queries, from one pass at the largest m.
    Without sampling every pool is the text alone, so every matrix is the
    deterministic one. With sampling, candidate c's pool is text_mass(t,
    R_c, eps), formed in place in row c of the query's normals (C, M*d),
    drawn on substream (seed, _STREAM_EVAL, query id, c); a pair's best of
    its first m samples is the max of its row's prefix [:m]. Raises
    ContractViolation if a pair has a non-finite score."""
    check_seed(seed)
    pool = _embed_pool(texts, videos, params)
    q_count, c_count = pool.blocks.shape[0], pool.frames.shape[0]
    trials = max(trial_counts)
    draws = repeat(None)
    if use_sampling:
        draws = grid_normals(seed, (_STREAM_EVAL,), q_count, c_count, trials * params.dim)
    mats = {m: np.empty((q_count, c_count)) for m in trial_counts}
    stages = _query_stages(pool, params, True, use_sampling)
    for q, ((t, fused, radius_grid), normals) in enumerate(zip(stages, draws)):
        samples = t[None, None, :]
        if use_sampling:
            samples = normals.reshape(c_count, trials, params.dim)
            text_mass(t, radius_grid[:, None, :], samples, out=samples)
        scores = pool_similarities(samples, fused)
        bad = int(np.count_nonzero(~np.isfinite(scores).all(axis=-1)))
        if bad:
            raise ContractViolation(f"query {q}: {bad} of {c_count} pair scores are non-finite")
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
    if not trial_counts:
        raise ContractViolation("nested trial matrices want at least one trial count")
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
    check_finite("similarity scores", sims)
    relevant = np.asarray(relevant_index)
    if relevant.dtype.kind not in "iu":
        raise ContractViolation(f"relevant indices must be integers, got {relevant.dtype} values")
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


def pool_radius_report(
    texts: np.ndarray, videos: np.ndarray, params: ModelParameters, sampled: np.ndarray
) -> list[RadiusRow]:
    """Per-candidate L1 radius mass and best-of-M similarity for every query
    of an aligned pool (query q's relevant candidate is q). The radii come
    from inference's radius stage; each best-of-M similarity is taken from
    sampled, the pool's (Q, C) inference matrix with sampling, instead of
    scoring the pairs again."""
    pool = _embed_pool(texts, videos, params)
    sampled = np.asarray(sampled, dtype=np.float64)
    if pool.blocks.shape[0] != pool.frames.shape[0]:
        raise ContractViolation("pool radius report wants an aligned text-video pool")
    if sampled.shape != (pool.blocks.shape[0], pool.frames.shape[0]):
        raise ContractViolation("sampled matrix does not match the pool")
    check_finite("sampled scores", sampled)
    return [
        RadiusRow(query_id=q, candidate_id=c, relevant=(c == q), l1_radius=float(np.abs(radius_grid[c]).sum()),
                  best_similarity=float(sampled[q, c]))
        for q, (_, _, radius_grid) in enumerate(_query_stages(pool, params, False, True))
        for c in range(radius_grid.shape[0])
    ]


def _per_pair_ce(sims: np.ndarray, lam: float) -> np.ndarray:
    """Per-query text-to-video cross-entropy terms on an aligned matrix."""
    logits = lam * sims
    shift = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]
    return lse - np.diagonal(logits)


def alignment_rows(det: np.ndarray, stoch: np.ndarray, lam: float) -> list[AlignmentRow]:
    """The alignment report of an aligned pool from its deterministic and
    best-of-M (Q, Q) inference matrices under logit scale lam. Q must be at
    least 2, so that every query has an irrelevant candidate."""
    det = np.asarray(det, dtype=np.float64)
    stoch = np.asarray(stoch, dtype=np.float64)
    if det.ndim != 2 or det.shape != stoch.shape or det.shape[0] != det.shape[1]:
        raise ContractViolation("alignment report wants an aligned text-video pool")
    if det.shape[0] < 2:
        raise ContractViolation(f"alignment report wants at least 2 aligned pairs, got {det.shape[0]}")
    check_finite("logit scale", lam)
    check_finite("deterministic scores", det)
    check_finite("sampled scores", stoch)
    ce_det = _per_pair_ce(det, lam)
    ce_stoch = _per_pair_ce(stoch, lam)
    off_diag = ~np.eye(det.shape[0], dtype=bool)
    return [
        AlignmentRow(
            query_id=q,
            max_irrelevant_sim_det=float(det[q, off_diag[q]].max()),
            max_irrelevant_sim_stoch=float(stoch[q, off_diag[q]].max()),
            ce_det=float(ce_det[q]),
            ce_stoch=float(ce_stoch[q]),
        )
        for q in range(det.shape[0])
    ]


# ---------------------------------------------------------------------------
# CSV emission: one row writer, a row dataclass per schema


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def write_csv_rows(path, row_type, rows: list) -> None:
    """Write dataclass rows atomically as UTF-8 CSV under a header of
    row_type's field names: floats with 6 decimals, bools as 0/1, anything
    else as str."""
    names = [f.name for f in fields(row_type)]
    lines = [",".join(names)]
    lines += [",".join(_csv_cell(getattr(row, name)) for name in names) for row in rows]
    atomic_write(path, "".join(line + "\n" for line in lines).encode("utf-8"))

