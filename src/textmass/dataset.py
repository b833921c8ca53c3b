"""Synthetic text-video pairs and bit-exact embedding file I/O.

Each pair is built from a unit latent concept vector z. Video frames are
redundant, noisy views of z (plus distractor concepts drawn from a shared
pool), while the text keeps only the largest-magnitude fraction of z's
coordinates. The coverage dial makes texts strictly less informative than
their videos, which is the premise the stochastic text mass is meant to
absorb. Blocks of pairs are built as arrays from one row of uniforms per
pair (core.stream_uniforms), bit for bit as one pair at a time would be.

Embedding files ("TMEB") hold single-precision row-major matrices with a
fixed 20-byte header; a dataset directory is two such files plus a manifest
CSV mapping pair ids to byte offsets.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    ContractViolation,
    FormatError,
    atomic_write,
    box_muller,
    check_field_types,
    check_seed,
    stream_uniforms,
    substream,
)

TEST_FRACTION = 0.2
DISTRACTOR_POOL_FACTOR = 4

EMBEDDING_MAGIC = b"TMEB"
EMBEDDING_VERSION = 1
_HEADER = struct.Struct("<4sIIII")
MANIFEST_HEADER = ["pair_id", "split", "text_file_offset", "video_file_offset"]

# substream purposes for data generation
_STREAM_POOL = 401
_STREAM_PAIR = 402


@dataclass
class SyntheticSpec:
    """Generation knobs: K pairs of c-dimensional concepts, T raw frames,
    text coverage fraction, frame noise scale, distractor concepts per
    frame."""

    pairs: int = 640
    concept_dim: int = 16
    raw_frames: int = 16
    coverage: float = 0.4
    noise_sigma: float = 0.1
    distractors: int = 2
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.pairs < 2:
            raise ContractViolation("need at least two pairs")
        if self.concept_dim < 2:
            raise ContractViolation("concept dimension must be at least 2")
        if self.raw_frames < 1:
            raise ContractViolation("need at least one raw frame")
        if not 0.0 < self.coverage <= 1.0:
            raise ContractViolation("coverage must lie in (0, 1]")
        if self.mask_count < 1:
            raise ContractViolation("coverage keeps no text coordinates")
        if self.noise_sigma < 0.0:
            raise ContractViolation("noise sigma must be nonnegative")
        if self.distractors < 0:
            raise ContractViolation("distractor count must be nonnegative")
        check_seed(self.seed)

    @property
    def mask_count(self) -> int:
        return int(self.coverage * self.concept_dim)


@dataclass
class PairRecord:
    pair_id: int
    text: np.ndarray
    video: np.ndarray
    split: str


# Pairs whose frames and texts generate builds in one pass: bounds the
# transient arrays to a few hundred kB at the bench spec.
PAIR_BLOCK_ROWS = 32


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x scaled in place to unit rows. np.sqrt(np.vecdot(row, row)) runs
    the BLAS dot of np.linalg.norm(row); OpenBLAS's Prescott dot rounds by
    the row's 16-byte alignment, so there it can differ from the norm of
    an aligned copy."""
    norms = np.sqrt(np.vecdot(x, x))
    if np.any(norms <= 1e-12):
        raise ContractViolation("cannot normalize a zero vector")
    x /= norms[..., None]
    return x


def generate(spec: SyntheticSpec) -> list[PairRecord]:
    """Deterministic pair list; the last TEST_FRACTION of ids is the test
    split."""
    c, frame_count = spec.concept_dim, spec.raw_frames
    count = spec.mask_count
    pool = None
    if spec.distractors > 0:
        pool_size = DISTRACTOR_POOL_FACTOR * c
        raw = substream(spec.seed, _STREAM_POOL).standard_normal(pool_size * c)
        pool = raw.reshape(pool_size, c)
        pool = pool / np.linalg.norm(pool, axis=1)[:, None]

    # A pair's stream holds z's normals, then per frame its distractor
    # uniforms and its noise normals; one row gives them all. A block of
    # pairs is built in place in the arrays that the records view.
    wz = 2 * ((c + 1) // 2)
    wd = 2 * spec.distractors
    wn = wz if spec.noise_sigma > 0.0 else 0
    texts = np.zeros((spec.pairs, c))
    videos = np.empty((spec.pairs, frame_count, c))
    buffer = np.empty((min(PAIR_BLOCK_ROWS, spec.pairs), wz + frame_count * (wd + wn)))
    rows = stream_uniforms(spec.seed, (_STREAM_PAIR,), (np.arange(spec.pairs),), buffer)
    for first, u in zip(range(0, spec.pairs, len(buffer)), rows):
        z = _unit_rows(box_muller(u[:, :wz])[:, :c])
        per_frame = u[:, wz:].reshape(len(u), frame_count, wd + wn)
        frames = videos[first : first + len(u)]
        frames[...] = z[:, None, :]
        if wd:
            idx = (per_frame[..., 0:wd:2] * pool.shape[0]).astype(np.int64)
            frames += (per_frame[..., 1:wd:2, None] * pool[idx]).sum(axis=2)
        if wn:
            frames += spec.noise_sigma * box_muller(per_frame[..., wd:])[..., :c]
        _unit_rows(frames)
        keep = np.argsort(-np.abs(z), axis=1, kind="stable")[:, :count]
        text = texts[first : first + len(u)]
        np.put_along_axis(text, keep, np.take_along_axis(z, keep, axis=1), axis=1)
        _unit_rows(text)
    test_start = spec.pairs - int(spec.pairs * TEST_FRACTION)
    splits = ["train"] * test_start + ["test"] * (spec.pairs - test_start)
    return list(map(PairRecord, range(spec.pairs), texts, videos, splits))


@dataclass
class CorpusArrays:
    """Each split's texts and videos stacked, in record order."""

    train_text: np.ndarray
    train_videos: np.ndarray
    test_text: np.ndarray
    test_videos: np.ndarray


def split_arrays(records: list[PairRecord]) -> CorpusArrays:
    train = [r for r in records if r.split == "train"]
    test = [r for r in records if r.split == "test"]
    if not train or not test:
        raise ContractViolation("corpus needs both train and test pairs")
    return CorpusArrays(
        train_text=np.stack([r.text for r in train]),
        train_videos=np.stack([r.video for r in train]),
        test_text=np.stack([r.text for r in test]),
        test_videos=np.stack([r.video for r in test]),
    )


# ---------------------------------------------------------------------------
# embedding file format


def write_embeddings(path, items: list) -> None:
    """Write homogeneous vectors or per-item row sets as single-precision
    row-major data behind a fixed header, atomically. An item with a value
    that is not finite in single precision (NaN, or beyond float32 range)
    is a ContractViolation naming the item: read_embeddings would refuse
    it."""
    arrays = [np.asarray(item, dtype=np.float64) for item in items]
    if not arrays:
        atomic_write(path, _HEADER.pack(EMBEDDING_MAGIC, EMBEDDING_VERSION, 0, 0, 0))
        return
    shaped = []
    for arr in arrays:
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise ContractViolation("embedding items must be vectors or row sets")
        shaped.append(arr)
    rows, dim = shaped[0].shape
    if rows == 0 or dim == 0:
        raise ContractViolation("embedding items need at least one row and one value per row")
    for arr in shaped:
        if arr.shape != (rows, dim):
            raise ContractViolation("embedding items must share one shape")
    parts = [_HEADER.pack(EMBEDDING_MAGIC, EMBEDDING_VERSION, len(shaped), rows, dim)]
    for index, arr in enumerate(shaped):
        with np.errstate(over="ignore"):  # an overflow is refused below
            single = arr.astype("<f4")
        if not np.isfinite(single).all():
            raise ContractViolation(f"embedding item {index} holds a value that is not finite in float32")
        parts.append(single.tobytes(order="C"))
    atomic_write(path, b"".join(parts))


def item_offset(index: int, rows: int, dim: int) -> int:
    """Byte offset of item `index` inside an embedding file."""
    return _HEADER.size + index * rows * dim * 4


def read_embeddings(path) -> list:
    """Items as float64 arrays; single-row items come back as vectors."""
    items = _read_items(path)
    return [item[0] if items.shape[1] == 1 else item for item in items]


def _read_items(path) -> np.ndarray:
    """The (count, rows, dim) float64 items of an embedding file. A NaN or
    infinite value is a FormatError naming its byte offset."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"embedding file truncated at byte {len(blob)} in header")
    magic, version, count, rows, dim = _HEADER.unpack_from(blob, 0)
    if magic != EMBEDDING_MAGIC:
        raise FormatError(f"bad embedding magic at byte 0: {magic!r}")
    if version != EMBEDDING_VERSION:
        raise FormatError(f"unsupported embedding version {version} at byte 4")
    if count and not (rows and dim):
        raise FormatError(f"embedding header at byte 8 declares {count} items of {rows} x {dim} values")
    expected = _HEADER.size + count * rows * dim * 4
    if len(blob) != expected:
        where = min(len(blob), expected)
        raise FormatError(f"embedding file length mismatch at byte {where}")
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise FormatError(f"non-finite embedding value at byte {_HEADER.size + 4 * int(bad[0])}")
    return data.astype(np.float64).reshape(count, rows, dim)


# ---------------------------------------------------------------------------
# corpus directory: texts.tmeb + videos.tmeb + manifest.csv


def write_corpus(directory, records: list[PairRecord]) -> None:
    """Write the records as texts.tmeb, videos.tmeb and manifest.csv, each
    file atomically."""
    if not records:
        raise ContractViolation("refusing to write an empty corpus")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_embeddings(directory / "texts.tmeb", [r.text for r in records])
    write_embeddings(directory / "videos.tmeb", [r.video for r in records])
    dim = records[0].text.shape[0]
    frames = records[0].video.shape[0]
    manifest = io.StringIO(newline="")
    writer = csv.writer(manifest)
    writer.writerow(MANIFEST_HEADER)
    for i, record in enumerate(records):
        writer.writerow([record.pair_id, record.split, item_offset(i, 1, dim), item_offset(i, frames, dim)])
    atomic_write(directory / "manifest.csv", manifest.getvalue().encode("utf-8"))


def read_corpus(directory) -> list[PairRecord]:
    directory = Path(directory)
    texts = read_embeddings(directory / "texts.tmeb")
    videos = _read_items(directory / "videos.tmeb")
    manifest_path = directory / "manifest.csv"
    if not manifest_path.exists():
        raise FormatError(f"missing manifest: {manifest_path}")
    try:
        text = manifest_path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"manifest is not UTF-8 at byte {exc.start}") from None
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise FormatError("manifest header mismatch")
        rows = list(reader)
    except csv.Error as exc:
        raise FormatError(f"manifest is not valid CSV: {exc}") from None
    if len(rows) != len(texts) or len(rows) != len(videos):
        raise FormatError(
            f"manifest lists {len(rows)} pairs but files hold {len(texts)} texts "
            f"and {len(videos)} videos"
        )
    if texts and texts[0].shape != videos.shape[2:]:
        raise FormatError(
            f"texts.tmeb holds items of shape {texts[0].shape} and videos.tmeb frames of width "
            f"{videos.shape[2]}; a corpus wants each text one vector as wide as a frame"
        )
    records = []
    first_row = {}
    for i, row in enumerate(rows):
        if len(row) != len(MANIFEST_HEADER):
            raise FormatError(f"manifest row {i}: {len(row)} fields, expected {len(MANIFEST_HEADER)}")
        try:
            pair_id, offsets = int(row[0]), (int(row[2]), int(row[3]))
        except ValueError:
            raise FormatError(f"manifest row {i}: pair id or offset is not an integer") from None
        if pair_id in first_row:
            raise FormatError(f"manifest row {i}: pair id {pair_id} repeats row {first_row[pair_id]}")
        first_row[pair_id] = i
        split = row[1]
        if split not in ("train", "test"):
            raise FormatError(f"manifest row {i}: unknown split {split!r}")
        if offsets != (item_offset(i, 1, videos.shape[2]), item_offset(i, *videos.shape[1:])):
            raise FormatError(f"manifest row {i}: offset disagrees with file layout")
        records.append(PairRecord(pair_id=pair_id, text=texts[i], video=videos[i], split=split))
    return records
