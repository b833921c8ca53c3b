"""Synthetic corpus semantics (coverage, redundancy, determinism) and the
embedding file format."""

import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textmass import dataset
from textmass.core import ContractViolation, FormatError
from textmass.dataset import (
    EMBEDDING_MAGIC,
    EMBEDDING_VERSION,
    PairRecord,
    SyntheticSpec,
    generate,
    item_offset,
    read_corpus,
    read_embeddings,
    split_arrays,
    write_corpus,
    write_embeddings,
)

from oracle import generate as generate_per_call


def paired_cosines(records):
    values = []
    for r in records:
        mean_frame = r.video.mean(axis=0)
        values.append(
            float(np.dot(r.text, mean_frame) / (np.linalg.norm(r.text) * np.linalg.norm(mean_frame)))
        )
    return np.array(values)


class TestGenerate:
    def test_lossless_regime(self):
        spec = SyntheticSpec(
            pairs=8, concept_dim=6, raw_frames=3, coverage=1.0, noise_sigma=0.0, distractors=0
        )
        for r in generate(spec):
            z = r.text
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
            for frame in r.video:
                assert np.allclose(frame, z, atol=1e-12)

    def test_deterministic_regeneration(self):
        spec = SyntheticSpec(pairs=4, concept_dim=8, raw_frames=2, seed=5)
        a = generate(spec)
        b = generate(spec)
        for ra, rb in zip(a, b):
            assert ra.pair_id == rb.pair_id and ra.split == rb.split
            assert np.array_equal(ra.text, rb.text)
            assert np.array_equal(ra.video, rb.video)

    def test_mask_count(self):
        spec = SyntheticSpec(pairs=4, concept_dim=16, raw_frames=2, coverage=0.5)
        for r in generate(spec):
            assert int(np.count_nonzero(r.text)) == 8

    def test_a_zero_row_cannot_be_normalized(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0]])
        with pytest.raises(ContractViolation, match="^cannot normalize a zero vector$"):
            dataset._unit_rows(rows)

    def test_coverage_too_small_rejected_when_the_spec_is_built(self):
        with pytest.raises(ContractViolation, match="^coverage keeps no text coordinates$"):
            SyntheticSpec(pairs=4, concept_dim=16, raw_frames=2, coverage=0.05)

    def test_split_sizes(self):
        records = generate(SyntheticSpec(pairs=640, concept_dim=4, raw_frames=1, distractors=0))
        arrays = split_arrays(records)
        assert arrays.train_text.shape[0] == 512
        assert arrays.test_text.shape[0] == 128
        # the test rows are records 512-639, in order
        assert np.array_equal(arrays.test_text, np.stack([r.text for r in records[512:]]))
        assert np.array_equal(arrays.test_videos, np.stack([r.video for r in records[512:]]))

    def test_text_is_masked_latent(self):
        spec = SyntheticSpec(
            pairs=4, concept_dim=10, raw_frames=2, coverage=0.5, noise_sigma=0.0, distractors=0
        )
        for r in generate(spec):
            z = r.video[0]
            kept = np.flatnonzero(r.text)
            dropped = np.setdiff1d(np.arange(10), kept)
            # kept coordinates are the largest-magnitude ones
            assert np.min(np.abs(z[kept])) >= np.max(np.abs(z[dropped])) - 1e-12
            scaled = np.zeros(10)
            scaled[kept] = z[kept]
            assert np.allclose(r.text, scaled / np.linalg.norm(scaled), atol=1e-12)

    def test_paired_correlation_beats_mismatched(self):
        records = generate(SyntheticSpec(pairs=64, concept_dim=16, raw_frames=4, seed=2))
        texts = np.stack([r.text for r in records])
        means = np.stack([r.video.mean(axis=0) for r in records])
        means = means / np.linalg.norm(means, axis=1)[:, None]
        paired = np.einsum("ij,ij->i", texts, means).mean()
        mismatched = np.einsum("ij,ij->i", texts, np.roll(means, 1, axis=0)).mean()
        assert paired - mismatched > 0.0

    def test_coverage_monotone_in_rho(self):
        averages = []
        for rho in (1.0, 0.6, 0.3):
            spec = SyntheticSpec(
                pairs=64,
                concept_dim=16,
                raw_frames=4,
                coverage=rho,
                noise_sigma=0.0,
                distractors=2,
                seed=3,
            )
            averages.append(paired_cosines(generate(spec)).mean())
        assert averages[0] > averages[1] > averages[2]

    @given(
        concept_dim=st.integers(2, 9),
        distractors=st.integers(0, 3),
        noise_sigma=st.sampled_from([0.0, 0.1, 0.7]),
        raw_frames=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        pairs=st.integers(2, 11),
        block_rows=st.sampled_from([1, 3, 4, dataset.PAIR_BLOCK_ROWS]),
    )
    @example(concept_dim=16, distractors=2, noise_sigma=0.1, raw_frames=16, seed=0, pairs=5, block_rows=32)
    @example(concept_dim=7, distractors=3, noise_sigma=0.1, raw_frames=3, seed=1, pairs=5, block_rows=32)
    @example(concept_dim=5, distractors=0, noise_sigma=0.1, raw_frames=2, seed=2, pairs=5, block_rows=32)
    @example(concept_dim=6, distractors=2, noise_sigma=0.0, raw_frames=4, seed=3, pairs=5, block_rows=32)
    # blocks of 4 pairs and a ragged last block of 3; blocks of 3 that end exactly
    @example(concept_dim=7, distractors=2, noise_sigma=0.1, raw_frames=3, seed=4, pairs=11, block_rows=4)
    @example(concept_dim=6, distractors=1, noise_sigma=0.7, raw_frames=2, seed=5, pairs=9, block_rows=3)
    @settings(max_examples=40, deadline=None)
    def test_one_draw_per_pair_equals_per_call_draws(
        self, concept_dim, distractors, noise_sigma, raw_frames, seed, pairs, block_rows
    ):
        spec = SyntheticSpec(
            pairs=pairs,
            concept_dim=concept_dim,
            raw_frames=raw_frames,
            coverage=0.5,
            noise_sigma=noise_sigma,
            distractors=distractors,
            seed=seed,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "PAIR_BLOCK_ROWS", block_rows)
            got = generate(spec)
        want = generate_per_call(spec)
        assert [(r.pair_id, r.split) for r in got] == [(r.pair_id, r.split) for r in want]
        for a, b in zip(got, want):
            assert a.text.tobytes() == b.text.tobytes()
            assert a.video.tobytes() == b.video.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ContractViolation):
            SyntheticSpec(pairs=1)
        with pytest.raises(ContractViolation):
            SyntheticSpec(concept_dim=1)
        with pytest.raises(ContractViolation):
            SyntheticSpec(raw_frames=0)
        with pytest.raises(ContractViolation):
            SyntheticSpec(coverage=0.0)
        with pytest.raises(ContractViolation):
            SyntheticSpec(noise_sigma=-0.1)
        with pytest.raises(ContractViolation, match="^distractor count must be nonnegative$"):
            SyntheticSpec(distractors=-1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_the_generated_range_rejected(self, seed):
        # the streams fold the seed to 64 bits: 2**64 would generate seed 0's corpus
        with pytest.raises(ContractViolation, match=r"^seed must lie in \[0, 2\*\*64\)$"):
            SyntheticSpec(seed=seed)

    def test_largest_seed_accepted(self):
        assert SyntheticSpec(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "field, value", [("pairs", 40.5), ("distractors", True), ("coverage", "0.4"), ("seed", 1.0)]
    )
    def test_fields_of_the_wrong_type_rejected(self, field, value):
        with pytest.raises(ContractViolation, match=f"config value {field} = .* must be"):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("field", ["coverage", "noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_fields_rejected(self, field, value):
        with pytest.raises(ContractViolation, match=f"{field} = .* is not finite"):
            SyntheticSpec(**{field: value})


class TestEmbeddingFiles:
    def test_round_trip_single_precision(self, tmp_path):
        path = tmp_path / "vectors.tmeb"
        items = [np.array([0.1, 0.2, 0.3]), np.array([1.5, -2.5, 3.25])]
        write_embeddings(path, items)
        back = read_embeddings(path)
        for original, loaded in zip(items, back):
            assert np.array_equal(loaded, original.astype(np.float32).astype(np.float64))

    def test_round_trip_frame_sets(self, tmp_path):
        path = tmp_path / "frames.tmeb"
        items = [np.arange(6.0).reshape(2, 3), np.arange(6.0, 12.0).reshape(2, 3)]
        write_embeddings(path, items)
        back = read_embeddings(path)
        assert all(b.shape == (2, 3) for b in back)
        assert np.allclose(back[1], items[1])

    def test_empty_list(self, tmp_path):
        path = tmp_path / "empty.tmeb"
        write_embeddings(path, [])
        assert read_embeddings(path) == []
        assert path.stat().st_size == 20

    @pytest.mark.parametrize("rows, dim", [(0, 4), (3, 0), (0, 0)])
    def test_items_without_values_are_a_format_error(self, tmp_path, rows, dim):
        # a bare 20-byte header passes the length check whatever item count it claims
        path = tmp_path / "hollow.tmeb"
        path.write_bytes(struct.pack("<4sIIII", EMBEDDING_MAGIC, EMBEDDING_VERSION, 1000, rows, dim))
        message = f"^embedding header at byte 8 declares 1000 items of {rows} x {dim} values$"
        with pytest.raises(FormatError, match=message):
            read_embeddings(path)

    @pytest.mark.parametrize(
        "item", [np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0))], ids=["vector", "rows", "width"]
    )
    def test_writing_an_item_without_values_is_refused(self, tmp_path, item):
        path = tmp_path / "hollow.tmeb"
        with pytest.raises(ContractViolation, match="at least one row and one value"):
            write_embeddings(path, [item, item])
        assert not path.exists()

    def test_writing_an_item_of_more_than_two_axes_is_refused(self, tmp_path):
        path = tmp_path / "cube.tmeb"
        with pytest.raises(ContractViolation, match="^embedding items must be vectors or row sets$"):
            write_embeddings(path, [np.zeros((2, 3)), np.zeros((2, 3, 1))])
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("nan"), 1e39], ids=["nan", "beyond-float32"])
    def test_writing_a_value_it_cannot_read_back_is_refused(self, tmp_path, value):
        path = tmp_path / "bad.tmeb"
        items = [np.zeros((2, 3)), np.zeros((2, 3))]
        items[1][1, 2] = value
        with pytest.raises(ContractViolation, match="embedding item 1 holds"):
            write_embeddings(path, items)
        assert not path.exists()

    def test_write_read_write_is_byte_stable(self, tmp_path):
        first = tmp_path / "a.tmeb"
        second = tmp_path / "b.tmeb"
        items = [np.array([0.1, 0.7, -0.3]), np.array([2.0, -1.0, 0.25])]
        write_embeddings(first, items)
        write_embeddings(second, read_embeddings(first))
        assert first.read_bytes() == second.read_bytes()

    def test_heterogeneous_shapes_rejected(self, tmp_path):
        with pytest.raises(ContractViolation):
            write_embeddings(tmp_path / "bad.tmeb", [np.zeros(3), np.zeros(4)])

    def test_corrupt_magic_offset_zero(self, tmp_path):
        path = tmp_path / "vectors.tmeb"
        write_embeddings(path, [np.zeros(3)])
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte 0"):
            read_embeddings(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "vectors.tmeb"
        write_embeddings(path, [np.zeros(3)])
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte 4"):
            read_embeddings(path)

    def test_truncation_names_offset(self, tmp_path):
        path = tmp_path / "vectors.tmeb"
        write_embeddings(path, [np.zeros(4), np.ones(4)])
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match=f"byte {len(blob) - 5}"):
            read_embeddings(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_byte(self, tmp_path, value):
        path = tmp_path / "frames.tmeb"
        write_embeddings(path, [np.ones((2, 3)), np.ones((2, 3))])
        blob = bytearray(path.read_bytes())
        # item 1, row 0, coordinate 2; a second bad value later does not matter
        first = item_offset(1, 2, 3) + 2 * 4
        blob[first : first + 4] = np.float32(value).tobytes()
        blob[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"^non-finite embedding value at byte {first}$"):
            read_embeddings(path)

    def test_item_offsets(self):
        assert item_offset(0, 1, 16) == 20
        assert item_offset(3, 8, 16) == 20 + 3 * 8 * 16 * 4


CORPUS_FILES = ("texts.tmeb", "videos.tmeb", "manifest.csv")


class TestCorpusDirectory:
    @pytest.mark.parametrize("failing", range(len(CORPUS_FILES)), ids=CORPUS_FILES)
    def test_failed_write_leaves_no_partial_file_and_no_temp(self, tmp_path, monkeypatch, failing):
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=2, seed=4))
        write_corpus(tmp_path / "whole", records)
        whole = {p.name: p.read_bytes() for p in (tmp_path / "whole").iterdir()}
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            if len(synced) == failing:
                raise OSError("disk full")
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        target = tmp_path / "corpus"
        with pytest.raises(OSError, match="disk full"):
            write_corpus(target, records)
        # the files written before the failure are whole; nothing else is left
        assert {p.name: p.read_bytes() for p in target.iterdir()} == {
            name: whole[name] for name in CORPUS_FILES[:failing]
        }

    def test_empty_corpus_refused_before_any_directory_is_made(self, tmp_path):
        target = tmp_path / "corpus" / "nested"
        with pytest.raises(ContractViolation, match="empty corpus"):
            write_corpus(target, [])
        assert not (tmp_path / "corpus").exists()

    def test_failed_empty_embedding_write_leaves_no_file(self, tmp_path, monkeypatch):
        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            write_embeddings(tmp_path / "empty.tmeb", [])
        assert list(tmp_path.iterdir()) == []

    def test_round_trip(self, tmp_path):
        records = generate(SyntheticSpec(pairs=10, concept_dim=6, raw_frames=3, seed=4))
        write_corpus(tmp_path / "corpus", records)
        back = read_corpus(tmp_path / "corpus")
        assert [r.pair_id for r in back] == [r.pair_id for r in records]
        assert [r.split for r in back] == [r.split for r in records]
        for original, loaded in zip(records, back):
            assert np.array_equal(
                loaded.text, original.text.astype(np.float32).astype(np.float64)
            )
            assert np.array_equal(
                loaded.video, original.video.astype(np.float32).astype(np.float64)
            )

    def test_one_frame_videos_round_trip(self, tmp_path):
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=1, seed=4))
        write_corpus(tmp_path / "corpus", records)
        back = read_corpus(tmp_path / "corpus")
        for original, loaded in zip(records, back):
            assert loaded.text.shape == (6,) and loaded.video.shape == (1, 6)
            assert np.array_equal(loaded.text, original.text.astype(np.float32).astype(np.float64))
            assert np.array_equal(loaded.video, original.video.astype(np.float32).astype(np.float64))

    def test_swapped_text_and_video_files_are_a_format_error(self, tmp_path):
        # raw_frames == concept_dim: each file alone is a valid embedding file
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=6, seed=4))
        target = tmp_path / "corpus"
        write_corpus(target, records)
        texts, videos = (target / "texts.tmeb").read_bytes(), (target / "videos.tmeb").read_bytes()
        (target / "texts.tmeb").write_bytes(videos)
        (target / "videos.tmeb").write_bytes(texts)
        message = "texts.tmeb holds items of shape (6, 6) and videos.tmeb frames of width 6"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_corpus(target)

    def test_text_and_frame_widths_must_agree(self, tmp_path):
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=2, seed=4))
        target = tmp_path / "corpus"
        write_corpus(target, records)
        write_embeddings(target / "texts.tmeb", [r.text[:5] for r in records])
        message = "texts.tmeb holds items of shape (5,) and videos.tmeb frames of width 6"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_corpus(target)

    def test_manifest_mismatch_detected(self, tmp_path):
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=2, seed=4))
        target = tmp_path / "corpus"
        write_corpus(target, records)
        manifest = (target / "manifest.csv").read_text().splitlines()
        (target / "manifest.csv").write_text("\n".join(manifest[:-1]) + "\n")
        with pytest.raises(FormatError, match="manifest lists"):
            read_corpus(target)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,train", "manifest row 1: 2 fields, expected 4"),
            ("1,train,44,68,0", "manifest row 1: 5 fields, expected 4"),
            ("", "manifest row 1: 0 fields, expected 4"),
            ("x,train,44,68", "manifest row 1: pair id or offset is not an integer"),
            ("1,train,4.5,68", "manifest row 1: pair id or offset is not an integer"),
            ("1,train,44,", "manifest row 1: pair id or offset is not an integer"),
            ("0,train,44,68", "manifest row 1: pair id 0 repeats row 0"),
        ],
        ids=["short", "long", "blank", "id", "text-offset", "video-offset", "repeated-id"],
    )
    def test_malformed_manifest_row_is_format_error(self, tmp_path, row, message):
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=2, seed=4))
        target = tmp_path / "corpus"
        write_corpus(target, records)
        lines = (target / "manifest.csv").read_text().splitlines()
        assert lines[0] == "pair_id,split,text_file_offset,video_file_offset"
        lines[2] = row
        (target / "manifest.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=re.escape(message)):
            read_corpus(target)

    def test_missing_manifest(self, tmp_path):
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=2, seed=4))
        target = tmp_path / "corpus"
        write_corpus(target, records)
        (target / "manifest.csv").unlink()
        with pytest.raises(FormatError, match="missing manifest"):
            read_corpus(target)

    def test_non_utf8_manifest_names_the_byte(self, tmp_path):
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=2, seed=4))
        target = tmp_path / "corpus"
        write_corpus(target, records)
        blob = bytearray((target / "manifest.csv").read_bytes())
        where = blob.index(b"train")
        blob[where] = 0xFF
        (target / "manifest.csv").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"^manifest is not UTF-8 at byte {where}$"):
            read_corpus(target)

    def test_oversized_manifest_field_is_format_error(self, tmp_path):
        records = generate(SyntheticSpec(pairs=6, concept_dim=6, raw_frames=2, seed=4))
        target = tmp_path / "corpus"
        write_corpus(target, records)
        lines = (target / "manifest.csv").read_text().splitlines()
        lines[2] = "1," + "t" * 200_000 + ",44,68"
        (target / "manifest.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="^manifest is not valid CSV: field larger than field limit"):
            read_corpus(target)

    def test_split_arrays_requires_both_splits(self):
        records = [
            PairRecord(pair_id=0, text=np.ones(3), video=np.ones((2, 3)), split="train"),
            PairRecord(pair_id=1, text=np.ones(3), video=np.ones((2, 3)), split="train"),
        ]
        with pytest.raises(ContractViolation):
            split_arrays(records)
