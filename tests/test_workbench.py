"""CLI contract: exit codes, run directory shape, grid row counts, config
round trips, and byte-level determinism."""

import dataclasses
import functools
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import textmass
from textmass import evaluation, objectives, workbench
from textmass.core import ContractViolation, FormatError
from textmass.dataset import SyntheticSpec, generate, item_offset, read_corpus, split_arrays, write_corpus
from textmass.mass import SamplingConfig
from textmass.trainer import (
    TrainingConfig,
    config_to_text,
    load_checkpoint,
    parse_config_text,
    save_checkpoint,
)
from textmass.workbench import RunConfig, TRIALS_GRID, main

from test_core import swap_state_words
from test_trainer import TRAINING_DEFAULT_TEXT, ConfigCodecSuite

TINY = {
    "dim": 8,
    "concept_dim": 6,
    "frame_count": 3,
    "raw_frames": 4,
    "pairs": 40,
    "batch_size": 8,
    "epochs": 1,
    "trials": 3,
    "seeds": "0,1",
    "lr_head": 0.005,
    "lr_adapter": 0.0005,
    "dropout_rate": 0.1,
}


def write_config(tmp_path, name="run.txt", **extra):
    merged = {**TINY, **extra}
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in merged.items()), encoding="utf-8")
    return path


def table_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "config,seed,direction,r1,r5,r10,mdr,mnr"
    return [line.split(",") for line in lines[1:]]


# config.txt bytes for RunConfig() and for TINY
RUN_DEFAULT_TEXT = (
    "adapters_enabled = true\n"
    "alpha = 1.2\n"
    "batch_size = 32\n"
    "checkpoint = \n"
    "concept_dim = 16\n"
    "coverage = 0.4\n"
    "data = \n"
    "data_seed = 0\n"
    "dim = 32\n"
    "distractors = 2\n"
    "dropout_rate = 0.3\n"
    "epochs = 5\n"
    "frame_count = 8\n"
    "lr_adapter = 1e-06\n"
    "lr_head = 1e-05\n"
    "mode = t-mass\n"
    "noise_sigma = 0.1\n"
    "pairs = 640\n"
    "radius_trainable = true\n"
    "radius_variant = linear\n"
    "raw_frames = 16\n"
    "sampling = true\n"
    "seed = 0\n"
    "seeds = 0,1,2\n"
    "theta_init = 0.0\n"
    "train_samples = 1\n"
    "trials = 20\n"
    "warmup_fraction = 0.1\n"
    "weight_decay = 0.2\n"
)
TINY_TEXT = (
    "adapters_enabled = true\n"
    "alpha = 1.2\n"
    "batch_size = 8\n"
    "checkpoint = \n"
    "concept_dim = 6\n"
    "coverage = 0.4\n"
    "data = \n"
    "data_seed = 0\n"
    "dim = 8\n"
    "distractors = 2\n"
    "dropout_rate = 0.1\n"
    "epochs = 1\n"
    "frame_count = 3\n"
    "lr_adapter = 0.0005\n"
    "lr_head = 0.005\n"
    "mode = t-mass\n"
    "noise_sigma = 0.1\n"
    "pairs = 40\n"
    "radius_trainable = true\n"
    "radius_variant = linear\n"
    "raw_frames = 4\n"
    "sampling = true\n"
    "seed = 0\n"
    "seeds = 0,1\n"
    "theta_init = 0.0\n"
    "train_samples = 1\n"
    "trials = 3\n"
    "warmup_fraction = 0.1\n"
    "weight_decay = 0.2\n"
)


@pytest.fixture(autouse=True)
def echoed_configs_round_trip(tmp_path):
    """Every config.txt a test's runs write parses back to the same bytes."""
    yield
    for path in tmp_path.rglob("config.txt"):
        text = path.read_text(encoding="utf-8")
        assert config_to_text(parse_config_text(text, RunConfig())) == text, path


class TestRunConfigText(ConfigCodecSuite):
    config_type = RunConfig
    default_text = RUN_DEFAULT_TEXT
    varied = {"seeds": (3, 5), "sampling": False, "data": "corpus/dir", "pairs": 64}

    def test_checkpoint_keeps_the_training_keys(self):
        projected = RunConfig(dim=8, seeds=(3, 5), data="corpus/dir").training_config()
        assert type(projected) is TrainingConfig
        assert projected == TrainingConfig(dim=8)
        assert config_to_text(RunConfig().training_config()) == TRAINING_DEFAULT_TEXT

    def test_tiny_config_bytes_pinned(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        assert (out / "config.txt").read_text(encoding="utf-8") == TINY_TEXT

    def test_synthetic_spec_takes_the_corpus_keys(self):
        assert RunConfig().synthetic_spec() == SyntheticSpec()
        spec = RunConfig(pairs=64, concept_dim=8, noise_sigma=0.3, data_seed=7, seed=3)
        assert spec.synthetic_spec() == SyntheticSpec(
            pairs=64, concept_dim=8, noise_sigma=0.3, seed=7
        )

    @pytest.mark.parametrize("seeds", [(1.5, 2.9), (True,), "0,1", (0, None)], ids=repr)
    def test_seeds_that_are_not_integers_are_refused(self, seeds):
        with pytest.raises(ContractViolation, match="config value seeds = .* must be a list of integers"):
            RunConfig(seeds=seeds)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            RunConfig(seeds=())
        with pytest.raises(ContractViolation):
            RunConfig(seeds=(0, -1))
        with pytest.raises(ContractViolation, match="seeds must lie in"):
            RunConfig(seeds=(0, 2**64))
        with pytest.raises(ContractViolation, match=r"^seed must lie in \[0, 2\*\*64\)$"):
            RunConfig(data_seed=2**64)
        with pytest.raises(ContractViolation):
            RunConfig(radius_variant="cubic")
        with pytest.raises(ContractViolation):
            RunConfig(coverage=0.0)
        with pytest.raises(ContractViolation, match="^coverage keeps no text coordinates$"):
            RunConfig(coverage=0.05)

    def test_path_with_space_at_an_end_rejected(self):
        # "data =  corpus " would parse back as "corpus"
        with pytest.raises(ContractViolation, match="data"):
            RunConfig(data=" corpus ")

    @pytest.mark.parametrize("char", ["#", "\n", "\r"], ids=["hash", "newline", "return"])
    def test_path_that_would_not_read_back_rejected(self, char):
        # "data = runs/#3" would parse back as "runs/"
        with pytest.raises(ContractViolation, match="data"):
            RunConfig(data=f"runs/{char}3")
        config = RunConfig()
        config.checkpoint = f"runs/{char}3/checkpoint.tmck"
        with pytest.raises(ContractViolation, match="checkpoint"):
            config_to_text(config)


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "frobnicate" in err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_out_flag(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "run")]) == 2

    def test_bad_flag_value(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config), "--radius", "cubic",
                     "--out", str(tmp_path / "run")]) == 1

    def test_python_dash_m_textmass_is_clean(self):
        src = str(Path(workbench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "textmass", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert "usage:" in done.stdout

    def test_import_textmass_leaves_the_command_line_unloaded(self):
        src = str(Path(workbench.__file__).resolve().parents[1])
        code = (
            "import sys, textmass\n"
            "assert 'textmass.workbench' not in sys.modules, 'import textmass loaded the CLI'\n"
            "from textmass import RunConfig\n"
            "assert textmass.RunConfig is RunConfig is sys.modules['textmass.workbench'].RunConfig\n"
            "assert not hasattr(textmass, 'NoSuchName')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_the_lazy_run_config_is_the_command_lines(self):
        assert textmass.RunConfig is workbench.RunConfig
        with pytest.raises(AttributeError, match="has no attribute 'NoSuchName'"):
            textmass.NoSuchName

    # runpy warns that it re-runs textmass.workbench, which is already imported
    @pytest.mark.filterwarnings("ignore:'textmass.workbench' found in sys.modules:RuntimeWarning")
    @pytest.mark.parametrize("module", ["textmass", "textmass.workbench"])
    @pytest.mark.parametrize("command", [[], ["gradcheck"]], ids=["no-subcommand", "gradcheck"])
    def test_python_dash_m_exits_with_mains_code(self, tmp_path, monkeypatch, capsys, module, command):
        argv = command + (["--config", str(write_config(tmp_path))] if command else [])
        want = main(argv)
        capsys.readouterr()
        monkeypatch.setattr(sys, "argv", [module, *argv])
        with pytest.raises(SystemExit) as done:
            runpy.run_module(module, run_name="__main__")
        assert done.value.code == want == (0 if command else 1)

    def test_a_failure_whose_log_cannot_be_written_still_exits_and_reports(self, capsys):
        class Unwritable:
            def note(self, message):
                raise OSError("log volume is read-only")

        assert workbench._fail(Unwritable(), 2, OSError("disk full")) == 2
        assert capsys.readouterr().err == "error: disk full\n"

    @pytest.mark.parametrize(
        "extra, flags",
        [({"alpha": "nan"}, []), ({"lr_head": "inf"}, []), ({"weight_decay": -0.5}, []),
         ({"lr_adapter": -1.0}, []), ({}, ["--alpha", "-1"])],
        ids=["nan-alpha", "inf-lr-head", "negative-decay", "negative-lr-adapter", "negative-alpha-flag"],
    )
    def test_non_finite_or_negative_config_exits_one_without_a_run_dir(
        self, tmp_path, capsys, extra, flags
    ):
        config = write_config(tmp_path, **extra)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), *flags, "--out", str(out)]) == 1
        assert "error: config value " in capsys.readouterr().err
        assert not out.exists()

    # a coverage that keeps no text coordinate used to be refused inside generate, after the run dir was made
    def test_a_coverage_that_keeps_no_text_coordinate_exits_one_without_a_run_dir(self, tmp_path, capsys):
        config = write_config(tmp_path, coverage=0.05, concept_dim=16)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith("error: coverage keeps no text coordinates\n")
        assert not out.exists()

    def test_existing_run_dir_refused(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 1


class TestGenData:
    def test_writes_loadable_corpus(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "config.txt").exists() and (out / "run.log").exists()
        records = read_corpus(out)
        assert len(records) == 40
        assert sum(r.split == "test" for r in records) == 8


class TestTrainEval:
    @pytest.mark.parametrize(
        "row, message",
        [("1,train", "2 fields, expected 4"), ("x,train,44,68", "not an integer")],
        ids=["short-row", "non-integer"],
    )
    def test_malformed_manifest_exits_two_and_is_logged(self, tmp_path, row, message):
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(corpus)]) == 0
        lines = (corpus / "manifest.csv").read_text().splitlines()
        lines[2] = row
        (corpus / "manifest.csv").write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, name="train.txt", data=str(corpus))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        last = (out / "run.log").read_text().splitlines()[-1]
        assert "failed with exit code 2: manifest row 1: " in last and message in last

    def test_trailing_pairs_dropped_by_the_batch_size_are_logged(self, tmp_path):
        # 45 pairs split 36 / 9; batches of 8 leave 4 train pairs per epoch
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path, pairs=45)), "--out", str(out)]) == 0
        assert "dropping 4 trailing pairs per epoch (batch size 8)" in (out / "run.log").read_text()

    def test_repeated_pair_id_exits_two_and_is_logged(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(corpus)]) == 0
        lines = (corpus / "manifest.csv").read_text().splitlines()
        assert lines[3].startswith("2,")
        lines[3] = "1" + lines[3][1:]
        (corpus / "manifest.csv").write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, name="train.txt", data=str(corpus))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.endswith("failed with exit code 2: manifest row 2: pair id 1 repeats row 1")

    def test_non_utf8_manifest_exits_two_and_is_logged(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(corpus)]) == 0
        blob = bytearray((corpus / "manifest.csv").read_bytes())
        where = blob.index(b"test")
        blob[where] = 0xFF
        (corpus / "manifest.csv").write_bytes(bytes(blob))
        config = write_config(tmp_path, name="train.txt", data=str(corpus))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.endswith(f"failed with exit code 2: manifest is not UTF-8 at byte {where}")

    @pytest.mark.parametrize("name", ["texts.tmeb", "videos.tmeb"])
    def test_non_finite_embedding_exits_two_and_is_logged(self, tmp_path, name):
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(corpus)]) == 0
        blob = bytearray((corpus / name).read_bytes())
        where = item_offset(5, 1, TINY["concept_dim"]) + 8
        blob[where : where + 4] = np.float32(np.nan).tobytes()
        (corpus / name).write_bytes(bytes(blob))
        config = write_config(tmp_path, name="train.txt", data=str(corpus))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 2
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.endswith(f"failed with exit code 2: non-finite embedding value at byte {where}")

    def test_train_artifacts(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        for name in ("config.txt", "checkpoint.tmck", "metrics.csv", "train_log.csv", "run.log"):
            assert (out / name).exists(), name
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "direction,r1,r5,r10,mdr,mnr"
        assert metrics[1].startswith("text-to-video,")
        assert metrics[2].startswith("video-to-text,")
        train_log = (out / "train_log.csv").read_text().splitlines()
        assert train_log[0] == "epoch,mean_loss,r1,r5,r10,mdr,mnr"
        assert len(train_log) == 2  # one epoch

    def test_rerun_is_byte_identical_outside_log(self, tmp_path):
        config = write_config(tmp_path)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        for name in ("config.txt", "checkpoint.tmck", "metrics.csv", "train_log.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_echoed_config_reproduces_run(self, tmp_path):
        config = write_config(tmp_path)
        first = tmp_path / "first"
        assert main(["train", "--config", str(config), "--seed", "3",
                     "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["train", "--config", str(first / "config.txt"),
                     "--out", str(second)]) == 0
        assert (first / "checkpoint.tmck").read_bytes() == (second / "checkpoint.tmck").read_bytes()
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

    @staticmethod
    def check_scoring_matches_train(tmp_path, mode):
        # the scoring config leaves mode at its default: eval and analyze
        # take it from the checkpoint, and a baseline model is never scored
        # through the radius it did not train
        config = write_config(tmp_path, mode=mode)
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(run)]) == 0
        eval_config = write_config(
            tmp_path, name="eval.txt", checkpoint=str(run / "checkpoint.tmck")
        )
        sampling = "sampling=off" if mode == "baseline" else "sampling=on"
        assert sampling in (run / "run.log").read_text()
        for command in ("eval", "analyze"):
            out = tmp_path / command
            assert main([command, "--config", str(eval_config), "--out", str(out)]) == 0
            assert (out / "metrics.csv").read_bytes() == (run / "metrics.csv").read_bytes(), command
        assert sampling in (tmp_path / "eval" / "run.log").read_text()

    def test_eval_matches_train_final_metrics(self, tmp_path):
        self.check_scoring_matches_train(tmp_path, "t-mass")

    def test_eval_matches_train_final_metrics_of_a_baseline_checkpoint(self, tmp_path):
        self.check_scoring_matches_train(tmp_path, "baseline")

    # epochs = 0 encodes nothing until the final test pool, which is scored
    # before the checkpoint is written
    @pytest.mark.parametrize("epochs", [1, 0])
    def test_a_corpus_of_another_width_exits_one_before_any_artifact(self, tmp_path, capsys, epochs):
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(corpus)]) == 0
        config = write_config(tmp_path, name="wide.txt", data=str(corpus), concept_dim=8, epochs=epochs)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        message = "text features have width 6 but the model's concept_dim is 8"
        assert message in capsys.readouterr().err
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.endswith(f"failed with exit code 1: {message}")
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "run.log"]

    def test_eval_requires_checkpoint(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "e")]) == 1

    def test_divergence_exits_one_and_is_logged(self, tmp_path, capsys):
        config = write_config(tmp_path, lr_head=1e6)
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        log = (out / "run.log").read_text().splitlines()
        assert "failed with exit code 1: non-finite" in log[-1]
        assert not (out / "checkpoint.tmck").exists()

    def test_non_finite_scores_exit_one_and_are_logged(self, tmp_path):
        config = write_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(run)]) == 0
        state, tc = load_checkpoint(run / "checkpoint.tmck")
        state.params.radius_weights[:] = 1000.0
        save_checkpoint(tmp_path / "overflow.tmck", state, tc)
        eval_config = write_config(
            tmp_path, name="eval.txt", checkpoint=str(tmp_path / "overflow.tmck")
        )
        out = tmp_path / "eval"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["eval", "--config", str(eval_config), "--out", str(out)]) == 1
        assert "pair scores are non-finite" in (out / "run.log").read_text()
        assert not (out / "metrics.csv").exists()

    def test_unseedable_generators_exit_one_and_are_logged(self, tmp_path, monkeypatch, request):
        config = write_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(run)]) == 0
        eval_config = write_config(tmp_path, name="eval.txt", checkpoint=str(run / "checkpoint.tmck"))
        swap_state_words(monkeypatch, request)
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(eval_config), "--out", str(out)]) == 1
        log = (out / "run.log").read_text().splitlines()
        assert f"failed with exit code 1: numpy {np.__version__}: PCG64 state words" in log[-1]
        assert not (out / "metrics.csv").exists()

    def test_corrupt_checkpoint_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.tmck"
        bad.write_bytes(b"XXXX")
        config = write_config(tmp_path, checkpoint=str(bad))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "e")]) == 2

    def test_non_numeric_checkpoint_config_exits_two_and_is_logged(self, tmp_path, capsys):
        config = write_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(run)]) == 0
        blob = (run / "checkpoint.tmck").read_bytes()
        assert blob.count(b"\nepochs = 1\n") == 1
        bad = tmp_path / "bad.tmck"
        bad.write_bytes(blob.replace(b"\nepochs = 1\n", b"\nepochs = x\n"))
        eval_config = write_config(tmp_path, name="eval.txt", checkpoint=str(bad))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(eval_config), "--out", str(out)]) == 2
        assert "bad value 'x' for epochs" in capsys.readouterr().err
        log = (out / "run.log").read_text().splitlines()
        assert "failed with exit code 2: config text at byte" in log[-1]
        assert not (out / "metrics.csv").exists()


@functools.cache
def _pristine_corpus() -> dict:
    """The bytes of a 10-pair corpus directory at TINY's concept width."""
    spec = SyntheticSpec(pairs=10, concept_dim=TINY["concept_dim"], raw_frames=TINY["raw_frames"], seed=4)
    with tempfile.TemporaryDirectory() as scratch:
        write_corpus(Path(scratch), generate(spec))
        return {path.name: path.read_bytes() for path in Path(scratch).iterdir()}


class TestCorpusFuzz:
    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(["texts.tmeb", "videos.tmeb", "manifest.csv"]),
        damage=st.sampled_from(["truncate", "flip"]),
        where=st.floats(0.0, 1.0, exclude_max=True),
        bit=st.integers(0, 7),
    )
    @example(name="manifest.csv", damage="flip", where=0.5, bit=7)  # a byte >= 0x80: not UTF-8
    @example(name="texts.tmeb", damage="flip", where=0.05, bit=0)  # inside the header
    @example(name="videos.tmeb", damage="truncate", where=0.01, bit=0)  # inside the header
    def test_a_damaged_corpus_loads_finite_or_exits_two(self, name, damage, where, bit):
        files = dict(_pristine_corpus())
        blob = bytearray(files[name])
        at = int(where * len(blob))
        if damage == "truncate":
            del blob[at:]
        else:
            blob[at] ^= 1 << bit
        files[name] = bytes(blob)
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            for file, content in files.items():
                (scratch / file).write_bytes(content)
            try:
                records = read_corpus(scratch)
            except FormatError:
                expected = 2
            else:
                expected = 0
                for record in records:
                    assert np.all(np.isfinite(record.text)) and np.all(np.isfinite(record.video))
            config = write_config(scratch, name="train.txt", data=str(scratch))
            assert main(["train", "--config", str(config), "--out", str(scratch / "run")]) == expected


def test_train_on_swapped_corpus_files_exits_two(tmp_path, capsys):
    # as many raw frames as concept values: each file alone is a valid embedding file
    data = tmp_path / "data"
    write_corpus(data, generate(SyntheticSpec(pairs=10, concept_dim=TINY["concept_dim"],
                                              raw_frames=TINY["concept_dim"], seed=4)))
    texts, videos = (data / "texts.tmeb").read_bytes(), (data / "videos.tmeb").read_bytes()
    (data / "texts.tmeb").write_bytes(videos)
    (data / "videos.tmeb").write_bytes(texts)
    config = write_config(tmp_path, data=str(data))
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert "texts.tmeb holds" in capsys.readouterr().err


class TestGrids:
    def test_ablate_radius_table(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "ablate"
        assert main(["ablate-radius", "--config", str(config), "--out", str(out)]) == 0
        rows = table_rows(out / "metrics.csv")
        assert len(rows) == 4 * 2 + 4
        labels = {row[0] for row in rows}
        assert labels == {"w/o-radius", "fixed-mean", "scalar", "linear"}
        assert sum(row[1] == "median" for row in rows) == 4
        assert all(row[2] == "text-to-video" for row in rows)
        log = (out / "run.log").read_text()
        assert "mode=baseline" in log

    def test_grid_cells_honour_sampling_off(self, tmp_path):
        config = write_config(tmp_path, sampling="false")
        out = tmp_path / "ablate"
        assert main(["ablate-loss", "--config", str(config), "--out", str(out)]) == 0
        run = parse_config_text(config.read_text(), RunConfig())
        corpus = split_arrays(generate(run.synthetic_spec()))
        rows = {(row[0], row[1]): row for row in table_rows(out / "metrics.csv")}
        for label, overrides in workbench.LOSS_GRID:
            for seed in run.seeds:
                tc = dataclasses.replace(run.training_config(), seed=seed, **overrides)
                params = workbench.train(corpus.train_text, corpus.train_videos, tc).state.params
                t2v, _ = workbench._test_metrics(corpus, params, False, 1, seed)
                assert rows[label, str(seed)][3] == f"{t2v.r1:.6f}", (label, seed)
        log = (out / "run.log").read_text()
        assert log.count("sampling=off") == len(workbench.LOSS_GRID) * len(run.seeds)
        assert "sampling=on" not in log

    def test_ablate_loss_table(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "ablate"
        assert main(["ablate-loss", "--config", str(config), "--out", str(out)]) == 0
        rows = table_rows(out / "metrics.csv")
        assert len(rows) == 3 * 2 + 3
        assert {row[0] for row in rows} == {"l-ce-plus-l-s", "l-s-only", "l-s-plus-l-sup"}

    def test_sweep_trials_table(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep-trials", "--config", str(config), "--out", str(out)]) == 0
        rows = table_rows(out / "metrics.csv")
        assert len(rows) == 4 * 2 + 4
        expected = ["trials-off"] + [f"trials-{m}" for m in TRIALS_GRID]
        assert [row[0] for row in rows[::2][:4]] == expected  # label-major blocks

    def test_sweep_trials_scores_nested_m_once(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        trials, widths = [], []
        query_stages, grid_normals = evaluation._query_stages, evaluation.grid_normals

        def drawing(seed, parts, queries, candidates, width):
            widths.append(width)
            return grid_normals(seed, parts, queries, candidates, width)

        def counting(pool, params, with_fused, with_radii):
            # each query of a scoring pass, which fuses: 0 when deterministic, else its M
            for query in query_stages(pool, params, with_fused, with_radii):
                if with_fused:
                    trials.append(widths[-1] // params.dim if with_radii else 0)
                yield query

        monkeypatch.setattr(evaluation, "grid_normals", drawing)
        monkeypatch.setattr(evaluation, "_query_stages", counting)
        once = tmp_path / "once"
        assert main(["sweep-trials", "--config", str(config), "--out", str(once)]) == 0
        # 2 seeds x 8 test queries: one deterministic and one best-of-20 pass
        assert sorted(trials) == [0] * 16 + [max(TRIALS_GRID)] * 16
        monkeypatch.undo()

        def separate(texts, videos, params, counts, seed):
            return {
                m: evaluation.inference_similarity_matrix(
                    texts, videos, params, SamplingConfig(trials=m), True, seed
                )
                for m in counts
            }

        monkeypatch.setattr(workbench, "nested_trial_matrices", separate)
        per_m = tmp_path / "per-m"
        assert main(["sweep-trials", "--config", str(config), "--out", str(per_m)]) == 0
        assert (once / "metrics.csv").read_bytes() == (per_m / "metrics.csv").read_bytes()

    def test_sweep_trials_rejects_baseline_mode(self, tmp_path):
        config = write_config(tmp_path, mode="baseline")
        assert main(["sweep-trials", "--config", str(config),
                     "--out", str(tmp_path / "s")]) == 1

    def test_sweep_alpha_table(self, tmp_path):
        config = write_config(tmp_path, seeds="0")
        out = tmp_path / "sweep"
        assert main(["sweep-alpha", "--config", str(config), "--out", str(out)]) == 0
        rows = table_rows(out / "metrics.csv")
        assert len(rows) == 5 * 1 + 5
        assert {row[0] for row in rows} == {f"alpha-{a}" for a in (0.5, 0.8, 1.0, 1.2, 1.5)}

    def test_sweep_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path, seeds="0")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["sweep-trials", "--config", str(config), "--out", str(out)]) == 0
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


class TestAnalyze:
    def test_reports_and_observations(self, tmp_path):
        config = write_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(run)]) == 0
        analyze_config = write_config(
            tmp_path, name="analyze.txt", checkpoint=str(run / "checkpoint.tmck")
        )
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", str(analyze_config), "--out", str(out)]) == 0
        radius = (out / "radius_report.csv").read_text().splitlines()
        assert radius[0] == "query_id,candidate_id,relevant,l1_radius,best_similarity"
        assert len(radius) == 1 + 8 * 8  # all test queries against all candidates
        alignment = (out / "alignment_report.csv").read_text().splitlines()
        assert alignment[0] == (
            "query_id,max_irrelevant_sim_det,max_irrelevant_sim_stoch,ce_det,ce_stoch"
        )
        assert len(alignment) == 1 + 8
        log = (out / "run.log").read_text()
        assert "smallest radius mass" in log
        assert "shifts max irrelevant similarity" in log

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_checkpoint_width_mismatch_exits_one_and_is_logged(self, tmp_path, capsys, command):
        run = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(run)]) == 0
        config = write_config(
            tmp_path, name="wide.txt", checkpoint=str(run / "checkpoint.tmck"), concept_dim=8
        )
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        message = "text features have width 8 but the model's concept_dim is 6"
        assert message in capsys.readouterr().err
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.endswith(f"failed with exit code 1: {message}")
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "run.log"]

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_a_data_corpus_is_scored_at_the_checkpoint_width_whatever_the_config_says(self, tmp_path, command):
        # the config used to be refused: concept_dim 16 but the corpus has width 6
        corpus = tmp_path / "corpus"
        assert main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(corpus)]) == 0
        run = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(run)]) == 0
        keys = {**TINY, "data": corpus, "checkpoint": run / "checkpoint.tmck"}
        unset = tmp_path / "unset.txt"
        unset.write_text("".join(f"{k} = {v}\n" for k, v in keys.items() if k != "concept_dim"), encoding="utf-8")
        assert parse_config_text(unset.read_text(encoding="utf-8"), RunConfig()).concept_dim == 16
        outs = {}
        for name, config in (("unset", unset), ("set", write_config(tmp_path, name="set.txt", **keys))):
            outs[name] = tmp_path / f"{command}-{name}"
            assert main([command, "--config", str(config), "--out", str(outs[name])]) == 0
        files = sorted(p.name for p in outs["set"].iterdir())
        assert files == sorted(p.name for p in outs["unset"].iterdir())
        assert "metrics.csv" in files
        for name in set(files) - {"config.txt", "run.log"}:
            assert (outs["unset"] / name).read_bytes() == (outs["set"] / name).read_bytes(), name

    def test_one_pair_test_pool_exits_one_before_any_report(self, tmp_path, capsys):
        # 9 pairs leave 1 test pair: a query with no irrelevant candidate
        run = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path, pairs=9)), "--out", str(run)]) == 0
        config = write_config(tmp_path, name="analyze.txt", pairs=9, checkpoint=str(run / "checkpoint.tmck"))
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
        message = "alignment report wants at least 2 aligned pairs, got 1"
        assert message in capsys.readouterr().err
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.endswith(f"failed with exit code 1: {message}")
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "run.log"]

    @pytest.mark.parametrize("sampling", ["true", "false"])
    def test_one_pass_per_mode_gives_the_per_report_bytes(self, tmp_path, monkeypatch, sampling):
        config = write_config(tmp_path, sampling=sampling)
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(run)]) == 0
        checkpoint = run / "checkpoint.tmck"
        analyze_config = write_config(
            tmp_path, name="analyze.txt", checkpoint=str(checkpoint), sampling=sampling
        )
        scored = []
        query_stages = evaluation._query_stages

        def counting(pool, params, with_fused, with_radii):
            # each query of a scoring pass, which fuses: sampled or not
            for query in query_stages(pool, params, with_fused, with_radii):
                if with_fused:
                    scored.append(with_radii)
                yield query

        monkeypatch.setattr(evaluation, "_query_stages", counting)
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", str(analyze_config), "--out", str(out)]) == 0
        # 8 test queries: one deterministic and one sampled pass
        assert sorted(scored) == [False] * 8 + [True] * 8
        monkeypatch.undo()

        # each report from matrices scored on their own passes
        cfg = parse_config_text(analyze_config.read_text(encoding="utf-8"), RunConfig())
        params = load_checkpoint(checkpoint)[0].params
        pool = split_arrays(generate(cfg.synthetic_spec()))
        texts, videos = pool.test_text, pool.test_videos
        trials = SamplingConfig(trials=cfg.trials)

        def scores(use_sampling):
            return evaluation.inference_similarity_matrix(
                texts, videos, params, trials, use_sampling, cfg.seed
            )

        sims = scores(cfg.sampling)
        relevant = np.arange(len(texts))
        expected = tmp_path / "expected"
        expected.mkdir()
        evaluation.write_csv_rows(
            expected / "metrics.csv",
            evaluation.RetrievalMetrics,
            [evaluation.rank_metrics(sims, relevant)[1],
             evaluation.video_to_text_metrics(sims, relevant)],
        )
        evaluation.write_csv_rows(
            expected / "radius_report.csv",
            evaluation.RadiusRow,
            evaluation.pool_radius_report(texts, videos, params, scores(True)),
        )
        evaluation.write_csv_rows(
            expected / "alignment_report.csv",
            evaluation.AlignmentRow,
            evaluation.alignment_rows(scores(False), scores(True), params.logit_scale()),
        )
        for name in ("metrics.csv", "radius_report.csv", "alignment_report.csv"):
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name


class TestGradcheck:
    def test_prints_error_bound_and_passes(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["gradcheck", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_writes_run_dir_when_out_given(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "check"
        assert main(["gradcheck", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "config.txt").exists()
        assert "max relative error" in (out / "run.log").read_text()

    def test_a_failing_check_exits_one_and_prints_each_failure(self, tmp_path, capsys, monkeypatch):
        backward = objectives.backward_batch

        def doubled_fusion_out(tape):
            grads = backward(tape)
            grads["fusion_out"] = 2.0 * grads["fusion_out"]
            return grads

        results = []

        def recorded(*args):
            results.append(objectives.gradient_check(*args))
            return results[-1]

        monkeypatch.setattr(objectives, "backward_batch", doubled_fusion_out)
        monkeypatch.setattr(workbench, "gradient_check", recorded)
        assert main(["gradcheck", "--config", str(write_config(tmp_path))]) == 1
        captured = capsys.readouterr()
        assert "max relative error" in captured.out
        failures = results[0].failures
        assert failures and all(f.startswith("fusion_out[") for f in failures)
        assert captured.err.splitlines() == [f"gradcheck failure: {f}" for f in failures]

    def test_baseline_mode_flag(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["gradcheck", "--config", str(config), "--mode", "baseline"]) == 0
        capsys.readouterr()
