"""CLI contract: exit codes, run directory shape, grid row counts, config
round trips, and byte-level determinism."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from textmass import evaluation, workbench
from textmass.core import ContractViolation
from textmass.dataset import SyntheticSpec, generate, read_corpus, split_arrays
from textmass.mass import SamplingConfig
from textmass.trainer import (
    TrainingConfig,
    config_to_text,
    load_checkpoint,
    parse_config_text,
    save_checkpoint,
)
from textmass.workbench import (
    ALPHA_GRID,
    RunConfig,
    TABLE_HEADER,
    TRIALS_GRID,
    main,
)

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
    assert lines[0] == TABLE_HEADER
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
        defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        for f in dataclasses.fields(SyntheticSpec):
            if f.name != "seed":
                assert defaults[f.name] == f.default, f.name
        spec = RunConfig(pairs=64, concept_dim=8, noise_sigma=0.3, data_seed=7, seed=3)
        assert spec.synthetic_spec() == SyntheticSpec(
            pairs=64, concept_dim=8, noise_sigma=0.3, seed=7
        )

    def test_validation(self):
        with pytest.raises(ContractViolation):
            RunConfig(seeds=())
        with pytest.raises(ContractViolation):
            RunConfig(seeds=(0, -1))
        with pytest.raises(ContractViolation):
            RunConfig(radius_variant="cubic")
        with pytest.raises(ContractViolation):
            RunConfig(coverage=0.0)

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
        state.params.radius.weights[:] = 1000.0
        save_checkpoint(tmp_path / "overflow.tmck", state, tc)
        eval_config = write_config(
            tmp_path, name="eval.txt", checkpoint=str(tmp_path / "overflow.tmck")
        )
        out = tmp_path / "eval"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["eval", "--config", str(eval_config), "--out", str(out)]) == 1
        assert "pair scores are non-finite" in (out / "run.log").read_text()
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
        trials = []
        score_query = evaluation._score_query

        def counting(t, fused, radius_grid, m, *rest):
            trials.append(0 if radius_grid is None else m)
            return score_query(t, fused, radius_grid, m, *rest)

        monkeypatch.setattr(evaluation, "_score_query", counting)
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
        assert {row[0] for row in rows} == {f"alpha-{a}" for a in ALPHA_GRID}

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
        score_query = evaluation._score_query

        def counting(t, fused, radius_grid, *rest):
            scored.append(radius_grid is not None)
            return score_query(t, fused, radius_grid, *rest)

        monkeypatch.setattr(evaluation, "_score_query", counting)
        out = tmp_path / "analysis"
        assert main(["analyze", "--config", str(analyze_config), "--out", str(out)]) == 0
        # 8 test queries: one deterministic and one sampled pass
        assert sorted(scored) == [False] * 8 + [True] * 8
        monkeypatch.undo()

        # each report scored on its own, as the public per-report functions do
        cfg = parse_config_text(analyze_config.read_text(encoding="utf-8"), RunConfig())
        params = load_checkpoint(checkpoint)[0].params
        pool = split_arrays(generate(cfg.synthetic_spec()))
        texts, videos = pool.test_text, pool.test_videos
        trials = SamplingConfig(trials=cfg.trials)
        sims = evaluation.inference_similarity_matrix(
            texts, videos, params, trials, cfg.sampling, cfg.seed
        )
        relevant = np.arange(len(texts))
        expected = tmp_path / "expected"
        expected.mkdir()
        evaluation.write_metrics_csv(
            expected / "metrics.csv",
            [evaluation.rank_metrics(sims, relevant)[1],
             evaluation.video_to_text_metrics(sims, relevant)],
        )
        evaluation.write_radius_report(expected / "radius_report.csv", [
            row
            for q in range(len(texts))
            for row in evaluation.radius_dynamics_report(
                texts[q], videos, params, q, trials, cfg.seed, query_id=q
            )
        ])
        evaluation.write_alignment_report(
            expected / "alignment_report.csv",
            evaluation.alignment_report(texts, videos, params, trials, cfg.seed),
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

    def test_baseline_mode_flag(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["gradcheck", "--config", str(config), "--mode", "baseline"]) == 0
        capsys.readouterr()
