"""Optimizer arithmetic against hand-stepped oracles, schedule shape,
bit-exact determinism of training, checkpointing, and resume, the config
codec, and checkpoint corruption."""

import dataclasses
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from textmass import core, trainer
from textmass.core import ContractViolation, FormatError, substream
from textmass.mass import RADIUS_VARIANTS
from textmass.model import (
    MODES,
    PARAMETERS,
    all_array_names,
    flatten_params,
    restore_param,
    trainable_names,
)
from textmass.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainingConfig,
    TrainState,
    adamw_step,
    config_to_text,
    init_model_from_config,
    init_optimizer,
    load_checkpoint,
    lr_at,
    parse_config_text,
    save_checkpoint,
    steps_per_epoch,
    train,
)

from test_model import assert_views_of_flat


def tiny_config(**overrides):
    base = dict(
        dim=8,
        concept_dim=6,
        frame_count=3,
        radius_variant="linear",
        mode="t-mass",
        alpha=1.2,
        batch_size=6,
        epochs=2,
        lr_head=1e-3,
        lr_adapter=1e-4,
        weight_decay=0.1,
        warmup_fraction=0.1,
        dropout_rate=0.0,
        seed=3,
    )
    base.update(overrides)
    return TrainingConfig(**base)


def tiny_data(pairs=12, c=6, t_raw=5, seed=40):
    rng = substream(seed, 8001)
    text = rng.standard_normal(pairs * c).reshape(pairs, c)
    videos = rng.standard_normal(pairs * t_raw * c).reshape(pairs, t_raw, c)
    return text, videos


class TestSchedule:
    def test_warmup_is_linear_from_zero(self):
        assert 2.0 * lr_at(0, 100, 0.1) == 0.0
        assert abs(2.0 * lr_at(5, 100, 0.1) - 1.0) <= 1e-12
        assert abs(2.0 * lr_at(10, 100, 0.1) - 2.0) <= 1e-12

    def test_cosine_decay_midpoint_and_tail(self):
        # past warmup (10 steps) the rate follows 0.5 * (1 + cos(pi * p))
        assert abs(2.0 * lr_at(55, 100, 0.1) - 1.0) <= 1e-12
        assert 2.0 * lr_at(99, 100, 0.1) < 2.0 * lr_at(60, 100, 0.1) < 2.0 * lr_at(11, 100, 0.1)

    def test_no_warmup(self):
        assert lr_at(0, 10, 0.0) == 1.0

    def test_bounds(self):
        with pytest.raises(ContractViolation):
            lr_at(11, 10, 0.1)
        with pytest.raises(ContractViolation):
            lr_at(-1, 10, 0.1)
        with pytest.raises(ContractViolation):
            lr_at(0, 0, 0.1)

    def test_monotone_decay_after_warmup(self):
        values = [lr_at(s, 50, 0.2) for s in range(10, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def moments(params, state):
    """The optimizer's first and second moments by array name, each read
    through params.spans."""
    return [{name: params.view(moment, name) for name in state.names} for moment in (state.first, state.second)]


@dataclasses.dataclass
class PerNameState:
    """per_name_adamw's step count and its moments, one array per name."""

    step: int
    first_moment: dict
    second_moment: dict


def per_name_state(params, mode):
    zeros = {name: np.zeros_like(getattr(params, name)) for name in trainable_names(params, mode)}
    return PerNameState(0, dict(zeros), dict(zeros))


def per_name_adamw(params, grads, state, lr_by_group, weight_decay):
    """The update one array at a time, with moments of its own: the
    reference for adamw_step's in-place pass over the flat buffer."""
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1**state.step
    bias2 = 1.0 - ADAM_BETA2**state.step
    for name in state.first_moment:
        g = np.asarray(grads[name], dtype=np.float64)
        m = state.first_moment[name] = ADAM_BETA1 * state.first_moment[name] + (1.0 - ADAM_BETA1) * g
        v = state.second_moment[name] = ADAM_BETA2 * state.second_moment[name] + (1.0 - ADAM_BETA2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        lr = lr_by_group[PARAMETERS[name].group]
        p = getattr(params, name)
        decay = 0.0 if name == "log_lambda" else weight_decay
        restore_param(params, name, p - lr * update - lr * decay * p)


class TestAdamW:
    def test_single_step_matches_hand_oracle(self):
        config = tiny_config()
        params = init_model_from_config(config)
        names = trainable_names(params, config.mode)
        state = init_optimizer(params, config.mode)
        rng = substream(41, 8002)
        grads = {n: rng.standard_normal(getattr(params, n).size).reshape(getattr(params, n).shape) for n in names}
        before = {n: getattr(params, n).copy() for n in names}
        lrs = {"head": 1e-2, "backbone-adapter": 1e-3}
        adamw_step(params, grads, state, lrs, weight_decay=0.1)

        for name in names:
            g = grads[name]
            m = (1.0 - ADAM_BETA1) * g
            v = (1.0 - ADAM_BETA2) * g * g
            mhat = m / (1.0 - ADAM_BETA1)
            vhat = v / (1.0 - ADAM_BETA2)
            lr = lrs["backbone-adapter" if name.startswith("adapter_") else "head"]
            decay = 0.0 if name == "log_lambda" else 0.1
            expected = before[name] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS) - lr * decay * before[name]
            assert np.allclose(getattr(params, name), expected, atol=1e-15), name

    def test_two_steps_accumulate_moments(self):
        config = tiny_config(radius_variant="scalar")
        params = init_model_from_config(config)
        state = init_optimizer(params, config.mode)
        name = "radius_theta"
        g1, g2 = 0.7, -0.2
        zeros = {n: np.zeros_like(getattr(params, n)) for n in state.names}
        lrs = {"head": 0.05, "backbone-adapter": 0.0}

        theta0 = float(getattr(params, name))
        step1 = dict(zeros)
        step1[name] = np.asarray(g1)
        adamw_step(params, step1, state, lrs, weight_decay=0.0)
        step2 = dict(zeros)
        step2[name] = np.asarray(g2)
        adamw_step(params, step2, state, lrs, weight_decay=0.0)

        m1 = (1 - ADAM_BETA1) * g1
        v1 = (1 - ADAM_BETA2) * g1 * g1
        t1 = theta0 - 0.05 * (m1 / (1 - ADAM_BETA1)) / (np.sqrt(v1 / (1 - ADAM_BETA2)) + ADAM_EPS)
        m2 = ADAM_BETA1 * m1 + (1 - ADAM_BETA1) * g2
        v2 = ADAM_BETA2 * v1 + (1 - ADAM_BETA2) * g2 * g2
        t2 = t1 - 0.05 * (m2 / (1 - ADAM_BETA1**2)) / (np.sqrt(v2 / (1 - ADAM_BETA2**2)) + ADAM_EPS)
        assert abs(float(getattr(params, name)) - t2) <= 1e-15
        assert state.step == 2

    def test_logit_scale_skips_weight_decay(self):
        config = tiny_config()
        params = init_model_from_config(config)
        state = init_optimizer(params, config.mode)
        zeros = {n: np.zeros_like(getattr(params, n)) for n in state.names}
        before = float(params.log_lambda)
        adamw_step(params, zeros, state, {"head": 1.0, "backbone-adapter": 1.0}, weight_decay=0.5)
        # zero gradient plus skipped decay leaves the scale untouched
        assert params.log_lambda == before
        # every other head parameter shrank
        assert np.all(np.abs(params.fusion_query) < 1.0 + 1e-12)
        assert not np.allclose(params.fusion_query, np.eye(8))

    @pytest.mark.parametrize("adapters", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("variant", RADIUS_VARIANTS)
    def test_a_step_changes_exactly_the_trainable_arrays(self, variant, mode, adapters):
        config = tiny_config(radius_variant=variant, mode=mode, adapters_enabled=adapters)
        params = init_model_from_config(config)
        state = init_optimizer(params, mode)
        fields = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
        before = {name: getattr(params, name).copy() for name in all_array_names(params)}
        grads = {n: np.ones_like(getattr(params, n)) for n in state.names}
        adamw_step(params, grads, state, {"head": 1e-2, "backbone-adapter": 1e-3}, 0.1)
        changed = {name for name, value in before.items() if not np.array_equal(getattr(params, name), value)}
        assert changed == set(trainable_names(params, mode))
        # in place: no field is rebound
        assert all(getattr(params, name) is value for name, value in fields.items())

    @pytest.mark.parametrize("dim", [32, 128])
    def test_a_step_allocates_no_temporary_of_the_trainable_size(self, dim):
        # the bench widths; a full-size temporary is a fresh mmap at d = 128
        config = tiny_config(dim=dim, concept_dim=16, frame_count=8)
        params = init_model_from_config(config)
        state = init_optimizer(params, config.mode)
        rng = substream(dim, 8005)
        grads = {n: rng.standard_normal(m.size).reshape(m.shape) for n, m in moments(params, state)[0].items()}
        lrs = {"head": 1e-2, "backbone-adapter": 1e-3}
        adamw_step(params, grads, state, lrs, 0.1)  # warm-up
        tracemalloc.start()
        try:
            adamw_step(params, grads, state, lrs, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        trainable_bytes = 8 * sum(getattr(params, n).size for n in state.names)
        assert peak < trainable_bytes / 2, (peak, trainable_bytes)

    @pytest.mark.parametrize("mode, radius_trainable", [("baseline", True), ("t-mass", False)])
    def test_an_untrained_array_between_runs_keeps_zero_moments(self, mode, radius_trainable):
        # radius_weights lies between fusion_out and log_lambda, inside the
        # span the moments are updated over
        config = tiny_config(mode=mode, radius_trainable=radius_trainable)
        params, ref = init_model_from_config(config), init_model_from_config(config)
        state, ref_state = init_optimizer(params, mode), per_name_state(ref, mode)
        assert "radius_weights" not in state.names
        rng = substream(7, 8006)
        lrs = {"head": 1e-2, "backbone-adapter": 1e-3}
        for _ in range(3):
            grads = {n: rng.standard_normal(m.size).reshape(m.shape) for n, m in ref_state.first_moment.items()}
            adamw_step(params, grads, state, lrs, 0.1)
            per_name_adamw(ref, grads, ref_state, lrs, 0.1)
        gap = params.spans["radius_weights"]
        for vector in (state.first, state.second, state.grad):
            assert not vector[gap].any()
        assert np.array_equal(params.flat, ref.flat)

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(["linear", "scalar", "fixed-mean"]),
        adapters=st.booleans(),
        steps=st.integers(1, 4),
        lr_head=st.floats(1e-5, 1.0),
        lr_adapter=st.floats(0.0, 1.0),
        weight_decay=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_flat_pass_bit_equal_to_the_per_name_reference(
        self, variant, adapters, steps, lr_head, lr_adapter, weight_decay, seed
    ):
        config = tiny_config(radius_variant=variant, adapters_enabled=adapters)
        flat, ref = (init_model_from_config(config) for _ in range(2))
        flat_state, ref_state = init_optimizer(flat, config.mode), per_name_state(ref, config.mode)
        rng = substream(seed, 8004)
        for step in range(steps):
            grads = {n: rng.standard_normal(m.size).reshape(m.shape)
                     for n, m in ref_state.first_moment.items()}
            lrs = {"head": lr_head / (step + 1), "backbone-adapter": lr_adapter}
            adamw_step(flat, grads, flat_state, lrs, weight_decay)
            per_name_adamw(ref, grads, ref_state, lrs, weight_decay)
        assert flat_state.step == ref_state.step == steps
        for name in all_array_names(ref):
            assert np.array_equal(getattr(flat, name), getattr(ref, name)), name
        first, second = moments(flat, flat_state)
        assert list(first) == list(ref_state.first_moment)
        for name in ref_state.first_moment:
            assert np.array_equal(first[name], ref_state.first_moment[name]), name
            assert np.array_equal(second[name], ref_state.second_moment[name]), name
        assert flat.log_lambda.shape == () and np.shares_memory(flat.log_lambda, flat.flat)


class TestTrainLoop:
    def test_steps_per_epoch_floors_and_validates(self):
        assert steps_per_epoch(12, 5) == 2
        with pytest.raises(ContractViolation):
            steps_per_epoch(4, 5)

    def test_history_shapes(self):
        text, videos = tiny_data()
        result = train(text, videos, tiny_config())
        assert len(result.step_losses) == 2 * 2
        assert len(result.epoch_means) == 2
        assert result.state.optimizer.step == 4

    def test_training_is_bit_deterministic(self):
        text, videos = tiny_data()
        config = tiny_config(dropout_rate=0.2)
        names = trainable_names(init_model_from_config(config), config.mode)
        a = train(text, videos, config)
        b = train(text, videos, config)
        assert np.array_equal(
            flatten_params(a.state.params, names), flatten_params(b.state.params, names)
        )
        assert [x.l_total for x in a.step_losses] == [x.l_total for x in b.step_losses]

    @pytest.mark.parametrize("adapters", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_training_never_writes_a_frozen_array(self, mode, adapters):
        # the projections, and every array the mode does not train, keep
        # init's bits
        text, videos = tiny_data()
        config = tiny_config(mode=mode, adapters_enabled=adapters, dropout_rate=0.2)
        fresh = init_model_from_config(config)
        params = train(text, videos, config).state.params
        untrained = [n for n in all_array_names(fresh) if n not in trainable_names(fresh, mode)]
        assert {"proj_text", "proj_frame"} <= set(untrained)
        for name in untrained:
            assert getattr(params, name).tobytes() == getattr(fresh, name).tobytes(), name

    def test_baseline_mode_runs_without_noise(self):
        text, videos = tiny_data()
        result = train(text, videos, tiny_config(mode="baseline"))
        assert all(x.l_s is None and x.l_sup is None for x in result.step_losses)

    def test_loss_decreases_with_a_workable_rate(self):
        text, videos = tiny_data(pairs=24, seed=42)
        config = tiny_config(
            mode="baseline", batch_size=8, epochs=4, lr_head=5e-3, lr_adapter=5e-4, seed=7
        )
        result = train(text, videos, config)
        assert result.epoch_means[-1] < result.epoch_means[0]

    def test_training_and_resume_keep_every_array_a_view_of_flat(self):
        text, videos = tiny_data()
        config = tiny_config(radius_variant="scalar", theta_init=0.3)
        fresh = init_model_from_config(config)
        assert_views_of_flat(fresh)
        assert fresh.radius_theta == 0.3
        partial = train(text, videos, config, stop_after_epochs=1)
        assert_views_of_flat(partial.state.params)
        resumed = train(text, videos, config, resume=partial.state)
        assert resumed.state.params is partial.state.params
        assert_views_of_flat(resumed.state.params)

    def test_resume_matches_straight_run(self):
        text, videos = tiny_data(pairs=18, seed=43)
        config = tiny_config(epochs=3, dropout_rate=0.25)
        names = trainable_names(init_model_from_config(config), config.mode)

        straight = train(text, videos, config)
        partial = train(text, videos, config, stop_after_epochs=1)
        resumed = train(text, videos, config, resume=partial.state)
        assert np.array_equal(
            flatten_params(straight.state.params, names),
            flatten_params(resumed.state.params, names),
        )
        assert straight.state.optimizer.step == resumed.state.optimizer.step

    # extra videos used to be ignored, too few died with an IndexError, and a
    # NaN was reported as every pair being degenerate
    @pytest.mark.parametrize(
        "texts, videos, plant, match",
        [(12, 14, None, "^text and video counts disagree: 12 texts, 14 videos$"),
         (12, 9, None, "^text and video counts disagree: 12 texts, 9 videos$"),
         (12, 12, "text", "^text features: 1 of 72 values are non-finite$"),
         (12, 12, "video", "^video features: 1 of 360 values are non-finite$")],
        ids=["more-videos", "fewer-videos", "nan-text", "inf-frame"],
    )
    def test_inputs_are_checked_up_front(self, monkeypatch, texts, videos, plant, match):
        text, frames = tiny_data(pairs=14)
        text, frames = text[:texts], frames[:videos]
        if plant == "text":
            text[5, 2] = np.nan
        if plant == "video":
            frames[3, 1, 4] = -np.inf
        # refused before step 1: each step's batch is rows of these checked arrays
        steps = []
        monkeypatch.setattr(trainer, "forward_batch", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(ContractViolation, match=match):
            train(text, frames, tiny_config())
        assert steps == []

    # the encode stage refuses the first batch, before any parameter update
    @pytest.mark.parametrize("tower, text_width, frame_width", [("text", 5, 5), ("frame", 6, 7)])
    def test_features_of_another_width_are_refused_before_the_first_step(
        self, monkeypatch, tower, text_width, frame_width
    ):
        text, _ = tiny_data(c=text_width)
        _, videos = tiny_data(c=frame_width)
        steps = []
        monkeypatch.setattr(trainer, "adamw_step", lambda *args: steps.append(args))
        width = text_width if tower == "text" else frame_width
        message = f"^{tower} features have width {width} but the model's concept_dim is 6$"
        with pytest.raises(ContractViolation, match=message):
            train(text, videos, tiny_config())
        assert steps == []

    def test_a_stop_epoch_past_the_run_is_refused(self):
        text, videos = tiny_data()
        with pytest.raises(ContractViolation, match="^stop epoch outside the configured run$"):
            train(text, videos, tiny_config(epochs=2), stop_after_epochs=3)

    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_every_step_draws_its_own_substream_straight_and_resumed(self, monkeypatch, rate):
        # the per-epoch stream pass must give each global step exactly the
        # noise and mask of substream(seed, purpose, step), in a straight
        # 2-epoch run and in one resumed after epoch 1
        text, videos = tiny_data()
        config = tiny_config(epochs=2, train_samples=3, dropout_rate=rate)
        taken = []
        real_forward = trainer.forward_batch

        def recording(batch, params, mode, alpha, eps=None, drop_mask=None):
            taken.append((eps, drop_mask))
            return real_forward(batch, params, mode, alpha, eps=eps, drop_mask=drop_mask)

        monkeypatch.setattr(trainer, "forward_batch", recording)
        train(text, videos, config)
        straight, taken[:] = list(taken), []
        partial = train(text, videos, config, stop_after_epochs=1)
        train(text, videos, config, resume=partial.state)
        n = config.batch_size
        for run in (straight, taken):
            assert len(run) == 4
            for step, (eps, mask) in enumerate(run):
                want = trainer.draw_noise(substream(config.seed, trainer._STREAM_NOISE, step), 3, n, config.dim)
                assert eps.tobytes() == want.tobytes(), step
                if rate:
                    want = trainer.dropout_grid_mask(
                        substream(config.seed, trainer._STREAM_DROPOUT, step), n, config.dim, rate)
                    assert mask.tobytes() == want.tobytes(), step
                else:
                    assert mask is None

    @pytest.mark.parametrize("mode, rate, purposes", [
        ("baseline", 0.0, []),
        ("baseline", 0.2, [trainer._STREAM_DROPOUT]),
        ("t-mass", 0.0, [trainer._STREAM_NOISE]),
        ("t-mass", 0.2, [trainer._STREAM_NOISE, trainer._STREAM_DROPOUT]),
    ])
    def test_streams_are_seeded_once_per_epoch_and_only_when_drawn(self, monkeypatch, mode, rate, purposes):
        text, videos = tiny_data()
        passes = []
        real = trainer.stream_rngs

        def recording(seed, parts, ids):
            passes.append((parts, list(ids)))
            return real(seed, parts, ids)

        monkeypatch.setattr(trainer, "stream_rngs", recording)
        train(text, videos, tiny_config(mode=mode, dropout_rate=rate, epochs=2))
        assert passes == [((purpose,), steps) for steps in ([0, 1], [2, 3]) for purpose in purposes]

    def test_resume_rejects_mid_epoch_state(self):
        text, videos = tiny_data()
        config = tiny_config()
        partial = train(text, videos, config, stop_after_epochs=1)
        partial.state.optimizer.step += 1
        with pytest.raises(ContractViolation):
            train(text, videos, config, resume=partial.state)


# config text of TrainingConfig(), exactly the bytes a checkpoint stores
TRAINING_DEFAULT_TEXT = (
    "adapters_enabled = true\n"
    "alpha = 1.2\n"
    "batch_size = 32\n"
    "concept_dim = 16\n"
    "dim = 32\n"
    "dropout_rate = 0.3\n"
    "epochs = 5\n"
    "frame_count = 8\n"
    "lr_adapter = 1e-06\n"
    "lr_head = 1e-05\n"
    "mode = t-mass\n"
    "radius_trainable = true\n"
    "radius_variant = linear\n"
    "seed = 0\n"
    "theta_init = 0.0\n"
    "train_samples = 1\n"
    "trials = 20\n"
    "warmup_fraction = 0.1\n"
    "weight_decay = 0.2\n"
)


class ConfigCodecSuite:
    """The config codec against one flat config dataclass; each subclass
    names the dataclass, the bytes its defaults serialize to, and extra
    non-default values for the round trip."""

    config_type = None
    default_text = None
    varied = {}

    def parse(self, text):
        return parse_config_text(text, self.config_type())

    def test_default_bytes_pinned(self):
        assert config_to_text(self.config_type()) == self.default_text
        assert self.parse(self.default_text) == self.config_type()

    def test_round_trip(self):
        config = self.config_type(
            dim=8, radius_variant="scalar", theta_init=1.0, radius_trainable=False, **self.varied
        )
        text = config_to_text(config)
        again = self.parse(text)
        assert type(again) is self.config_type
        assert again == config
        assert config_to_text(again) == text

    def test_comments_and_blanks(self):
        config = self.parse("# a comment\n\nalpha = 0.5  # inline\nmode = baseline\n")
        assert config.alpha == 0.5
        assert config.mode == "baseline"

    def test_comments_and_blanks_ignored(self):
        base = self.config_type(seed=9)
        assert parse_config_text("# note\n\n   \n# seed = 4\n", base) == base

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractViolation, match="line 2: unknown key 'warp_factor'"):
            self.parse("seed = 1\nwarp_factor = 9\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ContractViolation, match="^config line 3: key 'seed' repeats line 1$"):
            self.parse("seed = 1\nalpha = 0.5\nseed = 2\n")

    # every break str.splitlines splits at; parse_config_text reads lines with it
    @pytest.mark.parametrize("sep", ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_value_holding_a_line_break_rejected(self, sep):
        assert len(f"a{sep}b".splitlines()) == 2
        with pytest.raises(ContractViolation, match="config value mode = .* would not read back as written"):
            self.config_type(mode=f"t-mass{sep}x")
        config = self.config_type()
        config.mode = f"t-{sep}mass"
        with pytest.raises(ContractViolation, match="config value mode = .* would not read back as written"):
            config_to_text(config)

    def test_missing_equals_rejected(self):
        with pytest.raises(ContractViolation, match="line 1"):
            self.parse("just words")

    def test_bad_bool_rejected(self):
        for raw in ("yes", "True", "1", ""):
            with pytest.raises(ContractViolation, match="line 1.*adapters_enabled"):
                self.parse(f"adapters_enabled = {raw}\n")

    def test_bad_values_name_the_key(self):
        # every int, float and integer-list field refuses a non-number
        numeric = [
            f.name for f in dataclasses.fields(self.config_type)
            if isinstance(f.default, (int, float, tuple)) and not isinstance(f.default, bool)
        ]
        assert "epochs" in numeric and "alpha" in numeric
        for key in numeric:
            with pytest.raises(ContractViolation, match=f"line 2: bad value 'x1' for {key}"):
                self.parse(f"mode = t-mass\n{key} = x1\n")
        with pytest.raises(ContractViolation, match="epochs"):
            self.parse("epochs = 2.5\n")

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", -1.0), ("alpha", float("nan")), ("lr_head", float("inf")),
         ("weight_decay", -0.5), ("theta_init", float("nan")), ("lr_adapter", -1.0)],
    )
    def test_non_finite_or_negative_values_name_the_key(self, key, value):
        with pytest.raises(ContractViolation, match=f"config value {key} = "):
            self.config_type(**{key: value})
        with pytest.raises(ContractViolation, match=f"config value {key} = "):
            self.parse(f"{key} = {value}\n")

    @pytest.mark.parametrize(
        "key, value",
        [("adapters_enabled", 1), ("seed", True), ("dim", 32.0), ("epochs", 1.5), ("batch_size", 8.0),
         ("alpha", True), ("lr_head", "0.1"), ("theta_init", 2**53 + 1), ("mode", None)],
    )
    def test_values_of_the_wrong_type_name_the_key(self, key, value):
        with pytest.raises(ContractViolation, match=f"config value {key} = {re.escape(repr(value))} must be"):
            self.config_type(**{key: value})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_stored_range_rejected(self, seed):
        # the checkpoint stores the seed as a u64
        with pytest.raises(ContractViolation, match="seed must lie in"):
            self.config_type(seed=seed)

    def test_invalid_values_rejected(self):
        with pytest.raises(ContractViolation, match="mode"):
            self.parse("mode = nonsense\n")
        with pytest.raises(ContractViolation, match="^batch size and train samples must be positive$"):
            self.config_type(batch_size=0)
        with pytest.raises(ContractViolation, match=r"^warmup fraction must lie in \[0, 1\]$"):
            self.config_type(warmup_fraction=1.5)
        with pytest.raises(ContractViolation, match="^model sizes and trial count must be positive$"):
            self.config_type(trials=0)
        with pytest.raises(ContractViolation, match="dropout"):
            self.parse("dropout_rate = 1.0\n")
        with pytest.raises(ContractViolation, match="radius variant"):
            self.parse("radius_variant = cubic\n")
        with pytest.raises(ContractViolation, match="radius variant"):
            self.config_type(radius_variant="cubic")


class TestConfigText(ConfigCodecSuite):
    config_type = TrainingConfig
    default_text = TRAINING_DEFAULT_TEXT


def config_values():
    """Every TrainingConfig field drawn as its default's type (an int or a
    float for a float field), at sizes a checkpoint's model can hold."""
    by_type = {
        bool: st.booleans(),
        int: st.integers(1, 3),
        float: st.integers(0, 1) | st.floats(0.0, 1.0),
    }
    wide = st.floats(min_value=0.0, allow_infinity=False) | st.integers(min_value=0)
    special = {
        "mode": st.sampled_from(MODES),
        "radius_variant": st.sampled_from(RADIUS_VARIANTS),
        "epochs": st.integers(0, 3),
        "seed": st.integers(0, 2**64 - 1),
        "theta_init": st.floats(allow_nan=False, allow_infinity=False),
        "alpha": wide,
        "lr_head": wide,
    }
    return st.fixed_dictionaries({
        f.name: special.get(f.name, by_type.get(type(f.default)))
        for f in dataclasses.fields(TrainingConfig)
    })


class TestConfigRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(values=config_values())
    def test_every_config_that_constructs_round_trips(self, values):
        try:
            config = TrainingConfig(**values)
        except ContractViolation:
            assume(False)
        text = config_to_text(config)
        assert parse_config_text(text) == config
        params = init_model_from_config(config)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.tmck"
            save_checkpoint(path, TrainState(params, init_optimizer(params, config.mode)), config)
            _, loaded = load_checkpoint(path)
        assert loaded == config
        # a float key given as an int is written as the float it reads back as
        assert config_to_text(loaded) == text


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        text, videos = tiny_data()
        config = tiny_config(radius_variant="scalar", theta_init=0.3)
        result = train(text, videos, config, stop_after_epochs=1)
        path = tmp_path / "state.tmck"
        save_checkpoint(path, result.state, config)
        loaded, loaded_config = load_checkpoint(path)

        assert loaded_config == config
        assert loaded.optimizer.step == result.state.optimizer.step
        # the trailing u64 repeats the optimizer table's step entry
        reader = trainer._Reader(path.read_bytes())
        reader.take(8, "magic and version")
        trainer._unpack_array_table(reader)
        assert trainer._unpack_array_table(reader)["step"] == result.state.optimizer.step
        assert struct.unpack("<Q", reader.blob[-8:])[0] == result.state.optimizer.step
        names = trainable_names(result.state.params, config.mode)
        assert np.array_equal(
            flatten_params(loaded.params, names), flatten_params(result.state.params, names)
        )
        assert np.array_equal(loaded.params.proj_text, result.state.params.proj_text)
        loaded_moments = moments(loaded.params, loaded.optimizer)
        for table, saved in zip(loaded_moments, moments(result.state.params, result.state.optimizer)):
            assert list(table) == list(saved)
            for name in table:
                assert np.array_equal(table[name], saved[name]), name

    def test_resume_from_disk_matches_straight_run(self, tmp_path):
        text, videos = tiny_data(pairs=18, seed=44)
        config = tiny_config(epochs=3, dropout_rate=0.2)
        names = trainable_names(init_model_from_config(config), config.mode)

        straight = train(text, videos, config)
        partial = train(text, videos, config, stop_after_epochs=2)
        path = tmp_path / "epoch2.tmck"
        save_checkpoint(path, partial.state, config)
        state, stored_config = load_checkpoint(path)
        resumed = train(text, videos, stored_config, resume=state)
        assert np.array_equal(
            flatten_params(straight.state.params, names),
            flatten_params(resumed.state.params, names),
        )

    def test_bad_magic_reports_offset(self, tmp_path):
        text, videos = tiny_data()
        config = tiny_config()
        result = train(text, videos, config, stop_after_epochs=1)
        path = tmp_path / "state.tmck"
        save_checkpoint(path, result.state, config)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte 0"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        text, videos = tiny_data()
        config = tiny_config()
        result = train(text, videos, config, stop_after_epochs=1)
        path = tmp_path / "state.tmck"
        save_checkpoint(path, result.state, config)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage_detected(self, tmp_path):
        text, videos = tiny_data()
        config = tiny_config()
        result = train(text, videos, config, stop_after_epochs=1)
        path = tmp_path / "state.tmck"
        save_checkpoint(path, result.state, config)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        text, videos = tiny_data()
        config = tiny_config()
        state = train(text, videos, config, stop_after_epochs=1).state
        state.params.fusion_out[1, 2] = value
        path = tmp_path / "state.tmck"
        save_checkpoint(path, state, config)
        with pytest.raises(FormatError, match="parameter 'fusion_out'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "inf"])
    def test_non_finite_optimizer_moment_rejected(self, tmp_path, value):
        text, videos = tiny_data()
        config = tiny_config()
        state = train(text, videos, config, stop_after_epochs=1).state
        state.params.view(state.optimizer.second, "fusion_key")[0, 0] = value
        path = tmp_path / "state.tmck"
        save_checkpoint(path, state, config)
        with pytest.raises(FormatError, match="optimizer entry 'v.fusion_key'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("step", [-1.0, 0.5], ids=["negative", "fractional"])
    def test_impossible_optimizer_step_rejected(self, tmp_path, tables, step):
        # save_checkpoint cannot write such a step into the trailing u64
        arrays, opt, config, global_step = tables
        opt["step"] = np.float64(step)
        write_raw_checkpoint(tmp_path / "state.tmck", arrays, opt, config, global_step)
        with pytest.raises(FormatError, match="optimizer step .* is not a count"):
            load_checkpoint(tmp_path / "state.tmck")

    @pytest.mark.parametrize("existing", [True, False], ids=["over-old", "fresh"])
    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        text, videos = tiny_data()
        config = tiny_config()
        state = train(text, videos, config, stop_after_epochs=1).state
        path = tmp_path / "state.tmck"
        if existing:
            save_checkpoint(path, train(text, videos, config, stop_after_epochs=0).state, config)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        real_open = open

        class HalfWrite:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, blob):
                self.handle.write(blob[: len(blob) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(core, "open", lambda *a: HalfWrite(real_open(*a)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, state, config)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_save_bytes_do_not_depend_on_a_previous_file(self, tmp_path):
        text, videos = tiny_data()
        config = tiny_config()
        state = train(text, videos, config, stop_after_epochs=1).state
        fresh, over = tmp_path / "fresh.tmck", tmp_path / "over.tmck"
        save_checkpoint(fresh, state, config)
        over.write_bytes(b"stale" * 10_000)
        save_checkpoint(over, state, config)
        assert over.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.tmck", "over.tmck"]


@pytest.fixture
def tables():
    """The parameter and optimizer tables of a trained linear model, its
    config and its step."""
    text, videos = tiny_data()
    config = tiny_config()
    state = train(text, videos, config, stop_after_epochs=1).state
    arrays = {name: getattr(state.params, name) for name in all_array_names(state.params)}
    first, second = moments(state.params, state.optimizer)
    opt = {f"m.{n}": m for n, m in first.items()}
    opt.update({f"v.{n}": v for n, v in second.items()})
    opt["step"] = np.float64(state.optimizer.step)
    return arrays, opt, config, state.optimizer.step


def write_raw_checkpoint(path, arrays, opt, config, global_step, seed=None):
    """A version-1 checkpoint holding exactly the given array tables; its
    seed record is the config's unless seed is given."""
    config_blob = config_to_text(config).encode("utf-8")
    path.write_bytes(b"".join([
        trainer.CHECKPOINT_MAGIC,
        struct.pack("<I", trainer.CHECKPOINT_VERSION),
        trainer._pack_array_table(arrays),
        trainer._pack_array_table(opt),
        struct.pack("<I", len(config_blob)),
        config_blob,
        struct.pack("<QQ", config.seed if seed is None else seed, global_step),
    ]))


class TestCheckpointLayout:
    @pytest.mark.parametrize("adapters", [True, False], ids=["adapters", "no-adapters"])
    @pytest.mark.parametrize("variant", ["fixed-mean", "scalar", "linear"])
    def test_round_trip_keeps_every_array(self, tmp_path, variant, adapters):
        text, videos = tiny_data()
        config = tiny_config(radius_variant=variant, adapters_enabled=adapters, theta_init=0.3)
        state = train(text, videos, config, stop_after_epochs=1).state
        path = tmp_path / "state.tmck"
        save_checkpoint(path, state, config)
        loaded, _ = load_checkpoint(path)
        assert_views_of_flat(loaded.params)
        names = all_array_names(state.params)
        assert all_array_names(loaded.params) == names
        assert "proj_frame" in names
        for name in names:
            assert np.array_equal(getattr(loaded.params, name), getattr(state.params, name)), name
        assert loaded.optimizer.names == trainable_names(state.params, config.mode)
        (first, second), (loaded_first, loaded_second) = (moments(s.params, s.optimizer) for s in (state, loaded))
        for name, moment in first.items():
            assert np.array_equal(loaded_first[name], moment), name
            assert np.array_equal(loaded_second[name], second[name])
        save_checkpoint(tmp_path / "again.tmck", loaded, config)
        assert (tmp_path / "again.tmck").read_bytes() == path.read_bytes()

    def test_untouched_tables_load(self, tmp_path, tables):
        write_raw_checkpoint(tmp_path / "ok.tmck", *tables)
        load_checkpoint(tmp_path / "ok.tmck")

    def test_global_step_other_than_the_optimizer_step(self, tmp_path, tables):
        arrays, opt, config, step = tables
        assert opt["step"] == step
        write_raw_checkpoint(tmp_path / "bad.tmck", arrays, opt, config, step + 1)
        with pytest.raises(FormatError, match=f"optimizer step {step} differs from global step {step + 1}"):
            load_checkpoint(tmp_path / "bad.tmck")

    def test_a_seed_record_other_than_the_config_seed(self, tmp_path, tables):
        arrays, opt, config, step = tables
        write_raw_checkpoint(tmp_path / "bad.tmck", arrays, opt, config, step, seed=config.seed + 1)
        with pytest.raises(FormatError, match="^seed record disagrees with config$"):
            load_checkpoint(tmp_path / "bad.tmck")

    def test_missing_optimizer_step(self, tmp_path, tables):
        arrays, opt, config, step = tables
        del opt["step"]
        write_raw_checkpoint(tmp_path / "bad.tmck", arrays, opt, config, step)
        with pytest.raises(FormatError, match="^checkpoint missing optimizer step$"):
            load_checkpoint(tmp_path / "bad.tmck")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_optimizer_step(self, tmp_path, tables, value):
        arrays, opt, config, step = tables
        opt["step"] = np.float64(value)
        write_raw_checkpoint(tmp_path / "bad.tmck", arrays, opt, config, step)
        with pytest.raises(FormatError, match="^checkpoint optimizer step is not a finite scalar$"):
            load_checkpoint(tmp_path / "bad.tmck")

    def test_missing_parameter(self, tmp_path, tables):
        arrays, opt, config, step = tables
        del arrays["proj_frame"]
        write_raw_checkpoint(tmp_path / "bad.tmck", arrays, opt, config, step)
        with pytest.raises(FormatError, match=re.escape("checkpoint missing parameter 'proj_frame'")):
            load_checkpoint(tmp_path / "bad.tmck")

    def test_unknown_parameter(self, tmp_path, tables):
        arrays, opt, config, step = tables
        arrays["radius_theta"] = np.float64(0.0)
        write_raw_checkpoint(tmp_path / "bad.tmck", arrays, opt, config, step)
        with pytest.raises(FormatError, match=re.escape("checkpoint has unknown parameter 'radius_theta'")):
            load_checkpoint(tmp_path / "bad.tmck")

    def test_wrong_shaped_parameter(self, tmp_path, tables):
        arrays, opt, config, step = tables
        arrays["proj_text"] = arrays["proj_text"].T
        write_raw_checkpoint(tmp_path / "bad.tmck", arrays, opt, config, step)
        with pytest.raises(FormatError, match=re.escape("shape mismatch for 'proj_text'")):
            load_checkpoint(tmp_path / "bad.tmck")

    def test_wrong_shaped_moment(self, tmp_path, tables):
        arrays, opt, config, step = tables
        opt["v.radius_weights"] = opt["v.radius_weights"][:, :-1]
        write_raw_checkpoint(tmp_path / "bad.tmck", arrays, opt, config, step)
        with pytest.raises(FormatError, match=re.escape("shape mismatch for 'v.radius_weights'")):
            load_checkpoint(tmp_path / "bad.tmck")

    def test_missing_and_unknown_moments(self, tmp_path, tables):
        arrays, opt, config, step = tables
        missing = {k: v for k, v in opt.items() if k != "m.log_lambda"}
        write_raw_checkpoint(tmp_path / "missing.tmck", arrays, missing, config, step)
        with pytest.raises(FormatError, match=re.escape("checkpoint missing optimizer entry 'm.log_lambda'")):
            load_checkpoint(tmp_path / "missing.tmck")
        write_raw_checkpoint(tmp_path / "extra.tmck", arrays, {**opt, "m.proj_text": arrays["proj_text"]},
                             config, step)
        with pytest.raises(FormatError, match=re.escape("checkpoint has unknown optimizer entry 'm.proj_text'")):
            load_checkpoint(tmp_path / "extra.tmck")


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A d = 4 checkpoint after one epoch, so the optimizer step is 1."""
    text, videos = tiny_data(pairs=6, c=4, t_raw=3)
    config = tiny_config(dim=4, concept_dim=4, frame_count=2, epochs=1)
    path = tmp_path_factory.mktemp("corrupt") / "small.tmck"
    save_checkpoint(path, train(text, videos, config).state, config)
    return path


class TestCorruptCheckpoint:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_loads_or_is_format_error(self, small_checkpoint, data):
        blob = small_checkpoint.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            corrupt = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="byte")
            bit = data.draw(st.integers(0, 7), label="bit")
            corrupt = blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1 :]
        path = small_checkpoint.with_name("corrupt.tmck")
        path.write_bytes(corrupt)
        try:
            load_checkpoint(path)
        except FormatError:
            pass

    @pytest.mark.parametrize(
        "line, bad",
        [
            (b"epochs = 1\n", b"epochs = x\n"),
            (b"mode = t-mass\n", b"mode = t-mas\xff\n"),
            (b"radius_variant = linear\n", b"radius_variant = cubicc\n"),
            (b"alpha = 1.2\n", b"alpha = nan\n"),
            (b"weight_decay = 0.1\n", b"weight_decay = -.1\n"),
            (b"mode = t-mass\n", b"epochs = 1   \n"),
        ],
        ids=["non-numeric", "not-utf8", "unknown-variant", "non-finite", "negative", "repeated-key"],
    )
    def test_bad_config_text_names_its_offset(self, small_checkpoint, tmp_path, line, bad):
        blob = small_checkpoint.read_bytes()
        assert blob.count(line) == 1 and len(bad) == len(line)
        path = tmp_path / "bad.tmck"
        path.write_bytes(blob.replace(line, bad))
        start = blob.index(b"adapters_enabled = ")
        with pytest.raises(FormatError, match=f"config text at byte {start}"):
            load_checkpoint(path)

    def test_out_of_range_rank_is_format_error(self, small_checkpoint, tmp_path):
        # first table entry: u32 count, u32 name length, name, then its rank
        blob = bytearray(small_checkpoint.read_bytes())
        rank_at = 12 + 4 + len(b"proj_text")
        assert blob[rank_at : rank_at + 4] == (2).to_bytes(4, "little")
        blob[rank_at : rank_at + 4] = (65).to_bytes(4, "little")
        blob[rank_at + 4 : rank_at + 8] = bytes(4)  # a zero dimension keeps the data empty
        path = tmp_path / "bad.tmck"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"rank 65 of 'proj_text' at byte {rank_at}"):
            load_checkpoint(path)

    def test_repeated_array_name_is_format_error(self, small_checkpoint, tmp_path):
        # the parameter table lists fusion_out twice, the copy right after
        # the original, and its count says so
        blob = small_checkpoint.read_bytes()
        name = b"fusion_out"
        entry_at = blob.index(len(name).to_bytes(4, "little") + name)
        rank_at = entry_at + 4 + len(name)
        (ndim,) = struct.unpack_from("<I", blob, rank_at)
        dims = struct.unpack_from(f"<{ndim}I", blob, rank_at + 4)
        entry_end = rank_at + 4 + 4 * ndim + 8 * int(np.prod(dims))
        (count,) = struct.unpack_from("<I", blob, 8)  # after the magic and version
        corrupt = blob[:8] + struct.pack("<I", count + 1) + blob[12:entry_end]
        corrupt += blob[entry_at:entry_end] + blob[entry_end:]
        path = tmp_path / "bad.tmck"
        path.write_bytes(corrupt)
        with pytest.raises(FormatError, match=f"'fusion_out' at byte {entry_end} repeats"):
            load_checkpoint(path)


class TestSpecEdgeCases:
    def test_schedule_reaches_zero_at_total(self):
        assert abs(2.0 * lr_at(100, 100, 0.1)) <= 1e-12

    def test_zero_epochs_returns_initial_state(self):
        text, videos = tiny_data()
        config = tiny_config(epochs=0)
        result = train(text, videos, config)
        assert result.step_losses == [] and result.epoch_means == []
        assert result.state.optimizer.step == 0
        fresh = init_model_from_config(config)
        names = trainable_names(fresh, config.mode)
        assert np.array_equal(
            flatten_params(result.state.params, names), flatten_params(fresh, names)
        )

    def test_non_finite_gradient_aborts(self):
        """A bad entry in any array is named, and nothing is written."""
        from textmass.trainer import TrainingDivergence

        config = tiny_config()
        lrs = {"head": 1e-3, "backbone-adapter": 1e-4}
        for name, entry, bad in [("adapter_text", 0, np.nan), ("fusion_query", 7, np.inf),
                                 ("radius_weights", 23, -np.inf), ("log_lambda", 0, np.nan)]:
            params = init_model_from_config(config)
            state = init_optimizer(params, config.mode)
            rng = substream(42, 8003)
            grads = {n: rng.standard_normal(m.size).reshape(m.shape) for n, m in moments(params, state)[0].items()}
            adamw_step(params, grads, state, lrs, 0.1)
            arrays = all_array_names(params)
            before = {n: getattr(params, n).copy() for n in arrays}
            saved_moments = [{n: m.copy() for n, m in table.items()} for table in moments(params, state)]
            grads[name].flat[entry] = bad
            with pytest.raises(TrainingDivergence, match=f"^non-finite gradient for '{name}' at optimizer step 2$"):
                adamw_step(params, grads, state, lrs, 0.1)
            assert state.step == 1
            for n in arrays:
                assert np.array_equal(getattr(params, n), before[n]), n
            for table, saved in zip(moments(params, state), saved_moments):
                assert list(table) == list(saved)
                for n, m in saved.items():
                    assert np.array_equal(table[n], m), n
