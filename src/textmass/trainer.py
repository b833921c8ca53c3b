"""Deterministic training loop: AdamW with warmup + cosine decay, two
parameter groups, and bit-exact checkpoint resume.

All randomness is drawn from substreams keyed by purpose and position
(shuffles by epoch, noise and dropout by global step), so a resumed run
replays exactly the draws the straight run would have made. The noise and
dropout streams of an epoch's steps are seeded in one pass
(core.stream_rngs), with the bits of one substream per step. The checkpoint
format stores every parameter array, the optimizer moments, the flat config
text, and the (seed, step) pair that fixes the stream positions; the
optimizer's step count is the global step.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import (ContractViolation, FormatError, atomic_write, check_field_types, check_seed, stream_rngs,
                   substream)
from .model import (
    MODES,
    PARAMETERS,
    RADIUS_VARIANTS,
    ModelParameters,
    all_array_names,
    init_model,
    restore_param,
    trainable_names,
)
from .objectives import (
    DEFAULT_ALPHA,
    PairBatch,
    backward_batch,
    draw_noise,
    dropout_grid_mask,
    forward_batch,
)
# unused here: held for perfbench/worker.py, which reads model.flatten_params
from .model import flatten_params  # noqa: F401

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergence(RuntimeError):
    """A non-finite loss or gradient surfaced during optimization."""

CHECKPOINT_MAGIC = b"TMCK"
CHECKPOINT_VERSION = 1

# substream purposes for the training loop
_STREAM_SHUFFLE = 201
_STREAM_NOISE = 202
_STREAM_DROPOUT = 203


@dataclass
class TrainingConfig:
    """Model, objective and optimizer settings: exactly the keys a
    checkpoint stores. Every field round-trips through config text."""

    dim: int = 32
    concept_dim: int = 16
    frame_count: int = 8
    radius_variant: str = "linear"
    radius_trainable: bool = True
    theta_init: float = 0.0
    adapters_enabled: bool = True
    mode: str = "t-mass"
    alpha: float = DEFAULT_ALPHA
    batch_size: int = 32
    epochs: int = 5
    lr_head: float = 1e-5
    lr_adapter: float = 1e-6
    weight_decay: float = 0.2
    warmup_fraction: float = 0.1
    dropout_rate: float = 0.3
    train_samples: int = 1
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for f in dataclasses.fields(self):
            _check_text_value(f.name, getattr(self, f.name))
        for key in ("alpha", "lr_head", "lr_adapter", "weight_decay"):
            if getattr(self, key) < 0:
                raise ContractViolation(f"config value {key} = {getattr(self, key)!r} is negative")
        if self.mode not in MODES:
            raise ContractViolation(f"unknown training mode {self.mode!r}")
        if self.batch_size < 1 or self.epochs < 0 or self.train_samples < 1:
            raise ContractViolation("batch size and train samples must be positive")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ContractViolation("warmup fraction must lie in [0, 1]")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractViolation("dropout rate must lie in [0, 1)")
        check_seed(self.seed)
        if self.dim < 1 or self.concept_dim < 1 or self.frame_count < 1 or self.trials < 1:
            raise ContractViolation("model sizes and trial count must be positive")
        if self.radius_variant not in RADIUS_VARIANTS:
            raise ContractViolation(f"unknown radius variant {self.radius_variant!r}")


def _check_text_value(key: str, value) -> None:
    """Config text is one `key = value` line per key, cuts a value at its
    first `#` and strips it, so a str value holding `#` or any line break
    `str.splitlines` splits at, or with space at either end, would not read
    back as written."""
    if isinstance(value, str) and ("#" in value or len(value.splitlines()) > 1 or value != value.strip()):
        raise ContractViolation(f"config value {key} = {value!r} would not read back as written")


def _parse_value(raw: str, default):
    """raw read as the type of the field's default value; ValueError when
    it is malformed."""
    if isinstance(default, bool):
        if raw not in ("true", "false"):
            raise ValueError(raw)
        return raw == "true"
    if isinstance(default, tuple):
        return tuple(int(p) for p in raw.split(",") if p.strip())
    if isinstance(default, (int, float)):
        return type(default)(raw)
    return raw


def config_to_text(config) -> str:
    """Flat `key = value` lines of a flat config dataclass, sorted by key;
    parse_config_text inverts. A float key's value is written as a float,
    as it reads back, even when it was given as an int."""
    lines = []
    for f in sorted(dataclasses.fields(config), key=lambda f: f.name):
        key, value = f.name, getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(f.default, float):
            value = float(value)
        _check_text_value(key, value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def parse_config_text(text: str, base: TrainingConfig = TrainingConfig()) -> TrainingConfig:
    """Parse `key = value` lines (# comments, blank lines allowed) on top of
    base and build a config of base's type. Unknown or repeated keys and
    malformed values raise ContractViolation naming the line."""
    fields = dataclasses.fields(base)
    defaults = {f.name: f.default for f in fields}
    values = {f.name: getattr(base, f.name) for f in fields}
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ContractViolation(f"config line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in values:
            raise ContractViolation(f"config line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ContractViolation(f"config line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = _parse_value(raw, defaults[key])
        except ValueError:
            raise ContractViolation(f"config line {lineno}: bad value {raw!r} for {key}") from None
    return type(base)(**values)


def init_model_from_config(config: TrainingConfig) -> ModelParameters:
    params = init_model(
        config.dim,
        config.concept_dim,
        config.frame_count,
        radius_variant=config.radius_variant,
        seed=config.seed,
        adapters_enabled=config.adapters_enabled,
    )
    if config.radius_variant == "scalar":
        restore_param(params, "radius_theta", config.theta_init)
    params.radius_trainable = config.radius_trainable
    return params


# ---------------------------------------------------------------------------
# learning-rate schedule and AdamW


def lr_at(step: int, total_steps: int, warmup_fraction: float) -> float:
    """The factor each group's base rate is scaled by at step: a linear
    warmup from 0 to 1, then a cosine decay reaching 0 at total_steps."""
    if total_steps < 1:
        raise ContractViolation("schedule needs at least one step")
    if not 0 <= step <= total_steps:
        raise ContractViolation("step outside the schedule range")
    warmup_steps = int(warmup_fraction * total_steps)
    if step < warmup_steps:
        return step / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = (step - warmup_steps) / span
    return 0.5 * (1.0 + np.cos(np.pi * progress))


@dataclass
class OptimizerState:
    """AdamW's step count, which is the run's global step (the steps
    taken so far), and its moments, laid out like the model's flat
    buffer; the entries the mode does not train stay 0. names lists the
    trained arrays in optimizer order, and runs the (slice, group, decayed)
    spans of the buffer that share a learning rate and weight decay. grad
    and work are scratch of that layout: a step allocates no float temporary."""

    step: int
    names: list
    runs: list
    first: np.ndarray
    second: np.ndarray
    grad: np.ndarray
    work: np.ndarray


def init_optimizer(params: ModelParameters, mode: str) -> OptimizerState:
    """Zero moments over the mode's trainable arrays."""
    state = OptimizerState(0, trainable_names(params, mode), [], *(np.zeros(params.flat.size) for _ in range(4)))
    for name in state.names:
        part, kind = params.spans[name], (PARAMETERS[name].group, name != "log_lambda")
        if state.runs and state.runs[-1][1:] == kind and state.runs[-1][0].stop == part.start:
            part = slice(state.runs.pop()[0].start, part.stop)
        state.runs.append((part,) + kind)
    return state


def adamw_step(
    params: ModelParameters,
    grads: dict,
    state: OptimizerState,
    lr_by_group: dict,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam update; decay skips the logit scale.

    The gradients are copied into state.grad, and a non-finite one is
    refused, naming its array, before anything is written. The moments are
    updated in place over the span the runs cover (state.grad stays 0 in its
    gaps, so their moments do too), and then each run of params.flat. A
    parameter-copies model, which shares its original's buffer, is refused."""
    if params.copies is not None:
        raise ContractViolation(f"a model of {params.copies} parameter copies is never stepped")
    for name in state.names:
        params.view(state.grad, name)[...] = grads[name]
    span = slice(state.runs[0][0].start, state.runs[-1][0].stop)
    if not np.isfinite(state.grad[span]).all():
        bad = next(name for name in state.names if not np.isfinite(grads[name]).all())
        raise TrainingDivergence(f"non-finite gradient for {bad!r} at optimizer step {state.step + 1}")
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1**state.step
    bias2 = 1.0 - ADAM_BETA2**state.step
    g, w, m, v = (x[span] for x in (state.grad, state.work, state.first, state.second))
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, g = (m / bias1) / (sqrt(v / bias2) + eps)
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=w)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=w), g, out=w)
    np.add(np.sqrt(np.divide(v, bias2, out=w), out=w), ADAM_EPS, out=w)
    np.divide(np.divide(m, bias1, out=g), w, out=g)
    for part, group, decayed in state.runs:  # p = p - lr g - lr decay p
        lr, p = lr_by_group[group], params.flat[part]
        np.multiply(p, lr * (weight_decay if decayed else 0.0), out=state.work[part])
        p -= np.multiply(state.grad[part], lr, out=state.grad[part])
        p -= state.work[part]


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainState:
    """The model and its optimizer; optimizer.step counts the steps taken."""

    params: ModelParameters
    optimizer: OptimizerState


@dataclass
class TrainResult:
    state: TrainState
    step_losses: list
    epoch_means: list


def steps_per_epoch(pair_count: int, batch_size: int) -> int:
    # Partial trailing batches are dropped; the pair count must cover at
    # least one full batch.
    steps = pair_count // batch_size
    if steps < 1:
        raise ContractViolation("fewer training pairs than one batch")
    return steps


def train(
    text: np.ndarray,
    videos: np.ndarray,
    config: TrainingConfig,
    resume: TrainState | None = None,
    stop_after_epochs: int | None = None,
    epoch_callback=None,
) -> TrainResult:
    """Run the configured objective over the pair arrays, refusing unequal
    text and video counts and non-finite features before the first step.

    The schedule always spans config.epochs; stop_after_epochs ends the loop
    early (for checkpoint-resume flows) without changing it. Resume picks up
    at the epoch boundary implied by the saved optimizer step.

    Step s draws its noise with draw_noise and its dropout mask with
    dropout_grid_mask from substream(config.seed, purpose, s), bit for bit;
    the states of an epoch's streams are derived in one core.stream_rngs
    pass, which reseeds one generator per step, so the streams' memory
    does not grow with the run. The dropout stream is drawn only when
    dropout_rate > 0, and the noise stream only outside baseline mode."""
    pairs = PairBatch(text, videos)
    per_epoch = steps_per_epoch(pairs.size, config.batch_size)
    total_steps = per_epoch * config.epochs
    last_epoch = config.epochs if stop_after_epochs is None else stop_after_epochs
    if not 0 <= last_epoch <= config.epochs:
        raise ContractViolation("stop epoch outside the configured run")

    if resume is None:
        fresh = init_model_from_config(config)
        state = TrainState(params=fresh, optimizer=init_optimizer(fresh, config.mode))
    else:
        state = resume
        if state.optimizer.step % per_epoch != 0:
            raise ContractViolation("resume only lands on epoch boundaries")
    start_epoch = state.optimizer.step // per_epoch

    lr_pairs = {"head": config.lr_head, "backbone-adapter": config.lr_adapter}
    step_losses = []
    epoch_means = []
    for epoch in range(start_epoch, last_epoch):
        order = substream(config.seed, _STREAM_SHUFFLE, epoch).permutation(pairs.size)
        steps = np.arange(epoch * per_epoch, (epoch + 1) * per_epoch)
        noise = stream_rngs(config.seed, (_STREAM_NOISE,), steps) if config.mode != "baseline" else None
        dropout = stream_rngs(config.seed, (_STREAM_DROPOUT,), steps) if config.dropout_rate > 0.0 else None
        epoch_total = 0.0
        for b in range(per_epoch):
            batch = pairs.rows(order[b * config.batch_size : (b + 1) * config.batch_size])
            eps = mask = None
            if noise is not None:
                eps = draw_noise(next(noise), config.train_samples, batch.size, config.dim)
            if dropout is not None:
                mask = dropout_grid_mask(next(dropout), batch.size, config.dim, config.dropout_rate)
            breakdown, cache = forward_batch(
                batch, state.params, config.mode, config.alpha, eps=eps, drop_mask=mask
            )
            if not np.isfinite(breakdown.l_total):
                raise TrainingDivergence(
                    f"non-finite loss at step {state.optimizer.step}: {breakdown}"
                )
            grads = backward_batch(cache)
            scale = lr_at(state.optimizer.step, total_steps, config.warmup_fraction)
            lrs = {group: base * scale for group, base in lr_pairs.items()}
            adamw_step(state.params, grads, state.optimizer, lrs, config.weight_decay)
            step_losses.append(breakdown)
            epoch_total += breakdown.l_total
        epoch_means.append(epoch_total / per_epoch)
        if epoch_callback is not None:
            epoch_callback(state, epoch)
    return TrainResult(state=state, step_losses=step_losses, epoch_means=epoch_means)


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic "TMCK", u32 version, then three length-prefixed sections: a named
# array table for parameters, one for optimizer state (m.<name>, v.<name>,
# and a scalar "step"), the config text, and finally two u64 words (seed,
# the optimizer's step again) that pin every derived random stream. _tables
# names every array entry.


def _pack_array_table(entries: dict) -> bytes:
    out = [struct.pack("<I", len(entries))]
    for name, value in entries.items():
        arr = np.asarray(value, dtype=np.float64)
        encoded = name.encode("utf-8")
        # name length, name, rank, dimensions, data
        out += [struct.pack("<I", len(encoded)), encoded, struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)]
        out.append(arr.astype("<f8").tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, size: int, what: str) -> bytes:
        if self.pos + size > len(self.blob):
            raise FormatError(f"checkpoint truncated at byte {self.pos} reading {what}")
        chunk = self.blob[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def text(self, size: int, what: str) -> str:
        start = self.pos
        try:
            return self.take(size, what).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{what} at byte {start} is not UTF-8") from None


def _unpack_array_table(reader: _Reader) -> dict:
    count = reader.u32("array count")
    entries = {}
    for _ in range(count):
        entry_at = reader.pos
        name = reader.text(reader.u32("name length"), "name")
        if name in entries:
            raise FormatError(f"array {name!r} at byte {entry_at} repeats an earlier entry")
        rank_at = reader.pos
        ndim = reader.u32("rank")
        shape = tuple(reader.u32("dimension") for _ in range(ndim))
        data = reader.take(8 * math.prod(shape), f"data for {name}")
        try:
            entries[name] = np.frombuffer(data, dtype="<f8").reshape(shape)
        except ValueError:
            raise FormatError(f"rank {ndim} of {name!r} at byte {rank_at} is out of range") from None
    return entries


def _tables(params: ModelParameters, optimizer: OptimizerState) -> tuple[dict, dict]:
    """The checkpoint's two array tables, in file order: each parameter
    array's view of params.flat by name, then the views of the moments
    (m.<name>, then v.<name>) of the arrays the optimizer trains."""
    arrays = {name: getattr(params, name) for name in all_array_names(params)}
    moments = {f"{tag}.{name}": params.view(moment, name)
               for tag, moment in (("m", optimizer.first), ("v", optimizer.second)) for name in optimizer.names}
    return arrays, moments


def save_checkpoint(path, state: TrainState, config: TrainingConfig) -> None:
    """Write state and config to path atomically: a reader sees the old
    file or the complete new one, never a partial write."""
    arrays, moments = _tables(state.params, state.optimizer)
    step = state.optimizer.step
    config_blob = config_to_text(config).encode("utf-8")
    blob = b"".join(
        [
            CHECKPOINT_MAGIC,
            struct.pack("<I", CHECKPOINT_VERSION),
            _pack_array_table(arrays),
            _pack_array_table({**moments, "step": np.float64(step)}),
            struct.pack("<I", len(config_blob)),
            config_blob,
            struct.pack("<QQ", config.seed, step),
        ]
    )
    atomic_write(path, blob)


def _checked_entries(entries: dict, views: dict, what: str) -> None:
    """Write each stored array named in views, in its order, into its view;
    each must be present, of its view's shape and finite, and no other name
    may be stored. what names the kind of entry in the FormatError."""
    for key, view in views.items():
        if key not in entries:
            raise FormatError(f"checkpoint missing {what} {key!r}")
        stored = entries.pop(key)
        if stored.shape != view.shape:
            raise FormatError(f"shape mismatch for {key!r}")
        if not np.all(np.isfinite(stored)):
            raise FormatError(f"{what} {key!r} holds non-finite values")
        view[...] = stored
    if entries:
        raise FormatError(f"checkpoint has unknown {what} {sorted(entries)[0]!r}")


def load_checkpoint(path) -> tuple[TrainState, TrainingConfig]:
    """Inverse of save_checkpoint. A malformed file, its config text
    included, raises FormatError."""
    with open(path, "rb") as handle:
        reader = _Reader(handle.read())
    magic = reader.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic at byte 0: {magic!r}")
    version = reader.u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at byte 4")
    arrays = _unpack_array_table(reader)
    opt_entries = _unpack_array_table(reader)
    config_len = reader.u32("config length")
    config_at = reader.pos
    config_text = reader.text(config_len, "config text")
    try:
        config = parse_config_text(config_text)
    except ContractViolation as exc:
        raise FormatError(f"config text at byte {config_at}: {exc}") from None
    seed = reader.u64("seed")
    global_step = reader.u64("global step")
    if reader.pos != len(reader.blob):
        raise FormatError(f"trailing bytes at byte {reader.pos}")
    if seed != config.seed:
        raise FormatError("seed record disagrees with config")

    params = init_model_from_config(config)
    optimizer = init_optimizer(params, config.mode)
    array_views, moment_views = _tables(params, optimizer)
    _checked_entries(arrays, array_views, "parameter")
    if "step" not in opt_entries:
        raise FormatError("checkpoint missing optimizer step")
    step = opt_entries.pop("step")
    if step.shape != () or not np.isfinite(step):
        raise FormatError("checkpoint optimizer step is not a finite scalar")
    if step < 0 or step != np.floor(step):
        raise FormatError(f"checkpoint optimizer step {float(step)!r} is not a count")
    if step != global_step:
        raise FormatError(f"checkpoint optimizer step {int(step)} differs from global step {global_step}")
    optimizer.step = int(step)
    _checked_entries(opt_entries, moment_views, "optimizer entry")
    return TrainState(params=params, optimizer=optimizer), config
