"""Trainable model state: encoders, fusion, radius module, and logit scale.

Parameters live in their owning dataclasses. The PARAMETERS table names
each array once, with where it lives and its optimizer group, and its order
is the canonical order of the optimizer, gradient containers, flattening for
finite-difference checks, and checkpoint serialization; every accessor here
reads it. Two parameter groups exist: "backbone-adapter" (the encoder
adapters, trained at the lower rate) and "head" (fusion, radius, logit
scale); the frozen projections belong to neither.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ContractViolation, substream
from .encoders import EncoderStack, FusionParameters, init_encoder_stack, init_fusion
from .mass import RadiusParameters, init_radius

MODES = ("t-mass", "baseline", "ablation-ce-plus-s")

LOG_LAMBDA_INIT = float(np.log(1.0 / 0.07))
LAMBDA_MAX = 100.0

# substream purposes for model initialization
_STREAM_INIT_ENCODERS = 101


@dataclass
class ModelParameters:
    stack: EncoderStack
    fusion: FusionParameters
    radius: RadiusParameters
    log_lambda: float
    frame_count: int
    # k when some trainable arrays are stacks of k copies (parameter_copies)
    copies: int | None = None

    @property
    def dim(self) -> int:
        return self.stack.dim

    @property
    def concept_dim(self) -> int:
        return self.stack.concept_dim

    def logit_scale(self) -> float | np.ndarray:
        """lambda = exp(log_lambda), clamped to LAMBDA_MAX; (k,) for k copies."""
        lam = np.minimum(np.exp(self.log_lambda), LAMBDA_MAX)
        return float(lam) if lam.ndim == 0 else lam


def init_model(
    d: int,
    c: int,
    frame_count: int,
    radius_variant: str = "linear",
    seed: int = 0,
    adapters_enabled: bool = True,
) -> ModelParameters:
    """Fresh model: frozen projections seeded from `seed`, identity adapters
    and fusion maps, zero radius parameters (R starts at all-ones)."""
    stack = init_encoder_stack(d, c, substream(seed, _STREAM_INIT_ENCODERS), adapters_enabled)
    return ModelParameters(
        stack=stack,
        fusion=init_fusion(d),
        radius=init_radius(radius_variant, d, frame_count),
        log_lambda=LOG_LAMBDA_INIT,
        frame_count=frame_count,
    )


class Slot(NamedTuple):
    owner: str | None  # model component holding the array; None: the model itself
    attr: str
    group: str | None  # optimizer group; None: frozen
    variant: str | None = None  # the one radius variant that holds it; None: every model


_ADAPTER, _HEAD = "backbone-adapter", "head"

# Every parameter array, in the canonical order of the optimizer, gradient
# containers, flat vectors and checkpoints.
PARAMETERS = {
    "proj_text": Slot("stack", "proj_text", None),
    "proj_frame": Slot("stack", "proj_frame", None),
    "adapter_text": Slot("stack", "adapter_text", _ADAPTER),
    "adapter_frame": Slot("stack", "adapter_frame", _ADAPTER),
    "fusion_query": Slot("fusion", "query_map", _HEAD),
    "fusion_key": Slot("fusion", "key_map", _HEAD),
    "fusion_value": Slot("fusion", "value_map", _HEAD),
    "fusion_out": Slot("fusion", "output_map", _HEAD),
    "radius_theta": Slot("radius", "theta", _HEAD, "scalar"),
    "radius_weights": Slot("radius", "weights", _HEAD, "linear"),
    "log_lambda": Slot(None, "log_lambda", _HEAD),
}


def _slot(name: str) -> Slot:
    if name not in PARAMETERS:
        raise ContractViolation(f"unknown parameter {name!r}")
    return PARAMETERS[name]


def _owner(params: ModelParameters, slot: Slot):
    return params if slot.owner is None else getattr(params, slot.owner)


def all_array_names(params: ModelParameters) -> list[str]:
    """Every parameter array including frozen ones, for serialization."""
    return [n for n, s in PARAMETERS.items() if s.variant in (None, params.radius.variant)]


def trainable_names(params: ModelParameters, mode: str = "t-mass") -> list[str]:
    """Canonical ordering of trainable parameters for the given objective mode.

    Baseline mode never touches the radius module, so its parameters are
    absent; fixed-mean has no radius parameters at all; a frozen radius
    (trainable=False) is likewise excluded, and so are disabled adapters.
    """
    if mode not in MODES:
        raise ContractViolation(f"unknown training mode {mode!r}")
    radius_trains = mode != "baseline" and params.radius.trainable
    return [
        n
        for n in all_array_names(params)
        if PARAMETERS[n].group is not None
        and (PARAMETERS[n].group != _ADAPTER or params.stack.adapters_enabled)
        and (PARAMETERS[n].owner != "radius" or radius_trains)
    ]


def parameter_group(name: str) -> str | None:
    """Optimizer group of a parameter; None for a frozen one."""
    return _slot(name).group


def get_param(params: ModelParameters, name: str) -> np.ndarray:
    """Parameter value as a float64 array (shape () for scalars)."""
    slot = _slot(name)
    return np.asarray(getattr(_owner(params, slot), slot.attr), dtype=np.float64)


def restore_param(params: ModelParameters, name: str, value: np.ndarray) -> None:
    """Assign any parameter, frozen ones included, as when a model is
    rebuilt from stored arrays; a scalar is stored as a float."""
    slot = _slot(name)
    owner = _owner(params, slot)
    value = np.asarray(value, dtype=np.float64)
    if value.shape != np.shape(getattr(owner, slot.attr)):
        raise ContractViolation(f"shape mismatch assigning {name!r}")
    setattr(owner, slot.attr, float(value) if value.ndim == 0 else value)


def set_param(params: ModelParameters, name: str, value: np.ndarray) -> None:
    """Assign a trainable parameter; a frozen one is refused."""
    if _slot(name).group is None:
        raise ContractViolation(f"parameter {name!r} is frozen")
    restore_param(params, name, value)


def flatten_params(params: ModelParameters, names: list[str]) -> np.ndarray:
    return np.concatenate([get_param(params, n).ravel() for n in names]) if names else np.zeros(0)


def unflatten_params(params: ModelParameters, names: list[str], flat: np.ndarray) -> None:
    pos = 0
    for n in names:
        old = get_param(params, n)
        set_param(params, n, flat[pos : pos + old.size].reshape(old.shape))
        pos += old.size
    if pos != flat.size:
        raise ContractViolation("flat parameter vector length mismatch")


def parameter_copies(params: ModelParameters, names: list[str], points: np.ndarray) -> ModelParameters:
    """A model beside params for a (k, size) stack of flat vectors over
    names: each named array that some row moves becomes the (k, *shape)
    stack of its rows' values, and every other array is params' own,
    shared. params itself is never written."""
    k = points.shape[0]
    parts = {owner: dataclasses.replace(getattr(params, owner)) for owner in ("stack", "fusion", "radius")}
    copies = dataclasses.replace(params, copies=k, **parts)
    pos = 0
    for n in names:
        old = get_param(params, n)
        rows = points[:, pos : pos + old.size]
        if np.any(rows != old.ravel()):
            slot = PARAMETERS[n]
            setattr(_owner(copies, slot), slot.attr, rows.reshape((k,) + old.shape))
        pos += old.size
    if pos != points.shape[1]:
        raise ContractViolation("flat parameter vector length mismatch")
    return copies


def flatten_grads(grads: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    return np.concatenate([np.asarray(grads[n]).ravel() for n in names]) if names else np.zeros(0)
