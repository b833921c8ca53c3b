"""Trainable model state: encoders, fusion, radius module, and logit scale.

ModelParameters holds every parameter array as a field named by its
checkpoint name, beside the settings that fix which arrays exist and train.
RADIUS_VARIANTS names the radius module's variants, and the PARAMETERS
table gives each name its optimizer group and, for a radius array, the one
variant that holds it; its order is the canonical order of the optimizer,
gradient containers, flat vectors, finite-difference checks, and checkpoint
serialization. Two parameter groups exist: "backbone-adapter" (the encoder
adapters, trained at the lower rate) and "head" (fusion, radius, logit
scale); the frozen projections belong to neither. A model's arrays are
views of its one buffer, which AdamW steps: code reads an array as its
field and writes one through restore_param.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import ContractViolation, substream

MODES = ("t-mass", "baseline", "ablation-ce-plus-s")
RADIUS_VARIANTS = ("fixed-mean", "scalar", "linear")

LOG_LAMBDA_INIT = float(np.log(1.0 / 0.07))
LAMBDA_MAX = 100.0

# substream purposes for model initialization
_STREAM_INIT_ENCODERS = 101


@dataclass
class ModelParameters:
    """Every array under its PARAMETERS name: frozen (d, c) projections,
    (d, d) adapters and fusion maps, the scalar variant's theta and the
    linear variant's (T', d) weights (each None in the other variants) and
    the logit scale's log; then the settings that fix which of them exist
    and train. The arrays of all_array_names are packed, in order, into one
    float64 (or wider) buffer, `flat`, and each field is bound to its view,
    a scalar to a 0-d one; `spans` maps each name to its slice of flat."""

    proj_text: np.ndarray
    proj_frame: np.ndarray
    adapter_text: np.ndarray
    adapter_frame: np.ndarray
    fusion_query: np.ndarray
    fusion_key: np.ndarray
    fusion_value: np.ndarray
    fusion_out: np.ndarray
    radius_theta: float | np.ndarray | None
    radius_weights: np.ndarray | None
    log_lambda: float | np.ndarray
    radius_variant: str
    frame_count: int
    adapters_enabled: bool = True
    radius_trainable: bool = True
    copies: int | None = None

    def __post_init__(self):
        if self.radius_variant not in RADIUS_VARIANTS:
            raise ContractViolation(f"unknown radius variant {self.radius_variant!r}")
        if self.radius_variant == "linear" and self.radius_weights is None:
            raise ContractViolation("linear radius variant requires a weight matrix")
        if self.radius_variant == "scalar" and self.radius_theta is None:
            raise ContractViolation("scalar radius variant requires a theta")
        values = [np.asarray(getattr(self, name)) for name in all_array_names(self)]
        bounds = np.cumsum([0] + [value.size for value in values]).tolist()
        self.spans = dict(zip(all_array_names(self), map(slice, bounds, bounds[1:])))
        self.flat = np.concatenate([value.ravel() for value in values], dtype=np.result_type(np.float64, *values))
        for name in self.spans:
            setattr(self, name, self.view(self.flat, name))

    def __deepcopy__(self, memo):  # a buffer of its own, its fields views of it
        return replace(self)

    def view(self, vector: np.ndarray, name: str) -> np.ndarray:
        """Array `name`'s part of a vector laid out like flat, in its shape."""
        return vector[self.spans[name]].reshape(np.shape(getattr(self, name)))

    @property
    def dim(self) -> int:
        return self.proj_text.shape[0]

    @property
    def concept_dim(self) -> int:
        return self.proj_text.shape[1]

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
    """Fresh model: frozen projections with i.i.d. N(0, 1/c) entries seeded
    from `seed`, identity adapters and fusion maps, zero radius parameters
    (R starts at all-ones)."""
    rng = substream(seed, _STREAM_INIT_ENCODERS)
    proj_text = rng.standard_normal(d * c).reshape(d, c) / np.sqrt(c)
    proj_frame = rng.standard_normal(d * c).reshape(d, c) / np.sqrt(c)
    maps = ("adapter_text", "adapter_frame", "fusion_query", "fusion_key", "fusion_value", "fusion_out")
    return ModelParameters(
        proj_text=proj_text,
        proj_frame=proj_frame,
        **{name: np.eye(d) for name in maps},
        radius_theta=0.0 if radius_variant == "scalar" else None,
        radius_weights=np.zeros((frame_count, d)) if radius_variant == "linear" else None,
        log_lambda=LOG_LAMBDA_INIT,
        radius_variant=radius_variant,
        frame_count=frame_count,
        adapters_enabled=adapters_enabled,
    )


class Slot(NamedTuple):
    group: str | None  # optimizer group; None: frozen
    variant: str | None = None  # the one radius variant that holds it; None: every model


_ADAPTER, _HEAD = "backbone-adapter", "head"

# Every parameter array, in the canonical order of the optimizer, gradient
# containers, flat vectors, finite-difference checks and checkpoints.
PARAMETERS = {
    "proj_text": Slot(None),
    "proj_frame": Slot(None),
    "adapter_text": Slot(_ADAPTER),
    "adapter_frame": Slot(_ADAPTER),
    "fusion_query": Slot(_HEAD),
    "fusion_key": Slot(_HEAD),
    "fusion_value": Slot(_HEAD),
    "fusion_out": Slot(_HEAD),
    "radius_theta": Slot(_HEAD, "scalar"),
    "radius_weights": Slot(_HEAD, "linear"),
    "log_lambda": Slot(_HEAD),
}


def all_array_names(params: ModelParameters) -> list[str]:
    """Every parameter array including frozen ones, for serialization."""
    return [n for n, s in PARAMETERS.items() if s.variant in (None, params.radius_variant)]


def trainable_names(params: ModelParameters, mode: str = "t-mass") -> list[str]:
    """Canonical ordering of trainable parameters for the given objective mode.

    Baseline mode never touches the radius module, so its parameters are
    absent; fixed-mean has no radius parameters at all; a frozen radius
    (trainable=False) is likewise excluded, and so are disabled adapters.
    """
    if mode not in MODES:
        raise ContractViolation(f"unknown training mode {mode!r}")
    radius_trains = mode != "baseline" and params.radius_trainable
    return [
        n
        for n in all_array_names(params)
        if PARAMETERS[n].group is not None
        and (PARAMETERS[n].group != _ADAPTER or params.adapters_enabled)
        and (PARAMETERS[n].variant is None or radius_trains)
    ]


def restore_param(params: ModelParameters, name: str, value: np.ndarray) -> None:
    """Write an array of params' shape, frozen or not, into its view of
    params.flat: for checkpoint loading and a config's theta_init. A name
    outside params.spans, such as a radius array of another variant, is
    refused."""
    if name not in params.spans:
        raise ContractViolation(f"a {params.radius_variant} model holds no array {name!r}")
    target = getattr(params, name)
    if np.shape(value) != np.shape(target):
        raise ContractViolation(f"shape mismatch assigning {name!r}")
    target[...] = value


def flatten_params(params: ModelParameters, names: list[str]) -> np.ndarray:
    return np.concatenate([getattr(params, n).ravel() for n in names]) if names else np.zeros(0)


def parameter_copies(params: ModelParameters, name: str, points: np.ndarray) -> ModelParameters:
    """A model beside params whose array `name` is the (k, *shape) stack of
    the k flat copies of it that the (k, size) points hold; every other
    array is params' own, shared. params itself is never written."""
    old = getattr(params, name)
    if points.ndim != 2 or points.shape[1] != old.size:
        raise ContractViolation(f"copies of {name!r} want {old.size} values each, got {points.shape}")
    copies = copy.copy(params)
    copies.copies = len(points)
    setattr(copies, name, points.reshape((len(points),) + old.shape))
    return copies
