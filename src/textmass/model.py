"""Trainable model state: encoders, fusion, radius module, and logit scale.

Parameters live in their owning dataclasses; this module provides the single
canonical ordering used by the optimizer, gradient containers, flattening for
finite-difference checks, and checkpoint serialization. Two parameter groups
exist: "backbone-adapter" (the encoder adapters, trained at the lower rate)
and "head" (fusion, radius, logit scale).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def dim(self) -> int:
        return self.stack.dim

    @property
    def concept_dim(self) -> int:
        return self.stack.concept_dim

    def logit_scale(self) -> float:
        """lambda = exp(log_lambda), clamped to LAMBDA_MAX."""
        return float(min(np.exp(self.log_lambda), LAMBDA_MAX))


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


def trainable_names(params: ModelParameters, mode: str = "t-mass") -> list[str]:
    """Canonical ordering of trainable parameters for the given objective mode.

    Baseline mode never touches the radius module, so its parameters are
    absent; fixed-mean has no radius parameters at all; a frozen radius
    (trainable=False) is likewise excluded.
    """
    if mode not in MODES:
        raise ContractViolation(f"unknown training mode {mode!r}")
    names = []
    if params.stack.adapters_enabled:
        names += ["adapter_text", "adapter_frame"]
    names += ["fusion_query", "fusion_key", "fusion_value", "fusion_out"]
    if mode != "baseline" and params.radius.trainable:
        if params.radius.variant == "scalar":
            names.append("radius_theta")
        elif params.radius.variant == "linear":
            names.append("radius_weights")
    names.append("log_lambda")
    return names


def all_array_names(params: ModelParameters) -> list[str]:
    """Every parameter array including frozen ones, for serialization."""
    names = [
        "proj_text",
        "proj_frame",
        "adapter_text",
        "adapter_frame",
        "fusion_query",
        "fusion_key",
        "fusion_value",
        "fusion_out",
    ]
    if params.radius.variant == "scalar":
        names.append("radius_theta")
    elif params.radius.variant == "linear":
        names.append("radius_weights")
    names.append("log_lambda")
    return names


def parameter_group(name: str) -> str:
    return "backbone-adapter" if name.startswith("adapter_") else "head"


def get_param(params: ModelParameters, name: str) -> np.ndarray:
    """Parameter value as a float64 array (shape () for scalars)."""
    table = {
        "proj_text": params.stack.proj_text,
        "proj_frame": params.stack.proj_frame,
        "adapter_text": params.stack.adapter_text,
        "adapter_frame": params.stack.adapter_frame,
        "fusion_query": params.fusion.query_map,
        "fusion_key": params.fusion.key_map,
        "fusion_value": params.fusion.value_map,
        "fusion_out": params.fusion.output_map,
        "radius_theta": params.radius.theta,
        "radius_weights": params.radius.weights,
        "log_lambda": params.log_lambda,
    }
    if name not in table:
        raise ContractViolation(f"unknown parameter {name!r}")
    return np.asarray(table[name], dtype=np.float64)


def set_param(params: ModelParameters, name: str, value: np.ndarray) -> None:
    value = np.asarray(value, dtype=np.float64)
    if value.shape != get_param(params, name).shape:
        raise ContractViolation(f"shape mismatch assigning {name!r}")
    if name == "adapter_text":
        params.stack.adapter_text = value
    elif name == "adapter_frame":
        params.stack.adapter_frame = value
    elif name == "fusion_query":
        params.fusion.query_map = value
    elif name == "fusion_key":
        params.fusion.key_map = value
    elif name == "fusion_value":
        params.fusion.value_map = value
    elif name == "fusion_out":
        params.fusion.output_map = value
    elif name == "radius_theta":
        params.radius.theta = float(value)
    elif name == "radius_weights":
        params.radius.weights = value
    elif name == "log_lambda":
        params.log_lambda = float(value)
    elif name in ("proj_text", "proj_frame"):
        raise ContractViolation(f"parameter {name!r} is frozen")
    else:
        raise ContractViolation(f"unknown parameter {name!r}")


def flatten_params(params: ModelParameters, names: list[str]) -> np.ndarray:
    return np.concatenate([get_param(params, n).ravel() for n in names]) if names else np.zeros(0)


def unflatten_params(params: ModelParameters, names: list[str], flat: np.ndarray) -> None:
    pos = 0
    for n in names:
        shape = get_param(params, n).shape
        size = int(np.prod(shape)) if shape else 1
        set_param(params, n, flat[pos : pos + size].reshape(shape))
        pos += size
    if pos != flat.size:
        raise ContractViolation("flat parameter vector length mismatch")


def flatten_grads(grads: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    return np.concatenate([np.asarray(grads[n]).ravel() for n in names]) if names else np.zeros(0)
