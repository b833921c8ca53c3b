"""The parameter layout: which arrays exist, which train, in what order,
and how they are read and assigned."""

import copy
import dataclasses

import numpy as np
import pytest

from textmass.core import ContractViolation
from textmass.model import (
    MODES,
    PARAMETERS,
    RADIUS_VARIANTS,
    ModelParameters,
    all_array_names,
    init_model,
    restore_param,
    trainable_names,
)

ENCODERS = ["adapter_text", "adapter_frame"]
FUSION = ["fusion_query", "fusion_key", "fusion_value", "fusion_out"]


def make_model(variant="linear", adapters=True, radius_trainable=True):
    params = init_model(8, 6, 3, radius_variant=variant, seed=0, adapters_enabled=adapters)
    params.radius_trainable = radius_trainable
    return params


@pytest.mark.parametrize(
    "variant, expected",
    [
        ("fixed-mean", ["proj_text", "proj_frame", "adapter_text", "adapter_frame",
                        "fusion_query", "fusion_key", "fusion_value", "fusion_out",
                        "log_lambda"]),
        ("scalar", ["proj_text", "proj_frame", "adapter_text", "adapter_frame",
                    "fusion_query", "fusion_key", "fusion_value", "fusion_out",
                    "radius_theta", "log_lambda"]),
        ("linear", ["proj_text", "proj_frame", "adapter_text", "adapter_frame",
                    "fusion_query", "fusion_key", "fusion_value", "fusion_out",
                    "radius_weights", "log_lambda"]),
    ],
)
def test_all_array_names_per_variant(variant, expected):
    assert all_array_names(make_model(variant)) == expected


# (mode, adapters enabled, radius trainable) -> trainable names of a linear model
TRAINABLE_LINEAR = {
    ("t-mass", True, True): ENCODERS + FUSION + ["radius_weights", "log_lambda"],
    ("t-mass", True, False): ENCODERS + FUSION + ["log_lambda"],
    ("t-mass", False, True): FUSION + ["radius_weights", "log_lambda"],
    ("t-mass", False, False): FUSION + ["log_lambda"],
    ("baseline", True, True): ENCODERS + FUSION + ["log_lambda"],
    ("baseline", True, False): ENCODERS + FUSION + ["log_lambda"],
    ("baseline", False, True): FUSION + ["log_lambda"],
    ("baseline", False, False): FUSION + ["log_lambda"],
    ("ablation-ce-plus-s", True, True): ENCODERS + FUSION + ["radius_weights", "log_lambda"],
    ("ablation-ce-plus-s", True, False): ENCODERS + FUSION + ["log_lambda"],
    ("ablation-ce-plus-s", False, True): FUSION + ["radius_weights", "log_lambda"],
    ("ablation-ce-plus-s", False, False): FUSION + ["log_lambda"],
}


def test_trainable_table_covers_every_mode():
    assert {mode for mode, _, _ in TRAINABLE_LINEAR} == set(MODES)


@pytest.mark.parametrize("key", sorted(TRAINABLE_LINEAR), ids=str)
def test_trainable_names_per_mode_adapters_and_radius(key):
    mode, adapters, radius_trainable = key
    params = make_model("linear", adapters, radius_trainable)
    assert trainable_names(params, mode) == TRAINABLE_LINEAR[key]


@pytest.mark.parametrize(
    "variant, radius", [("fixed-mean", []), ("scalar", ["radius_theta"]), ("linear", ["radius_weights"])]
)
@pytest.mark.parametrize("mode", MODES)
def test_trainable_radius_entry_per_variant(variant, radius, mode):
    expected = ENCODERS + FUSION + (radius if mode != "baseline" else []) + ["log_lambda"]
    assert trainable_names(make_model(variant), mode) == expected


def test_unknown_mode_and_name_are_refused():
    params = make_model()
    with pytest.raises(ContractViolation, match="unknown training mode"):
        trainable_names(params, "t-mas")
    with pytest.raises(ContractViolation, match="^a linear model holds no array 'radius'$"):
        restore_param(params, "radius", 0.0)


@pytest.mark.parametrize(
    "variant, name",
    [("linear", "radius_theta"), ("fixed-mean", "radius_theta"),
     ("scalar", "radius_weights"), ("fixed-mean", "radius_weights")],
)
def test_restore_param_refuses_a_radius_array_the_variant_does_not_hold(variant, name):
    params = make_model(variant)
    before = params.flat.copy()
    with pytest.raises(ContractViolation, match=f"^a {variant} model holds no array '{name}'$"):
        restore_param(params, name, np.zeros(np.shape(getattr(params, name))))
    assert params.flat.tobytes() == before.tobytes()
    assert getattr(params, name) is None


def test_groups_follow_the_table():
    params = make_model()
    groups = {name: PARAMETERS[name].group for name in all_array_names(params)}
    assert groups == {
        "proj_text": None, "proj_frame": None,
        "adapter_text": "backbone-adapter", "adapter_frame": "backbone-adapter",
        "fusion_query": "head", "fusion_key": "head", "fusion_value": "head",
        "fusion_out": "head", "radius_weights": "head", "log_lambda": "head",
    }


def test_restore_param_refuses_misshapen_values():
    params = make_model()
    with pytest.raises(ContractViolation, match="shape mismatch assigning 'fusion_key'"):
        restore_param(params, "fusion_key", np.eye(7))
    with pytest.raises(ContractViolation, match="shape mismatch assigning 'log_lambda'"):
        restore_param(params, "log_lambda", np.ones(1))


def test_restore_param_writes_frozen_arrays_and_scalars_into_their_views():
    params = make_model("scalar")
    frame = np.full((8, 6), 0.5)
    restore_param(params, "proj_frame", frame)
    assert np.array_equal(params.proj_frame, frame)
    restore_param(params, "radius_theta", np.array(0.25))
    restore_param(params, "log_lambda", np.array(1.5))
    assert params.radius_theta.shape == () and params.radius_theta == 0.25
    assert params.log_lambda.shape == () and params.log_lambda == 1.5
    for name, value in [("proj_frame", frame), ("radius_theta", 0.25), ("log_lambda", 1.5)]:
        assert np.array_equal(params.flat[params.spans[name]], np.ravel(value)), name
        assert np.shares_memory(getattr(params, name), params.flat), name


def assert_views_of_flat(params):
    """Every array of params is a view of params.flat holding its span, and
    the spans tile flat in canonical order."""
    names = all_array_names(params)
    assert list(params.spans) == names
    bounds = [0] + [params.spans[name].stop for name in names]
    assert [params.spans[name].start for name in names] == bounds[:-1] and bounds[-1] == params.flat.size
    for name in names:
        value = getattr(params, name)
        assert np.shares_memory(value, params.flat), name
        assert np.array_equal(params.flat[params.spans[name]], np.ravel(value)), name


@pytest.mark.parametrize("variant", RADIUS_VARIANTS)
def test_init_model_binds_every_array_to_a_view_of_flat(variant):
    params = make_model(variant)
    assert_views_of_flat(params)
    assert params.flat.dtype == np.float64
    assert params.log_lambda.shape == ()


def test_replace_packs_a_buffer_of_its_own():
    params = make_model("scalar")
    moved = dataclasses.replace(params, radius_theta=0.5, fusion_out=2.0 * params.fusion_out)
    assert_views_of_flat(moved)
    assert not np.shares_memory(moved.flat, params.flat)
    assert moved.radius_theta == 0.5 and params.radius_theta == 0.0
    assert np.array_equal(moved.fusion_out, 2.0 * params.fusion_out)


def test_a_deep_copy_packs_a_buffer_of_its_own():
    params = make_model("linear")
    twin = copy.deepcopy(params)
    assert_views_of_flat(twin)
    assert not np.shares_memory(twin.flat, params.flat)
    restore_param(twin, "log_lambda", 2.0)
    assert twin.log_lambda == 2.0 and params.log_lambda != 2.0


def test_every_parameter_is_a_model_field_of_its_name_in_canonical_order():
    fields = [f.name for f in dataclasses.fields(ModelParameters)]
    assert fields[: len(PARAMETERS)] == list(PARAMETERS)


def test_a_linear_model_without_radius_weights_is_refused():
    scalar = make_model("scalar")
    assert scalar.radius_weights is None
    fields = {f.name: getattr(scalar, f.name) for f in dataclasses.fields(ModelParameters)}
    with pytest.raises(ContractViolation, match="^linear radius variant requires a weight matrix$"):
        ModelParameters(**{**fields, "radius_variant": "linear"})


def test_a_scalar_model_without_radius_theta_is_refused():
    linear = make_model("linear")
    assert linear.radius_theta is None
    with pytest.raises(ContractViolation, match="^scalar radius variant requires a theta$"):
        dataclasses.replace(linear, radius_variant="scalar", radius_weights=None)
