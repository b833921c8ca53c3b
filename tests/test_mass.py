import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textmass.core import NORM_GUARD, ContractViolation, DegenerateGeometryError, SeededRng
from textmass.mass import (
    RADIUS_VARIANTS,
    SamplingConfig,
    cos_grid,
    pool_similarities,
    radius_batch,
    select_best_sample,
    text_mass,
)
from textmass.model import init_model, restore_param

from oracle import cosine_similarity, frame_similarities, radius, sample_text_mass, support_text
from test_acceptance import reparameterization_check


class TestFrameSimilarities:
    def test_self_similarity(self):
        t = np.array([0.6, 0.8, 0.0])
        frames = np.tile(t, (4, 1))
        np.testing.assert_allclose(frame_similarities(t, frames), 1.0, atol=1e-9)

    def test_orthogonal(self):
        t = np.array([1.0, 0.0, 0.0])
        frames = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(frame_similarities(t, frames), 0.0, atol=1e-12)

    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=6)
        frames = rng.normal(size=(5, 6))
        s = frame_similarities(t, frames)
        for i in range(5):
            assert abs(s[i] - cosine_similarity(t, frames[i])) <= 1e-12


class TestCosGrid:
    @pytest.mark.parametrize("samples", [1, 4])
    def test_unit_stack_matches_the_norm_divided_formula(self, samples):
        rng = np.random.default_rng(5 + samples)
        m, n, d = 5, 7, 9
        stack = rng.normal(size=(m, n, d))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        rows = rng.normal(size=(samples, m, d))
        sims, norms = cos_grid(rows, stack)
        dots = np.einsum("smd,mnd->smn", rows, stack)
        # core.row_norms' bits: the square root of an unoptimized einsum dot
        rn = np.sqrt(np.einsum("smd,smd->sm", rows, rows))
        old = dots / (rn[..., None] * np.linalg.norm(stack, axis=-1) + NORM_GUARD)
        assert np.max(np.abs(sims - old)) <= 1e-15
        assert np.array_equal(norms, rn)


def radius_model(variant, dim, theta=0.0, weights=None):
    """A model of width dim whose radius module is the variant with theta
    and, for the linear variant, the (T', dim) weights."""
    frames = 1 if weights is None else weights.shape[-2]
    model = init_model(dim, 2, frames, radius_variant=variant)
    return dataclasses.replace(model, radius_theta=theta, radius_weights=weights)


class TestRadius:
    def test_linear_zero_weights_gives_ones(self):
        params = init_model(7, 2, 4, radius_variant="linear")
        np.testing.assert_array_equal(radius(np.array([0.3, -0.1, 0.9, 0.2]), params), 1.0)

    def test_scalar_analytic(self):
        params = radius_model("scalar", 5, theta=1.0)
        r = radius(np.full(3, 0.5), params)
        np.testing.assert_allclose(r, np.exp(0.5), atol=1e-9)

    def test_linear_matches_matrix_oracle(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(4, 6)) * 0.2
        params = radius_model("linear", 6, weights=w)
        s = rng.normal(size=4)
        np.testing.assert_allclose(radius(s, params), np.exp(s @ w), atol=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            variant = rng.choice(["fixed-mean", "scalar", "linear"])
            w = rng.normal(size=(3, 4))
            params = radius_model(
                variant,
                4,
                theta=float(rng.normal()),
                weights=w if variant == "linear" else None,
            )
            assert np.all(radius(rng.uniform(-1, 1, size=3), params) > 0)

    def test_fixed_mean_equals_scalar_theta_one(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(-1, 1, size=6)
        fixed = radius(s, radius_model("fixed-mean", 3))
        scalar = radius(s, radius_model("scalar", 3, theta=1.0))
        assert np.array_equal(fixed, scalar)

    def test_linear_length_mismatch(self):
        params = init_model(4, 2, 3, radius_variant="linear")
        with pytest.raises(ContractViolation):
            radius(np.zeros(5), params)

    def test_unknown_variant(self):
        with pytest.raises(ContractViolation):
            init_model(4, 2, 3, radius_variant="cubic")


def _radius_pool(seed, copies, n, frames, d):
    """Texts (n, d), unit frames (n, T', d), and theta and linear weights
    with a leading axis of k copies, or none when copies is None."""
    rng = np.random.default_rng(seed)
    texts = rng.normal(size=(n, d))
    unit = rng.normal(size=(n, frames, d))
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    lead = () if copies is None else (copies,)
    theta = rng.uniform(-2.0, 2.0, size=lead)
    weights = 0.3 * rng.normal(size=lead + (frames, d))
    return texts, unit, (float(theta) if copies is None else theta), weights


class TestRadiusBatch:
    @settings(max_examples=80, deadline=None)
    @given(
        variant=st.sampled_from(RADIUS_VARIANTS),
        copies=st.sampled_from([None, 1, 3]),
        n=st.integers(1, 4),
        frames=st.integers(1, 6),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_per_vector_oracle(self, variant, copies, n, frames, d, seed):
        if variant == "fixed-mean":
            copies = None  # it has no parameter to copy
        texts, unit, theta, weights = _radius_pool(seed, copies, n, frames, d)
        params = radius_model(variant, d, theta, weights if variant == "linear" else None)
        got = radius_batch(texts, unit, params).radius
        lead = () if copies is None else (copies,)
        assert got.shape == lead + (n, d)
        for c in range(copies or 1):
            one = params if copies is None else radius_model(
                variant, d, float(theta[c]), weights[c] if variant == "linear" else None
            )
            expect = np.stack([radius(frame_similarities(texts[i], unit[i]), one) for i in range(n)])
            row = got if copies is None else got[c]
            assert np.max(np.abs(row - expect)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        copies=st.sampled_from([None, 1, 3]),
        n=st.integers(1, 4),
        frames=st.integers(1, 6),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_fixed_mean_equals_scalar_theta_one_bit_for_bit(self, copies, n, frames, d, seed):
        texts, unit, _, _ = _radius_pool(seed, copies, n, frames, d)
        theta = 1.0 if copies is None else np.ones(copies)
        fixed = radius_batch(texts, unit, radius_model("fixed-mean", d)).radius
        scalar = radius_batch(texts, unit, radius_model("scalar", d, theta)).radius
        assert np.array_equal(np.broadcast_to(fixed, scalar.shape), scalar)


class TestRadiusBounds:
    """Cosines lie in [-1, 1], so a fixed-mean radius lies in [1/e, e] and a
    scalar one in [e^-|theta|, e^|theta|], up to a few ulps. The fixed-mean
    floor keeps the noise norm of a unit text near sqrt(d) / e or above:
    2.1 at d = 32."""

    @settings(max_examples=120, deadline=None)
    @given(
        variant=st.sampled_from(["fixed-mean", "scalar"]),
        theta=st.floats(-4.0, 4.0),
        aligned=st.sampled_from([None, 1.0, -1.0]),
        n=st.integers(1, 4),
        frames=st.integers(1, 8),
        d=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_radii_stay_inside_the_exponential_bounds(self, variant, theta, aligned, n, frames, d, seed):
        model = init_model(d, 3, frames, radius_variant=variant, seed=seed)
        if variant == "scalar":  # a fixed-mean model holds no theta
            restore_param(model, "radius_theta", theta)
        rng = np.random.default_rng(seed)
        texts = rng.normal(size=(n, d))
        unit = rng.normal(size=(n, frames, d))
        if aligned is not None:  # every cosine at +-1, where the bounds are reached
            unit = np.broadcast_to(aligned * texts[:, None, :], unit.shape).copy()
        unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
        got = radius_batch(texts, unit, model).radius
        bound = 1.0 if variant == "fixed-mean" else abs(theta)
        ulps = 4 * np.finfo(np.float64).eps
        assert np.all(got <= np.exp(bound) * (1 + ulps))
        assert np.all(got >= np.exp(-bound) * (1 - ulps))


class TestSampleTextMass:
    def test_vanishing_radius(self):
        t = np.array([0.2, -0.4, 0.7])
        ts = sample_text_mass(t, np.full(3, 1e-12), SeededRng(0, 0))
        assert np.linalg.norm(ts - t) <= 1e-10

    def test_monte_carlo_moments(self):
        n = 10**5
        t = np.array([0.5, -1.0, 2.0])
        r = np.array([0.3, 1.1, 0.05])
        # the draws of n one-draw sample_text_mass calls on SeededRng(123, 0):
        # each takes 4 uniforms (two Box-Muller pairs) and keeps 3 normals
        draws = text_mass(t, r, SeededRng(123, 0).standard_normal(4 * n).reshape(n, 4)[:, :3])
        mean_err = np.abs(draws.mean(axis=0) - t)
        assert np.all(mean_err <= 5.0 * r / np.sqrt(n))
        std = draws.std(axis=0)
        assert np.all(np.abs(std - r) <= 0.02 * r)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            sample_text_mass(np.zeros(3), np.ones(4), SeededRng(0, 0))


class TestTextMass:
    def test_broadcasts_and_writes_in_place(self):
        rng = np.random.default_rng(8)
        t, r, eps = rng.normal(size=5), np.exp(rng.normal(size=(3, 1, 5))), rng.normal(size=(3, 4, 5))
        want = t + r * eps
        assert np.array_equal(text_mass(t, r, eps), want)
        assert text_mass(t, r, eps, out=eps) is eps and np.array_equal(eps, want)

    def test_equals_the_per_vector_oracles_bit_for_bit(self):
        rng = SeededRng(5, 1)
        t, v, r = rng.standard_normal(7), rng.standard_normal(7), np.exp(rng.standard_normal(7))
        eps = SeededRng(5, 2).standard_normal(7)
        assert np.array_equal(text_mass(t, r, eps), sample_text_mass(t, r, SeededRng(5, 2)))
        direction = (v - t) / np.linalg.norm(v - t)
        assert np.array_equal(text_mass(t, r, direction), support_text(t, v, r))

    @pytest.mark.parametrize(
        "sampler",
        [lambda t, r, eps: text_mass(t, r * r, eps), lambda t, r, eps: text_mass(t, r, np.sqrt(2.0) * eps)],
        ids=["radius-twice", "noise-times-sqrt-2"],
    )
    def test_criterion_3_fails_a_sampler_with_the_wrong_scale(self, sampler):
        passed, _, worst_std = reparameterization_check(sampler)
        assert not passed and worst_std > 0.02


class TestSupportText:
    def test_analytic_2d(self):
        t_sup = support_text(np.zeros(2), np.array([2.0, 0.0]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(t_sup, [0.5, 0.0], atol=1e-12)

    def test_unit_radius(self):
        rng = np.random.default_rng(4)
        t, v = rng.normal(size=5), rng.normal(size=5)
        expect = t + (v - t) / np.linalg.norm(v - t)
        np.testing.assert_allclose(support_text(t, v, np.ones(5)), expect, atol=1e-12)

    def test_surface_membership_algebraic(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t, v = rng.normal(size=4), rng.normal(size=4)
            r = np.exp(rng.normal(size=4) * 0.5)
            t_sup = support_text(t, v, r)
            lhs = (t_sup - t) / r
            rhs = (v - t) / np.linalg.norm(v - t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_degenerate_raises(self):
        t = np.array([0.1, 0.2])
        with pytest.raises(DegenerateGeometryError):
            support_text(t, t + 1e-12, np.ones(2))


class TestPoolSimilarities:
    """Inference scores every pool at once and relies on each sample's score
    being independent of the samples and pairs stacked beside it."""

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 7, 8, 31, 32, 33, 128]),
        trials=st.integers(1, 25),
        prefix=st.integers(1, 25),
        candidates=st.integers(1, 40),
        spare=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_a_score_is_the_same_full_prefix_or_alone(self, d, trials, prefix, candidates, spare, seed):
        # the pool is a row-strided view of a wider buffer, as inference
        # forms it from each pair's uniforms
        rng = np.random.default_rng(seed)
        buffer = rng.normal(size=(candidates, trials * d + spare))
        pool = buffer[:, : trials * d].reshape(candidates, trials, d)
        targets = rng.normal(size=(candidates, d))
        full = pool_similarities(pool, targets)
        assert full.shape == (candidates, trials)
        prefix = min(prefix, trials)
        assert np.array_equal(pool_similarities(pool[:, :prefix], targets), full[:, :prefix])
        for c in range(candidates):
            alone = pool_similarities(np.ascontiguousarray(pool[c]), targets[c].copy())
            assert np.array_equal(alone, full[c])


class TestSelectBestSample:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.t = rng.normal(size=6)
        self.t /= np.linalg.norm(self.t)
        self.v = rng.normal(size=6)
        self.v /= np.linalg.norm(self.v)
        self.r = np.full(6, 0.4)

    def test_single_trial(self):
        sample, sim = select_best_sample(
            self.t, self.r, self.v, SamplingConfig(trials=1), SeededRng(7, 5)
        )
        expect = self.t + self.r * SeededRng(7, 5).standard_normal(6)
        np.testing.assert_array_equal(sample, expect)
        assert abs(sim - cosine_similarity(sample, self.v)) <= 1e-12

    def test_best_dominates_pool(self):
        _, sim = select_best_sample(self.t, self.r, self.v, SamplingConfig(trials=16), SeededRng(1, 2))
        eps = SeededRng(1, 2).standard_normal(16 * 6).reshape(16, 6)
        pool = self.t + self.r * eps
        sims = [cosine_similarity(s, self.v) for s in pool]
        assert sim >= max(sims) - 1e-15

    def test_nested_pools_monotone(self):
        best = []
        for m in (5, 10, 20):
            _, sim = select_best_sample(
                self.t, self.r, self.v, SamplingConfig(trials=m), SeededRng(3, 9)
            )
            best.append(sim)
        assert best[0] <= best[1] <= best[2]

    def test_deterministic_given_stream(self):
        a = select_best_sample(self.t, self.r, self.v, SamplingConfig(trials=8), SeededRng(4, 4))
        b = select_best_sample(self.t, self.r, self.v, SamplingConfig(trials=8), SeededRng(4, 4))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestSamplingConfig:
    @pytest.mark.parametrize("trials", [1, 20, np.int64(5)])
    def test_integer_trials_accepted(self, trials):
        assert SamplingConfig(trials=trials).trials == trials

    @pytest.mark.parametrize("trials", [2.5, 2.0, True, False, "3", None], ids=repr)
    def test_non_integer_trials_refused(self, trials):
        with pytest.raises(ContractViolation, match="must be an integer"):
            SamplingConfig(trials=trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_refused(self, trials):
        with pytest.raises(ContractViolation, match=">= 1"):
            SamplingConfig(trials=trials)
