import math

import numpy as np
import pytest

from nondecomp.losses import sigmoid
from nondecomp.metrics import apply_threshold
from nondecomp.sampler import (
    OmegaDistribution,
    SyntheticSpec,
    gen_features,
    gen_lowrank_W,
    generate_problem,
    pu_flip,
    sample_labels,
    sample_omega,
)


def spec(**kw):
    base = dict(n=50, L=10, d=4, rank=2, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            spec(rank=5)  # > min(d, L)
        with pytest.raises(ValueError):
            spec(rank=0)

    def test_unknown_noise_model(self):
        with pytest.raises(ValueError):
            spec(noise_model="poisson")

    @pytest.mark.parametrize("key", ["theta_star", "wstar_scale", "noise_sigma"])
    def test_nonfinite_value_rejected(self, key):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=key):
                spec(**{key: bad})


class TestGenFeatures:
    def test_identity_covariance_law_of_large_numbers(self):
        X = gen_features(spec(n=10000, d=3, L=5, rank=2, seed=1))
        sample_cov = X.T @ X / 10000
        np.testing.assert_allclose(sample_cov, np.eye(3), atol=0.1)

    def test_seeded_reproducible(self):
        a = gen_features(spec(seed=5))
        b = gen_features(spec(seed=5))
        np.testing.assert_array_equal(a, b)


class TestGenLowRank:
    def test_rank_one_minors_vanish(self):
        W = gen_lowrank_W(spec(rank=1, seed=3))
        scale = np.abs(W).max()
        for _ in range(50):
            rng = np.random.default_rng(4)
            i, j = rng.integers(0, 4, size=2)
            a, b = rng.integers(0, 10, size=2)
            if i == j or a == b:
                continue
            minor = W[i, a] * W[j, b] - W[i, b] * W[j, a]
            assert abs(minor) <= 1e-9 * scale * scale

    def test_numerical_rank_equals_spec(self):
        for seed in range(100):
            W = gen_lowrank_W(spec(rank=2, seed=seed))
            s = np.linalg.svd(W, compute_uv=False)
            assert int(np.sum(s > 1e-8 * s[0])) == 2

    def test_zero_scale(self):
        W = gen_lowrank_W(spec(wstar_scale=0.0))
        np.testing.assert_array_equal(W, 0.0)


class TestSampleLabels:
    def test_sign_model_all_positive_scores(self):
        X = np.ones((3, 2))
        W = np.ones((2, 4))
        Y = sample_labels(X, W, "noise_free_sign", seed=0)
        assert Y.shape == (3, 4)
        assert np.all(Y == 1)

    def test_sign_model_consistent_with_thresholding(self):
        s = spec(seed=6, theta_star=0.25)
        X, W, Y = generate_problem(s)
        scores = X @ W
        expect = apply_threshold(scores.ravel(), 0.25).reshape(scores.shape)
        np.testing.assert_array_equal(Y, expect)

    def test_bernoulli_rate_at_zero_score(self):
        X = np.zeros((100, 2))
        W = np.ones((2, 100))
        Y = sample_labels(X, W, "bernoulli_logistic", seed=7)
        assert Y.mean() == pytest.approx(0.5, abs=0.02)

    def test_bernoulli_rate_at_large_score(self):
        X = np.full((100, 1), 10.0)
        W = np.ones((1, 100))
        Y = sample_labels(X, W, "bernoulli_logistic", seed=8)
        assert Y.mean() > 0.99

    def test_bernoulli_matches_inverse_link(self):
        rng = np.random.default_rng(9)
        t = float(rng.uniform(-2, 2))
        X = np.full((100, 1), t)
        W = np.ones((1, 100))
        Y = sample_labels(X, W, "bernoulli_logistic", seed=10)
        p = float(sigmoid(t))
        se = np.sqrt(p * (1 - p) / Y.size)
        assert abs(Y.mean() - p) <= 3 * se

    def test_gaussian_real_valued(self):
        s = spec(noise_model="gaussian", noise_sigma=0.5, seed=11)
        X, W, Y = generate_problem(s)
        resid = Y - X @ W
        assert Y.dtype == float
        assert resid.std() == pytest.approx(0.5, abs=0.05)


class TestSampleOmega:
    def test_full_coverage(self):
        rows, cols = sample_omega(4, 3, 12, OmegaDistribution.uniform(), seed=0)
        assert sorted(zip(rows.tolist(), cols.tolist())) == [
            (i, j) for i in range(4) for j in range(3)
        ]

    def test_distinct_and_exact_count(self):
        for m in (1, 17, 100):
            rows, cols = sample_omega(20, 10, m, OmegaDistribution.uniform(), seed=1)
            assert len(rows) == m
            assert len(set(zip(rows.tolist(), cols.tolist()))) == m

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            sample_omega(2, 2, 5, OmegaDistribution.uniform(), seed=0)

    def test_uniform_row_counts_balanced(self):
        rows, _ = sample_omega(100, 100, 1000, OmegaDistribution.uniform(), seed=2)
        counts = np.bincount(rows, minlength=100)
        assert counts.mean() == pytest.approx(10.0)
        assert counts.max() <= 40

    def test_deterministic(self):
        a = sample_omega(30, 30, 50, OmegaDistribution.uniform(), seed=4)
        b = sample_omega(30, 30, 50, OmegaDistribution.uniform(), seed=4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_sorted_output(self):
        rows, cols = sample_omega(30, 30, 50, OmegaDistribution.uniform(), seed=5)
        codes = rows * 30 + cols
        assert np.all(np.diff(codes) > 0)


class TestPUFlip:
    def test_rho_zero_identity(self):
        Y = np.random.default_rng(6).integers(0, 2, size=(20, 10)).astype(np.int8)
        np.testing.assert_array_equal(pu_flip(Y, 0.0, seed=0), Y)

    def test_never_creates_positives(self):
        rng = np.random.default_rng(7)
        Y = rng.integers(0, 2, size=(50, 50)).astype(np.int8)
        flipped = pu_flip(Y, 0.4, seed=1)
        assert np.all(flipped <= Y)
        np.testing.assert_array_equal(flipped[Y == 0], 0)

    def test_retention_rate(self):
        Y = np.ones((100, 100), dtype=np.int8)
        flipped = pu_flip(Y, 0.3, seed=2)
        assert flipped.mean() == pytest.approx(0.7, abs=0.02)

    def test_near_total_flipping(self):
        Y = np.ones((50, 50), dtype=np.int8)
        flipped = pu_flip(Y, 0.999, seed=3)
        assert flipped.mean() < 0.01

    def test_requires_binary(self):
        with pytest.raises(ValueError):
            pu_flip(np.array([[0.5]]), 0.1, seed=0)

    def test_rho_validation(self):
        with pytest.raises(ValueError, match="rho"):
            pu_flip(np.ones((2, 2), dtype=np.int8), 1.0, seed=0)


class TestDeterminismAcrossStreams:
    def test_problem_components_independent_of_order(self):
        s = spec(seed=42, noise_model="bernoulli_logistic")
        Y_first = sample_labels(gen_features(s), gen_lowrank_W(s), s.noise_model, s.seed)
        X = gen_features(s)
        W = gen_lowrank_W(s)
        Y_second = sample_labels(X, W, s.noise_model, s.seed)
        np.testing.assert_array_equal(Y_first, Y_second)
