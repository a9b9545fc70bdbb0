"""Seeded synthetic data generation: Gaussian features, low-rank ground
truth, the three label observation models, uniform index-set sampling,
and positive-unlabeled flipping.

Each generator derives an independent random stream from (seed, stream id),
so the pieces can be drawn in any order, or in parallel, and still
reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .losses import sigmoid

__all__ = [
    "SyntheticSpec",
    "OmegaDistribution",
    "NOISE_MODELS",
    "gen_features",
    "gen_lowrank_W",
    "sample_labels",
    "generate_problem",
    "sample_omega",
    "pu_flip",
]

NOISE_MODELS = ("noise_free_sign", "bernoulli_logistic", "gaussian")

# stream ids for seed splitting
_FEATURES, _WSTAR, _LABELS, _OMEGA, _PU = 11, 13, 17, 19, 23


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


@dataclass
class SyntheticSpec:
    """Dimensions and generating model of a synthetic problem."""

    n: int
    L: int
    d: int
    rank: int
    seed: int = 0
    noise_model: str = "noise_free_sign"
    theta_star: float = 0.0
    noise_sigma: float = 1.0
    wstar_scale: float = 1.0

    def __post_init__(self):
        if min(self.n, self.L, self.d) < 1:
            raise ValueError("dimensions must be positive")
        if not 1 <= self.rank <= min(self.d, self.L):
            raise ValueError("rank must lie in [1, min(d, L)]")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        for name in ("theta_star", "wstar_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class OmegaDistribution:
    """Sampling distribution over (row, column) index pairs; uniform is the
    one the pipeline and the paper's analysis use."""

    kind: str

    @classmethod
    def uniform(cls):
        return cls(kind="uniform")


def gen_features(spec):
    """Rows drawn iid from the standard Gaussian, identity covariance."""
    rng = _rng(spec.seed, _FEATURES)
    return rng.standard_normal((spec.n, spec.d))


def gen_lowrank_W(spec):
    """Ground-truth d x L parameter matrix of exact rank ``spec.rank``."""
    rng = _rng(spec.seed, _WSTAR)
    left = rng.standard_normal((spec.d, spec.rank))
    right = rng.standard_normal((spec.L, spec.rank))
    return spec.wstar_scale * (left @ right.T)


def sample_labels(X, W_star, noise_model, seed, theta_star=0.0, sigma=1.0):
    """Draw a full n x L label matrix from scores X @ W_star.

    noise_free_sign : y = 1 exactly where the score is >= theta_star.
    bernoulli_logistic : y ~ Bernoulli(sigmoid(score)).
    gaussian : y = score + sigma * standard normal (real-valued).
    """
    scores = np.asarray(X, dtype=float) @ np.asarray(W_star, dtype=float)
    if noise_model == "noise_free_sign":
        return (scores >= theta_star).astype(np.int8)
    if noise_model == "bernoulli_logistic":
        rng = _rng(seed, _LABELS)
        return (rng.random(scores.shape) < sigmoid(scores)).astype(np.int8)
    if noise_model == "gaussian":
        rng = _rng(seed, _LABELS)
        return scores + sigma * rng.standard_normal(scores.shape)
    raise ValueError(f"noise_model must be one of {NOISE_MODELS}")


def generate_problem(spec):
    """Convenience bundle: features, ground truth, and sampled labels."""
    X = gen_features(spec)
    W_star = gen_lowrank_W(spec)
    Y = sample_labels(
        X, W_star, spec.noise_model, spec.seed,
        theta_star=spec.theta_star, sigma=spec.noise_sigma,
    )
    return X, W_star, Y


def sample_omega(n, L, m, dist, seed):
    """Sample m distinct index pairs uniformly without replacement.

    Returns (rows, cols) sorted lexicographically. Uniform sampling without
    replacement is iid uniform sampling with duplicates rejected.
    """
    if dist.kind != "uniform":
        raise ValueError(f"unknown distribution kind {dist.kind!r}")
    total = n * L
    if not 1 <= m <= total:
        raise ValueError(f"need 1 <= m <= n*L, got m={m} for {n}x{L}")
    rng = _rng(seed, _OMEGA)
    if m == total:
        codes = np.arange(total, dtype=np.int64)
    else:
        codes = np.sort(rng.choice(total, size=m, replace=False).astype(np.int64))
    return codes // L, codes % L


def pu_flip(Y, rho, seed):
    """Flip each positive entry to 0 independently with probability rho."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    Y = np.asarray(Y)
    if not np.all((Y == 0) | (Y == 1)):
        raise ValueError("PU flipping needs a binary label matrix")
    rng = _rng(seed, _PU)
    flips = (Y == 1) & (rng.random(Y.shape) < rho)
    out = Y.astype(np.int8, copy=True)
    out[flips] = 0
    return out

