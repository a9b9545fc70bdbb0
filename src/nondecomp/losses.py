"""Strongly proper composite losses and the positive-unlabeled correction
wrapper.

Losses take labels y in {0, 1} and map them internally to the +/-1
convention their margin formulas are written in; the Gaussian likelihood
loss is the exception and consumes real-valued labels directly.

A loss is any object with a ``name`` and three methods the solvers call:
``value(t, y)``, its derivative ``grad_t(t, y)`` in the score t, and its
second derivative ``hess_t(t, y)`` (for the Newton steps). All are
vectorized over numpy arrays and accept plain scalars.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LogisticLoss",
    "SquaredLoss",
    "ExponentialLoss",
    "GaussianLoss",
    "PULossWrapper",
    "get_loss",
    "LOSS_NAMES",
    "sigmoid",
]

# exponential-loss derivatives are clamped so solvers cannot blow up
_GRAD_CLAMP = 1e6
# cap on exp() arguments, keeps values finite for extreme scores
_EXP_CAP = 700.0


def sigmoid(t):
    """Numerically stable logistic function 1 / (1 + exp(-t)).

    With e = exp(-|t|) <= 1 it is 1 / (1 + e) for t >= 0 and e / (1 + e)
    otherwise, formed as one division of the chosen numerator. exp
    underflowing to 0 is the exact limit, so that underflow is not flagged.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _signed(y):
    """Map {0, 1} labels to {-1, +1}."""
    return 2.0 * np.asarray(y, dtype=float) - 1.0


class LogisticLoss:
    """log(1 + exp(-y~ t)) with y~ = 2y - 1; the Bernoulli log-likelihood."""

    name = "logistic"

    def value(self, t, y):
        # log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)), the formula
        # np.logaddexp(0, x) evaluates, without its general two-argument path
        x = -_signed(y) * np.asarray(t, dtype=float)
        with np.errstate(under="ignore"):
            return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def grad_t(self, t, y):
        ys = _signed(y)
        return -ys * sigmoid(-ys * np.asarray(t, dtype=float))

    def hess_t(self, t, y):
        # sigmoid(t) * sigmoid(-t) = e / (1 + e)^2 with e = exp(-|t|); the
        # form s * (1 - s) cancels to 0 once sigmoid(|t|) rounds to 1
        with np.errstate(under="ignore"):
            e = np.exp(-np.abs(np.asarray(t, dtype=float)))
        return e / (1.0 + e) ** 2


class SquaredLoss:
    """Margin-form squared loss (1 - y~ t)^2 with y~ = 2y - 1."""

    name = "squared"

    def value(self, t, y):
        ys = _signed(y)
        return (1.0 - ys * np.asarray(t, dtype=float)) ** 2

    def grad_t(self, t, y):
        ys = _signed(y)
        return -2.0 * ys * (1.0 - ys * np.asarray(t, dtype=float))

    def hess_t(self, t, y):
        ys = _signed(y)
        return 2.0 * ys * ys


class ExponentialLoss:
    """exp(-y~ t) with y~ = 2y - 1; gradients clamped to +/-1e6."""

    name = "exponential"

    def value(self, t, y):
        m = -_signed(y) * np.asarray(t, dtype=float)
        return np.exp(np.minimum(m, _EXP_CAP))

    def grad_t(self, t, y):
        ys = _signed(y)
        g = -ys * np.exp(np.minimum(-ys * np.asarray(t, dtype=float), _EXP_CAP))
        return np.clip(g, -_GRAD_CLAMP, _GRAD_CLAMP)

    def hess_t(self, t, y):
        ys = _signed(y)
        h = ys * ys * np.exp(np.minimum(-ys * np.asarray(t, dtype=float), _EXP_CAP))
        return np.clip(h, 0.0, _GRAD_CLAMP)


class GaussianLoss:
    """Squared-error likelihood 0.5 (t - y)^2 for real-valued observations.

    Labels pass through unmapped; this is the loss to fit under the
    additive-noise observation model where y is a real number rather than
    a binary draw. Its gradient t - y vanishes exactly at interpolation.
    """

    name = "gaussian"

    def value(self, t, y):
        diff = np.asarray(t, dtype=float) - np.asarray(y, dtype=float)
        return 0.5 * diff * diff

    def grad_t(self, t, y):
        return np.asarray(t, dtype=float) - np.asarray(y, dtype=float)

    def hess_t(self, t, y):
        return np.ones_like(np.asarray(t, dtype=float))


class PULossWrapper:
    """Unbiased correction for one-sided label noise.

    Observed positives are a (1 - rho) thinning of the true positives and
    observed zeros are a mixture of true zeros and flipped positives. The
    corrected loss restores the clean loss in expectation over the flip
    process:

        (1 - rho) * value(t, 1) + rho * value(t, 0) == base.value(t, 1)
        value(t, 0) == base.value(t, 0)

    Gradients and curvatures use the same linear combination.
    """

    def __init__(self, base, rho):
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        self.base = base
        self.rho = float(rho)

    @property
    def name(self):
        return f"pu[{self.base.name},rho={self.rho:g}]"

    def _combine(self, fn, t, y):
        y = np.asarray(y, dtype=float)
        ones = np.ones_like(y)
        zeros = np.zeros_like(y)
        on_pos = (fn(t, ones) - self.rho * fn(t, zeros)) / (1.0 - self.rho)
        on_neg = fn(t, zeros)
        return np.where(y == 1.0, on_pos, on_neg)

    def value(self, t, y):
        return self._combine(self.base.value, t, y)

    def grad_t(self, t, y):
        return self._combine(self.base.grad_t, t, y)

    def hess_t(self, t, y):
        return self._combine(self.base.hess_t, t, y)


_LOSSES = {
    cls.name: cls for cls in (LogisticLoss, SquaredLoss, ExponentialLoss, GaussianLoss)
}
LOSS_NAMES = tuple(sorted(_LOSSES))


def get_loss(name):
    """Look up a loss by name; raises ValueError for unknown names."""
    try:
        return _LOSSES[name]()
    except KeyError:
        raise ValueError(
            f"unknown loss {name!r}; expected one of: {', '.join(LOSS_NAMES)}"
        ) from None
