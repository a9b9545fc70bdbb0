"""Strongly proper composite losses and the positive-unlabeled correction
wrapper.

Losses take labels y in {0, 1} and map them internally to the +/-1
convention their margin formulas are written in; the Gaussian likelihood
loss is the exception and consumes real-valued labels directly.

A loss is any object with the three methods the solvers call:
``value(t, y)``, its derivative ``grad_t(t, y)`` in the score t, and its
second derivative ``hess_t(t, y)`` (for the Newton steps). All are
vectorized over numpy arrays and accept plain scalars. The four base
losses also carry a ``name``, which only ``get_loss``'s registry reads.

``evaluation(loss, y)`` is the loss at labels fixed for a whole fit: a
function of the scores t that returns two functions, ``values()`` giving
``value(t, y)`` and ``grad()`` giving ``grad_t(t, y)``, each valid until
the next call. By default they call ``value`` and ``grad_t``. A loss may
provide it as a method ``bind(y)`` instead: ``LogisticLoss`` does, and its
``value``, ``grad_t`` and ``sigmoid`` run the same kernel, which forms the
+/-1 labels once and exp(-|y~ t|) once per call for both functions. A
subclass that redefines ``value`` or ``grad_t`` gets ``bind = None``, so
it is evaluated through them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LogisticLoss",
    "SquaredLoss",
    "ExponentialLoss",
    "GaussianLoss",
    "PULossWrapper",
    "evaluation",
    "get_loss",
    "LOSS_NAMES",
    "sigmoid",
]

# exponential-loss derivatives are clamped so solvers cannot blow up
_GRAD_CLAMP = 1e6
# cap on exp() arguments, keeps values finite for extreme scores
_EXP_CAP = 700.0


def sigmoid(t):
    """Numerically stable logistic function 1 / (1 + exp(-t)): the logistic
    loss's derivative at label 0, formed by its kernel (``_bind``) with
    e = exp(-|t|) <= 1. exp underflowing to 0 is the exact limit, so that
    underflow is not flagged.
    """
    return _evaluated(t, 0.0)[1]()[()]


def _signed(y):
    """Map {0, 1} labels to {-1, +1}."""
    return 2.0 * np.asarray(y, dtype=float) - 1.0


def _bind(y):
    """The logistic loss at labels y: a function of the scores t, of the
    shape of y, returning (values, grad). It forms x = -y~ t and
    e = exp(-|x|) into buffers that the next call overwrites; values() and
    grad() read them, so both are valid until that call."""
    nys = -_signed(y)
    x, e, vals, work = (np.empty(nys.shape) for _ in range(4))

    def evaluate(t):
        np.multiply(nys, t, out=x)
        np.negative(np.abs(x, out=e), out=e)
        with np.errstate(under="ignore"):
            np.exp(e, out=e)
        return values, grad

    def values():
        # log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)), the formula
        # np.logaddexp(0, x) evaluates, without its general two-argument path
        np.maximum(x, 0.0, out=vals)
        with np.errstate(under="ignore"):
            np.log1p(e, out=work)
        return np.add(vals, work, out=vals)

    def grad():
        # -y~ sigmoid(x); sigmoid(x) is 1 / (1 + e) for x >= 0 and e / (1 + e)
        # otherwise, one division of the chosen numerator. As 0 <= e <= 1
        # that numerator is max(e, [x >= 0]), with no branch per entry
        out = np.maximum(e, x >= 0, out=np.empty(nys.shape))
        np.divide(out, np.add(1.0, e, out=work), out=out)
        return np.multiply(nys, out, out=out)

    return evaluate


def _evaluated(t, y):
    """``_bind`` at labels y broadcast against the scores t, evaluated at t."""
    return _bind(np.broadcast_arrays(t, y)[1])(t)


class LogisticLoss:
    """log(1 + exp(-y~ t)) with y~ = 2y - 1; the Bernoulli log-likelihood."""

    name = "logistic"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # ``bind`` computes value and grad_t from the kernel, not through them
        if ("value" in vars(cls) or "grad_t" in vars(cls)) and "bind" not in vars(cls):
            cls.bind = None

    def value(self, t, y):
        return _evaluated(t, y)[0]()[()]

    def grad_t(self, t, y):
        return _evaluated(t, y)[1]()[()]

    def hess_t(self, t, y):
        # sigmoid(t) * sigmoid(-t) = e / (1 + e)^2 with e = exp(-|t|); the
        # form s * (1 - s) cancels to 0 once sigmoid(|t|) rounds to 1
        with np.errstate(under="ignore"):
            e = np.exp(-np.abs(np.asarray(t, dtype=float)))
        return e / (1.0 + e) ** 2

    def bind(self, y):
        return _bind(y)


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

    def _combine(self, fn, t, y):
        y = np.asarray(y, dtype=float)
        on_neg = fn(t, np.zeros_like(y))
        on_pos = (fn(t, np.ones_like(y)) - self.rho * on_neg) / (1.0 - self.rho)
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


def evaluation(loss, y):
    """``loss`` at labels y fixed for a fit: a function of the scores t that
    returns (values, grad), where values() gives value(t, y) and grad()
    gives grad_t(t, y). Both may read buffers that the next call
    overwrites, so each is to be used before the next call.
    ``loss.bind(y)`` provides it where the loss has that method; otherwise
    value and grad_t are called."""
    bind = getattr(loss, "bind", None)
    if bind is not None:
        return bind(y)
    return lambda t: (lambda: loss.value(t, y), lambda: loss.grad_t(t, y))


def get_loss(name):
    """Look up a loss by name; raises ValueError for unknown names."""
    try:
        return _LOSSES[name]()
    except KeyError:
        raise ValueError(
            f"unknown loss {name!r}; expected one of: {', '.join(LOSS_NAMES)}"
        ) from None
