import math

import numpy as np
import pytest

from nondecomp.losses import (
    LOSS_NAMES,
    LogisticLoss,
    PULossWrapper,
    evaluation,
    get_loss,
    sigmoid,
)

ALL = [get_loss(name) for name in LOSS_NAMES]
BINARY = [get_loss(name) for name in ("logistic", "squared", "exponential")]


def central_diff(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2 * h)


def minimize_scalar(fn, lo=-20.0, hi=20.0, iters=200):
    """Ternary search on a convex scalar function."""
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if fn(m1) < fn(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2


class TestValues:
    def test_logistic_symmetric_point(self):
        loss = get_loss("logistic")
        assert loss.value(0.0, 1) == pytest.approx(math.log(2))
        assert loss.value(0.0, 0) == pytest.approx(math.log(2))

    def test_logistic_at_one(self):
        loss = get_loss("logistic")
        assert loss.value(1.0, 1) == pytest.approx(math.log(1 + math.exp(-1)))

    def test_squared_exact_fit(self):
        assert get_loss("squared").value(1.0, 1) == 0.0
        assert get_loss("squared").value(-1.0, 0) == 0.0

    def test_exponential(self):
        assert get_loss("exponential").value(2.0, 1) == pytest.approx(math.exp(-2))

    def test_gaussian_interpolation(self):
        assert get_loss("gaussian").value(0.7, 0.7) == 0.0

    def test_logistic_no_overflow(self):
        loss = get_loss("logistic")
        for t in (-700.0, 700.0):
            for y in (0, 1):
                assert np.isfinite(loss.value(t, y))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown loss"):
            get_loss("hinge")


class TestGradients:
    def test_logistic_at_zero(self):
        loss = get_loss("logistic")
        assert loss.grad_t(0.0, 1) == pytest.approx(-0.5)
        assert loss.grad_t(0.0, 0) == pytest.approx(0.5)

    def test_squared_stationary_at_margin(self):
        loss = get_loss("squared")
        assert loss.grad_t(1.0, 1) == 0.0
        assert loss.grad_t(-1.0, 0) == 0.0

    @pytest.mark.parametrize("loss", ALL, ids=lambda l: l.name)
    def test_matches_finite_differences(self, loss):
        rng = np.random.default_rng(0)
        for _ in range(250):
            t = float(rng.uniform(-5, 5))
            y = int(rng.integers(0, 2))
            g = float(loss.grad_t(t, y))
            fd = central_diff(lambda tt: float(loss.value(tt, y)), t)
            assert abs(g - fd) / (1.0 + abs(g)) < 1e-5

    def test_exponential_grad_clamped(self):
        loss = get_loss("exponential")
        assert abs(float(loss.grad_t(-800.0, 1))) <= 1e6


class TestLinks:
    # score minimizing the conditional risk eta * value(t, 1) + (1 - eta) * value(t, 0)
    MINIMIZER = {
        "logistic": lambda eta: math.log(eta / (1 - eta)),
        "squared": lambda eta: 2 * eta - 1,
        "exponential": lambda eta: 0.5 * math.log(eta / (1 - eta)),
        "gaussian": lambda eta: eta,
    }

    @pytest.mark.parametrize("loss", BINARY + [get_loss("gaussian")], ids=lambda l: l.name)
    def test_conditional_risk_minimized_at_link(self, loss):
        for eta in (0.2, 0.5, 0.65, 0.9):
            def risk(t):
                return eta * float(loss.value(t, 1)) + (1 - eta) * float(loss.value(t, 0))

            t_star = minimize_scalar(risk)
            assert t_star == pytest.approx(self.MINIMIZER[loss.name](eta), abs=1e-6)


class TestPUWrapper:
    def test_rho_zero_is_identity(self):
        base = get_loss("logistic")
        wrapped = PULossWrapper(base, 0.0)
        for t in (-2.0, 0.0, 3.0):
            for y in (0, 1):
                assert float(wrapped.value(t, y)) == pytest.approx(float(base.value(t, y)))
                assert float(wrapped.grad_t(t, y)) == pytest.approx(float(base.grad_t(t, y)))

    def test_half_rho_logistic_at_zero(self):
        wrapped = PULossWrapper(get_loss("logistic"), 0.5)
        assert float(wrapped.value(0.0, 1)) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("base", ALL, ids=lambda l: l.name)
    def test_unbiasedness_identity(self, base):
        ts = np.linspace(-5, 5, 21)
        for rho in np.arange(0.0, 0.95, 0.1):
            wrapped = PULossWrapper(base, rho)
            lhs = (1 - rho) * np.asarray(wrapped.value(ts, 1)) + rho * np.asarray(
                wrapped.value(ts, 0)
            )
            np.testing.assert_allclose(lhs, np.asarray(base.value(ts, 1)), atol=1e-12)
            np.testing.assert_allclose(
                np.asarray(wrapped.value(ts, 0)), np.asarray(base.value(ts, 0)), atol=0
            )

    def test_gradient_same_combination(self):
        base = get_loss("logistic")
        wrapped = PULossWrapper(base, 0.3)
        t = 1.3
        expect = (float(base.grad_t(t, 1)) - 0.3 * float(base.grad_t(t, 0))) / 0.7
        assert float(wrapped.grad_t(t, 1)) == pytest.approx(expect, abs=1e-15)

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            PULossWrapper(get_loss("logistic"), 1.0)
        with pytest.raises(ValueError):
            PULossWrapper(get_loss("logistic"), -0.1)


def reference_sigmoid(t):
    """The two-branch logistic function, each branch divided out in full."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def ulps_apart(a, b):
    """Distance between a and b in units of the spacing of doubles at b."""
    return np.abs(a - b) / np.spacing(np.abs(b))


KERNEL_ARGS = np.concatenate((
    [0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0, 1e308, -1e308],
    np.random.default_rng(0).normal(scale=20.0, size=2000),
))


class TestLogisticKernels:
    """The logistic kernels against the textbook formulas, to a few ulps."""

    @pytest.mark.parametrize("y", [0, 1])
    def test_value_grad_hess_match_reference(self, y):
        loss = get_loss("logistic")
        t, ys = KERNEL_ARGS, 2.0 * y - 1.0
        labels = np.full_like(t, y)
        with np.errstate(all="raise"):
            got = (loss.value(t, labels), loss.grad_t(t, labels), loss.hess_t(t, labels))
        with np.errstate(under="ignore"):
            hess = reference_sigmoid(t) * reference_sigmoid(-t)
            want = (np.logaddexp(0.0, -ys * t), -ys * reference_sigmoid(-ys * t), hess)
        for g, w in zip(got, want):
            assert np.all(np.isfinite(g))
            assert ulps_apart(g, w).max() <= 4.0

    def test_hess_keeps_its_tail(self):
        # s * (1 - s) rounds to 0 from t = 37; the curvature is about exp(-|t|)
        t = np.array([37.0, 40.0, -37.0, -40.0])
        got = get_loss("logistic").hess_t(t, np.ones_like(t))
        assert np.all(got > 0)
        assert np.allclose(got, np.exp(-np.abs(t)), rtol=1e-15)

    def test_sigmoid_matches_reference(self):
        with np.errstate(all="raise"):
            got = sigmoid(KERNEL_ARGS)
        with np.errstate(under="ignore"):
            want = reference_sigmoid(KERNEL_ARGS)
        assert ulps_apart(got, want).max() <= 4.0
        assert float(sigmoid(0.0)) == 0.5


def separate_value(t, y):
    """The logistic value as its own formula, forming its own exponential."""
    x = -(2.0 * np.asarray(y, dtype=float) - 1.0) * np.asarray(t, dtype=float)
    with np.errstate(under="ignore"):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def separate_grad_t(t, y):
    """The logistic derivative as its own formula: -y~ sigmoid(-y~ t), the
    sigmoid one division of the numerator chosen by np.where."""
    ys = 2.0 * np.asarray(y, dtype=float) - 1.0
    u = -ys * np.asarray(t, dtype=float)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(u))
    return -ys * (np.where(u >= 0, 1.0, e) / (1.0 + e))


LABELS = {
    "zeros": np.zeros_like(KERNEL_ARGS),
    "ones": np.ones_like(KERNEL_ARGS),
    "mixed": np.random.default_rng(1).integers(0, 2, size=KERNEL_ARGS.size).astype(float),
}


class TestLogisticEvaluation:
    """The fused logistic kernel gives the bits of the separate formulas."""

    @pytest.mark.parametrize("labels", sorted(LABELS))
    def test_bound_evaluation_matches_separate_formulas(self, labels):
        t, y = KERNEL_ARGS, LABELS[labels]
        loss = LogisticLoss()
        evaluate = evaluation(loss, y)
        with np.errstate(all="raise"):
            # a first call at other scores must leave nothing behind
            evaluate(-t)
            values, grad = evaluate(t)
            fused = (values().copy(), grad())
            plain = (loss.value(t, y), loss.grad_t(t, y))
        want = (separate_value(t, y), separate_grad_t(t, y))
        for got in (fused, plain):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_scalars_and_broadcast_labels(self):
        loss = LogisticLoss()
        for y in (0, 1):
            assert loss.value(0.7, y) == separate_value(0.7, y)
            assert loss.grad_t(-0.7, y) == separate_grad_t(-0.7, y)
            assert np.array_equal(loss.value(KERNEL_ARGS, y), separate_value(KERNEL_ARGS, y))
        assert isinstance(loss.value(0.7, 1), float)
        # sigmoid(t) is the derivative at label 0
        with np.errstate(all="raise"):
            assert np.array_equal(sigmoid(KERNEL_ARGS), separate_grad_t(KERNEL_ARGS, 0))

    def test_other_losses_take_the_default(self):
        t, y = KERNEL_ARGS[9:], LABELS["mixed"][9:]
        for loss in (get_loss("squared"), PULossWrapper(LogisticLoss(), 0.3)):
            values, grad = evaluation(loss, y)(t)
            assert np.array_equal(values(), loss.value(t, y))
            assert np.array_equal(grad(), loss.grad_t(t, y))

    def test_subclass_redefining_value_takes_the_default(self):
        class Doubled(LogisticLoss):
            def value(self, t, y):
                return 2.0 * super().value(t, y)

        t, y = KERNEL_ARGS, LABELS["mixed"]
        assert Doubled.bind is None and LogisticLoss.bind is not None
        values, _ = evaluation(Doubled(), y)(t)
        assert np.array_equal(values(), 2.0 * separate_value(t, y))

    @pytest.mark.parametrize("labels", sorted(LABELS))
    def test_grad_before_values_gives_the_same_bits(self, labels):
        t, y = KERNEL_ARGS, LABELS[labels]
        evaluate = LogisticLoss().bind(y)
        want = (separate_value(t, y), separate_grad_t(t, y))
        with np.errstate(all="raise"):
            values, grad = evaluate(t)
            first = grad().copy()
            got = (values(), first, grad())
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[1])

    def test_scalar_score_with_array_labels(self):
        loss, y = LogisticLoss(), LABELS["mixed"]
        for t in (0.7, -30.0):
            value, grad = loss.value(t, y), loss.grad_t(t, y)
            assert value.shape == grad.shape == y.shape
            assert np.array_equal(value, separate_value(np.full_like(y, t), y))
            assert np.array_equal(grad, separate_grad_t(np.full_like(y, t), y))

    def test_grad_t_and_sigmoid_form_no_value(self, monkeypatch):
        t, y = KERNEL_ARGS, LABELS["mixed"]
        want = (separate_grad_t(t, y), separate_grad_t(t, 0))

        def no_value(*args, **kwargs):
            raise AssertionError("the loss value was formed")

        monkeypatch.setattr(np, "log1p", no_value)
        got = (LogisticLoss().grad_t(t, y), sigmoid(t))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        with pytest.raises(AssertionError, match="value was formed"):
            LogisticLoss().value(t, y)


class TestStableHelpers:
    def test_sigmoid_extremes(self):
        assert float(sigmoid(800.0)) == 1.0
        assert float(sigmoid(-800.0)) == 0.0
