import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nondecomp.estimator import (
    DenseModel,
    FactoredModel,
    NumericalError,
    ObservationSet,
    SolverConfig,
    _cg_solve,
    _factored_objective,
    _first_trial,
    _newton_step,
    _solve_blocks,
    _spectral_start,
    default_lambda,
    fit_alt_min,
    fit_plugin_baseline,
    fit_prox_grad,
    grad_empirical,
    nuclear_norm,
    objective,
    predict_scores,
    prox_nuclear,
    recovery_error,
)
from nondecomp.losses import LogisticLoss, PULossWrapper, get_loss, sigmoid


def random_instance(rng, n, d, L, frac=0.7, loss="logistic"):
    X = rng.normal(size=(n, d))
    W = rng.normal(size=(d, L))
    m = max(1, int(frac * n * L))
    codes = rng.choice(n * L, size=m, replace=False)
    rows, cols = codes // L, codes % L
    if loss == "gaussian":
        values = (X @ W)[rows, cols] + rng.normal(size=m)
    else:
        values = rng.integers(0, 2, size=m).astype(float)
    return X, ObservationSet(n, L, rows, cols, values)


def plugin_reference(X, obs, ridge):
    """fit_plugin_baseline's damped Newton fit, from W = 0 with the same
    step, search and stop rule, but with each label's Hessian block summed
    in float64 over that label's own entries and solved on its own.
    Returns (W, objective trace, stop reason)."""
    loss = LogisticLoss()
    n, d = X.shape
    y = obs.values
    weight = 1.0 / np.bincount(obs.cols, minlength=obs.L)[obs.cols]

    def scores(W):
        return (X @ W)[obs.rows, obs.cols]

    def fval(W):
        return float(np.sum(weight * loss.value(scores(W), y))) + 0.5 * ridge * float(np.sum(W * W))

    W = np.zeros((d, obs.L))
    F = fval(W)
    trace = [F]
    for _ in range(50):
        t = scores(W)
        U = np.zeros((n, obs.L))
        U[obs.rows, obs.cols] = weight * loss.grad_t(t, y)
        G = X.T @ U + ridge * W
        W_new, F_new = W, F
        if np.linalg.norm(G) >= 1e-10:
            h = weight * loss.hess_t(t, y)
            D = np.empty_like(G)
            for j in range(obs.L):
                mine = obs.cols == j
                A = X[obs.rows[mine]]
                block = A.T @ (h[mine, None] * A) + (ridge + 1e-12) * np.eye(d)
                D[:, j] = np.linalg.solve(block, G[:, j])
            slope = float(np.vdot(G, D))
            if slope <= 0.0:
                D, slope = G, float(np.vdot(G, G))
            step = 1.0
            while True:
                if step <= 1e-12:
                    return W, trace, "line_search"
                W_new = W - step * D
                F_new = fval(W_new)
                if F_new <= F - 1e-4 * step * slope:
                    break
                step *= 0.5
        trace.append(F_new)
        if abs(F - F_new) <= 1e-14 * max(1.0, F):
            return W_new, trace, "rel_tol"
        W, F = W_new, F_new
    return W, trace, "max_iters"


def pu_runaway_problem():
    """Fully observed noise-free labels thinned for PU at rho = 0.3: the
    PU-corrected risk on them is unbounded below."""
    from nondecomp.sampler import SyntheticSpec, generate_problem, pu_flip

    spec = SyntheticSpec(n=100, L=12, d=4, rank=2, seed=0, noise_model="noise_free_sign")
    X, _, Y = generate_problem(spec)
    n, L = Y.shape
    rows = np.repeat(np.arange(n), L)
    cols = np.tile(np.arange(L), n)
    return X, ObservationSet(n, L, rows, cols, pu_flip(Y, 0.3, seed=0).ravel())


@st.composite
def observation_triples(draw):
    """Shape (n, L) and distinct in-range (row, col) cells with finite values."""
    n = draw(st.integers(1, 6))
    L = draw(st.integers(1, 6))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, L - 1)),
        min_size=1, max_size=n * L, unique=True,
    ))
    values = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=len(cells), max_size=len(cells),
    ))
    rows, cols = (list(axis) for axis in zip(*cells))
    return n, L, rows, cols, values


class TestObservationSet:
    @settings(max_examples=25)
    @given(case=observation_triples())
    def test_accepts_distinct_in_range_finite(self, case):
        n, L, rows, cols, values = case
        obs = ObservationSet(n, L, rows, cols, values)
        assert (obs.n, obs.L, obs.size) == (n, L, len(rows))
        assert obs.rows.tolist() == rows and obs.cols.tolist() == cols
        assert obs.values.tolist() == values
        # the flat index picks the same entries as the (row, col) pairs
        Z = np.arange(n * L, dtype=float).reshape(n, L)
        assert Z.ravel()[obs.flat].tolist() == Z[rows, cols].tolist()

    @settings(max_examples=25)
    @given(case=observation_triples(), data=st.data())
    def test_rejects_any_duplicate(self, case, data):
        n, L, rows, cols, values = case
        i = data.draw(st.integers(0, len(rows) - 1))
        with pytest.raises(ValueError, match="duplicate"):
            ObservationSet(n, L, rows + [rows[i]], cols + [cols[i]], values + [0.0])

    @settings(max_examples=25)
    @given(case=observation_triples(), data=st.data())
    def test_rejects_any_out_of_range_index(self, case, data):
        n, L, rows, cols, values = case
        i = data.draw(st.integers(0, len(rows) - 1))
        axis, size = data.draw(st.sampled_from([(rows, n), (cols, L)]))
        axis[i] = data.draw(st.one_of(st.integers(-10, -1), st.integers(size, size + 10)))
        with pytest.raises(ValueError, match="out of range"):
            ObservationSet(n, L, rows, cols, values)

    @settings(max_examples=25)
    @given(case=observation_triples(), data=st.data())
    def test_rejects_any_nonfinite_value(self, case, data):
        n, L, rows, cols, values = case
        i = data.draw(st.integers(0, len(rows) - 1))
        values[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(n, L, rows, cols, values)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ObservationSet(2, 2, [0, 0], [1, 1], [1.0, 0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ObservationSet(2, 2, [0, 2], [0, 0], [1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ObservationSet(2, 2, [], [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(2, 2, [0, 1], [0, 1], [1.0, bad])


class TestDampedNewton:
    def test_uphill_newton_direction_falls_back_to_gradient(self):
        # f = a^4/4 - a^2/2 + b^2 curves downward along a at a = 0.5, where
        # the Newton direction H^-1 g has a negative slope g . d
        def fval(w):
            return w[0] ** 4 / 4 - w[0] ** 2 / 2 + w[1] ** 2

        def linearize(w):
            g = np.array([w[0] ** 3 - w[0], 2.0 * w[1]])
            H = np.diag([3.0 * w[0] ** 2 - 1.0, 2.0])
            return g, lambda g: np.linalg.solve(H, g)

        w0 = np.array([0.5, 0.01])
        g0, newton_direction = linearize(w0)
        assert np.vdot(g0, newton_direction(g0)) < 0.0
        w, f = _newton_step(fval, linearize, gtol=1e-10)(w0, fval(w0))
        step = (w0 - w) / g0
        assert step[0] > 0.0 and step[0] == pytest.approx(step[1], rel=1e-12)
        assert f == fval(w) < fval(w0)


    @pytest.mark.parametrize("fit", ["plugin", "alt_min"])
    def test_linearization_reads_the_accepted_trials_scores(self, fit, monkeypatch):
        # the line search's last evaluation is of the trial it accepts; the
        # next step's derivatives must read those very scores, not scores
        # formed again from the same iterate
        import nondecomp.estimator as estimator

        calls = []

        class Recording(LogisticLoss):
            def value(self, t, y):
                calls.append(("value", t))
                return super().value(t, y)

            def grad_t(self, t, y):
                calls.append(("grad_t", t))
                return super().grad_t(t, y)

        rng = np.random.default_rng(27)
        X, obs = random_instance(rng, 40, 4, 6, frac=0.5)
        if fit == "plugin":
            monkeypatch.setattr(estimator, "LogisticLoss", Recording)
            report = fit_plugin_baseline(X, obs, ridge=1e-3)[1]
        else:
            report = fit_alt_min(X, obs, SolverConfig(loss=Recording(), max_iters=20), 2)[1]
        assert report.iterations >= 2
        evaluated = None
        linearized = 0
        for kind, t in calls:
            if kind == "value":
                evaluated = t
            elif evaluated is not None:
                # alt_min's spectral start takes derivatives at 0 before
                # any evaluation
                assert t is evaluated
                linearized += 1
        assert linearized >= report.iterations


class TestConjugateGradient:
    @staticmethod
    def operator(seed, lam):
        # a positive definite operator on 6 x 2 matrices: M M^T + lam I
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(12, 12))
        H = M @ M.T + lam * np.eye(12)
        return lambda S: (H @ S.ravel()).reshape(S.shape), H, rng.normal(size=(6, 2))

    @pytest.mark.parametrize("e", [-900, -60, -1, 1, 5, 333, 900])
    def test_power_of_two_scaling_is_exact(self, e):
        # the solve is run on B scaled into [0.5, 1) by a power of two and
        # scaled back, so a run on 2^e B is the run on B times 2^e, bit for
        # bit; at 2^900 the unscaled squared norms would overflow
        matvec, _, B = self.operator(61, 1.0)
        S = _cg_solve(matvec, B, 1e-6)
        assert np.array_equal(_cg_solve(matvec, np.ldexp(B, e), 1e-6), np.ldexp(S, e))

    def test_huge_damping_solves_without_overflow(self):
        # lam = 1e150 puts squared curvatures near 1e300 and beyond
        matvec, H, B = self.operator(62, 1e150)
        B = B * 1e150
        S = _cg_solve(matvec, B, 1e-10)
        np.testing.assert_allclose(H @ S.ravel(), B.ravel(), rtol=1e-9)


class TestNonfiniteFeatures:
    FITS = {
        "prox_grad": lambda X, obs: fit_prox_grad(X, obs, SolverConfig(lambda_reg=0.1)),
        "alt_min": lambda X, obs: fit_alt_min(X, obs, SolverConfig(lambda_reg=0.1), k=1),
        "plugin": lambda X, obs: fit_plugin_baseline(X, obs, ridge=1e-3),
    }

    @pytest.mark.parametrize("solver", sorted(FITS))
    def test_fit_rejects_nonfinite_X(self, solver):
        X, obs = random_instance(np.random.default_rng(12), 6, 3, 4)
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="X entries must be finite"):
            self.FITS[solver](X, obs)


class TestObjective:
    def test_zero_matrix_logistic(self):
        rng = np.random.default_rng(0)
        X, obs = random_instance(rng, 6, 3, 4)
        cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=3.7)
        W = np.zeros((3, 4))
        assert objective(X, obs, W, cfg) == pytest.approx(math.log(2))

    def test_lambda_zero_is_pure_risk(self):
        rng = np.random.default_rng(1)
        X, obs = random_instance(rng, 5, 3, 3)
        W = rng.normal(size=(3, 3))
        cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=0.0)
        t = (X @ W)[obs.rows, obs.cols]
        expect = float(np.mean(np.logaddexp(0.0, -(2 * obs.values - 1) * t)))
        assert objective(X, obs, W, cfg) == pytest.approx(expect, rel=1e-12)

    def test_matches_entrywise_reference(self):
        # 2x2 instance checked scalar by scalar
        X = np.array([[1.0, 0.5], [-0.3, 2.0]])
        W = np.array([[0.2, -1.0], [0.7, 0.1]])
        obs = ObservationSet(2, 2, [0, 0, 1], [0, 1, 1], [1.0, 0.0, 1.0])
        lam = 0.05
        cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=lam)
        total = 0.0
        for i, j, y in [(0, 0, 1.0), (0, 1, 0.0), (1, 1, 1.0)]:
            t = X[i] @ W[:, j]
            total += math.log(1 + math.exp(-(2 * y - 1) * t))
        expect = total / 3 + lam * nuclear_norm(W)
        assert objective(X, obs, W, cfg) == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        X, obs = random_instance(rng, 4, 3, 3)
        cfg = SolverConfig()
        with pytest.raises(ValueError):
            objective(X, obs, np.zeros((2, 3)), cfg)


class TestGradEmpirical:
    def test_single_observation_identity_features(self):
        X = np.eye(3)
        W = np.array([[0.5, 0.0], [0.0, -1.0], [0.3, 0.2]])
        obs = ObservationSet(3, 2, [1], [1], [0.0])
        G = grad_empirical(X, obs, W, get_loss("logistic"))
        expect = np.zeros((3, 2))
        expect[1, 1] = float(sigmoid(W[1, 1])) - 0.0
        np.testing.assert_allclose(G, expect, atol=1e-15)

    @pytest.mark.parametrize("loss_name", ["logistic", "squared"])
    def test_matches_finite_differences(self, loss_name):
        rng = np.random.default_rng(3)
        loss = get_loss(loss_name)
        for _ in range(10):
            n, d, L = rng.integers(3, 8), rng.integers(2, 6), rng.integers(2, 5)
            X, obs = random_instance(rng, int(n), int(d), int(L))
            W = rng.normal(size=(int(d), int(L)))
            G = grad_empirical(X, obs, W, loss)
            h = 1e-6
            for _ in range(5):
                a, b = rng.integers(0, d), rng.integers(0, L)
                Wp, Wm = W.copy(), W.copy()
                Wp[a, b] += h
                Wm[a, b] -= h
                def risk(Wm_):
                    t = (X @ Wm_)[obs.rows, obs.cols]
                    return float(np.mean(loss.value(t, obs.values)))
                fd = (risk(Wp) - risk(Wm)) / (2 * h)
                assert abs(G[a, b] - fd) / (1 + abs(fd)) < 1e-5

    def test_zero_at_interpolation_gaussian(self):
        # real-valued labels realized exactly by the true parameters
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 3))
        W = rng.normal(size=(3, 4))
        rows = np.repeat(np.arange(8), 4)
        cols = np.tile(np.arange(4), 8)
        obs = ObservationSet(8, 4, rows, cols, (X @ W)[rows, cols])
        G = grad_empirical(X, obs, W, get_loss("gaussian"))
        np.testing.assert_allclose(G, 0.0, atol=1e-12)


class TestProxNuclear:
    def test_tau_zero_identity(self):
        A = np.random.default_rng(5).normal(size=(4, 3))
        np.testing.assert_allclose(prox_nuclear(A, 0.0), A, atol=1e-12)

    def test_tau_above_spectral_norm_zeroes(self):
        A = np.random.default_rng(6).normal(size=(4, 3))
        tau = float(np.linalg.svd(A, compute_uv=False)[0]) + 0.1
        np.testing.assert_allclose(prox_nuclear(A, tau), 0.0, atol=1e-12)

    def test_diagonal_closed_form(self):
        A = np.diag([3.0, 1.0])
        np.testing.assert_allclose(prox_nuclear(A, 1.0), np.diag([2.0, 0.0]), atol=1e-12)

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.normal(size=(rng.integers(2, 7), rng.integers(2, 7)))
            tau = float(rng.uniform(0.01, 2.0))
            B = prox_nuclear(A, tau)
            val = 0.5 * np.sum((B - A) ** 2) + tau * nuclear_norm(B)
            for _ in range(20):
                Bp = B + rng.normal(size=B.shape) * rng.uniform(1e-4, 0.5)
                val_p = 0.5 * np.sum((Bp - A) ** 2) + tau * nuclear_norm(Bp)
                assert val <= val_p + 1e-10


class TestFitProxGrad:
    def test_huge_lambda_gives_zero(self):
        rng = np.random.default_rng(8)
        X, obs = random_instance(rng, 10, 4, 5)
        cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=50.0, max_iters=50)
        model, report = fit_prox_grad(X, obs, cfg)
        np.testing.assert_allclose(model.W, 0.0, atol=1e-12)
        assert report.final_rank == 0
        assert report.stop_reason == "rel_tol" and report.converged
        # with a gradient that points uphill and is a billion times too
        # large, no trial passes the majorization before the unit step
        # has halved below the backtracking floor
        class SteepLogistic(LogisticLoss):
            def grad_t(self, t, y):
                return -1e9 * super().grad_t(t, y)

        for lam in (0.01, 1.0, 50.0):
            cfg = SolverConfig(loss=SteepLogistic(), lambda_reg=lam)
            _, report = fit_prox_grad(X, obs, cfg)
            assert report.stop_reason == "line_search" and report.iterations == 0
            assert not report.converged
        cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=0.01, max_iters=2)
        _, report = fit_prox_grad(X, obs, cfg)
        assert report.stop_reason == "max_iters" and report.iterations == 2
        assert not report.converged

    def test_trace_nonincreasing(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            X, obs = random_instance(rng, 8, 3, 4)
            cfg = SolverConfig(loss=get_loss("logistic"), max_iters=40)
            _, report = fit_prox_grad(X, obs, cfg)
            trace = np.asarray(report.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    @pytest.mark.parametrize("mode", ["param_norm", "score_norm"])
    def test_trace_ends_at_the_recomputed_objective(self, mode):
        # the loop reuses each accepted trial's scores and takes the penalty
        # from the singular values its prox kept; both must agree with the
        # objective evaluated from scratch at the returned W
        rng = np.random.default_rng(21)
        X, obs = random_instance(rng, 40, 5, 8)
        cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=0.005,
                           regularizer_mode=mode, max_iters=200, rel_tol=1e-9)
        model, report = fit_prox_grad(X, obs, cfg)
        assert report.iterations > 5
        assert report.objective_trace[-1] == pytest.approx(
            objective(X, obs, model.W, cfg), rel=1e-12
        )
        assert np.all(np.diff(report.objective_trace) <= 0.0)

    @pytest.mark.parametrize("mode", ["param_norm", "score_norm"])
    def test_step_kept_without_positive_curvature(self, mode):
        # a gradient frozen at t = 0 gives y = 0 between iterates, so the
        # Barzilai-Borwein ratio <s, s> / <s, y> has a zero denominator;
        # the fit must keep its previous step instead, and never divide by it
        class FrozenLogistic(LogisticLoss):
            def grad_t(self, t, y):
                return super().grad_t(np.zeros_like(t), y)

        X, obs = random_instance(np.random.default_rng(8), 10, 4, 5)
        cfg = SolverConfig(loss=FrozenLogistic(), lambda_reg=0.01, regularizer_mode=mode)
        with np.errstate(divide="raise", invalid="raise"):
            model, report = fit_prox_grad(X, obs, cfg)
        assert report.iterations >= 2
        assert np.all(np.isfinite(model.W))
        assert np.all(np.diff(report.objective_trace) <= 1e-10)

    @pytest.mark.parametrize("mode", ["param_norm", "score_norm"])
    def test_pu_runaway_objective_is_not_converged(self, mode):
        # the prox_grad counterpart of TestFitAltMin's run-away case
        X, obs = pu_runaway_problem()
        cfg = SolverConfig(loss=PULossWrapper(LogisticLoss(), 0.3), lambda_reg=1e-4,
                           regularizer_mode=mode, max_iters=300, seed=0)
        _, report = fit_prox_grad(X, obs, cfg)
        assert report.objective_trace[-1] < 0.0
        assert report.stop_reason == "negative_objective" and not report.converged

    def test_nuclear_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(10)
        X, obs = random_instance(rng, 12, 4, 6)
        norms = []
        for lam in (0.001, 0.01, 0.05, 0.2, 1.0):
            cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=lam, max_iters=300, rel_tol=1e-9)
            model, _ = fit_prox_grad(X, obs, cfg)
            norms.append(nuclear_norm(model.W))
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-8)

    def test_recovery_beats_shrink_to_zero_noise_free(self):
        # sign-thresholded labels carry no scale information, so exact
        # parameter recovery is capped; the fit must still be several times
        # closer to the truth than the huge-lambda (all-zeros) solution
        from nondecomp.sampler import OmegaDistribution, SyntheticSpec, generate_problem
        from nondecomp.dataset_io import mask_observations

        spec = SyntheticSpec(n=1000, L=100, d=10, rank=5, seed=0,
                             noise_model="noise_free_sign")
        X, W_star, Y = generate_problem(spec)
        obs = mask_observations(Y, 0.5, OmegaDistribution.uniform(), seed=0)
        cfg = SolverConfig(loss=get_loss("logistic"), seed=0, max_iters=400,
                           rel_tol=1e-8, lambda_c=0.05)
        model, _ = fit_prox_grad(X, obs, cfg)
        err = recovery_error(model.W, W_star)
        baseline = recovery_error(np.zeros_like(W_star), W_star)
        assert err * 3.0 < baseline

    def test_recovery_beats_shrink_to_zero_bernoulli_tenfold(self):
        # with probabilistic labels the likelihood pins the scale too, and
        # the fit lands an order of magnitude below the all-zeros baseline
        from nondecomp.sampler import OmegaDistribution, SyntheticSpec, generate_problem
        from nondecomp.dataset_io import mask_observations

        spec = SyntheticSpec(n=300, L=60, d=12, rank=3, seed=0,
                             noise_model="bernoulli_logistic", wstar_scale=0.33)
        X, W_star, Y = generate_problem(spec)
        obs = mask_observations(Y, 0.5, OmegaDistribution.uniform(), seed=0)
        cfg = SolverConfig(loss=get_loss("logistic"), seed=0, max_iters=600,
                           rel_tol=1e-8, lambda_c=0.05)
        model, _ = fit_prox_grad(X, obs, cfg)
        err = recovery_error(model.W, W_star)
        baseline = recovery_error(np.zeros_like(W_star), W_star)
        assert err * 10.0 < baseline

    def test_deterministic_trace(self):
        rng = np.random.default_rng(11)
        X, obs = random_instance(rng, 9, 3, 4)
        cfg = SolverConfig(loss=get_loss("logistic"), max_iters=30)
        _, r1 = fit_prox_grad(X, obs, cfg)
        _, r2 = fit_prox_grad(X, obs, cfg)
        assert r1.objective_trace == r2.objective_trace

    def test_score_norm_mode_runs_and_descends(self):
        rng = np.random.default_rng(12)
        X, obs = random_instance(rng, 10, 3, 4)
        cfg = SolverConfig(
            loss=get_loss("logistic"), lambda_reg=0.05,
            regularizer_mode="score_norm", max_iters=40,
        )
        model, report = fit_prox_grad(X, obs, cfg)
        trace = np.asarray(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10)
        assert np.all(np.isfinite(model.W))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_score_norm_reaches_prox_fixed_point(self, seed):
        # column scales spanning two decades make X far from orthonormal,
        # so an inexact score-norm prox stalls visibly above the minimum
        rng = np.random.default_rng(seed)
        X, obs = random_instance(rng, 60, 5, 10)
        X = X * np.logspace(-1, 1, 5)
        lam = 0.003
        cfg = SolverConfig(
            loss=get_loss("logistic"), lambda_reg=lam,
            regularizer_mode="score_norm", rel_tol=1e-10,
        )
        model, report = fit_prox_grad(X, obs, cfg)
        # optimality of U = R W for risk(Q U) + lam * ||U||_*, with X = Q R
        Q, R = np.linalg.qr(X)
        U = R @ model.W
        G = grad_empirical(Q, obs, U, cfg.loss)
        residual = np.linalg.norm(U - prox_nuclear(U - G, lam))
        assert residual / max(1.0, np.linalg.norm(U)) <= 1e-6
        assert report.objective_trace[-1] == pytest.approx(
            objective(X, obs, model.W, cfg), rel=1e-10
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_param_norm_reaches_prox_fixed_point(self, seed):
        # at the minimizer of risk(X W) + lam * ||W||_*, W is a fixed
        # point of the unit-step proximal gradient map
        rng = np.random.default_rng(seed)
        X, obs = random_instance(rng, 60, 5, 10)
        lam = 0.003
        cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=lam, rel_tol=1e-10)
        model, report = fit_prox_grad(X, obs, cfg)
        G = grad_empirical(X, obs, model.W, cfg.loss)
        residual = np.linalg.norm(model.W - prox_nuclear(model.W - G, lam))
        assert residual / max(1.0, np.linalg.norm(model.W)) <= 1e-6
        assert report.stop_reason == "rel_tol"

    @pytest.mark.parametrize("n, d, repeat_column", [(4, 6, False), (8, 3, True)])
    def test_score_norm_rejects_rank_deficient_features(self, n, d, repeat_column):
        rng = np.random.default_rng(17)
        X, obs = random_instance(rng, n, d, 3)
        if repeat_column:
            X[:, -1] = X[:, 0]
        cfg = SolverConfig(loss=get_loss("logistic"), regularizer_mode="score_norm")
        with pytest.raises(NumericalError, match="full column rank"):
            fit_prox_grad(X, obs, cfg)

    @pytest.mark.parametrize("mode", ["param_norm", "score_norm"])
    def test_kept_entry_array_matches_fresh_zeros(self, mode, monkeypatch):
        # the fit rewrites only the observed entries of its one kept n x L
        # array; on a gapped instance (last row and last column unobserved)
        # it must give the bits of a fit that scatters into fresh zeros
        import nondecomp.estimator as estimator

        rng = np.random.default_rng(57)
        n, d, L = 12, 4, 6
        X = rng.normal(size=(n, d))
        rows, cols = np.divmod(np.arange((n - 1) * (L - 1)), L - 1)
        keep = rng.random(rows.size) < 0.6
        keep[rows == 0] = keep[cols == 0] = True
        obs = ObservationSet(n, L, rows[keep], cols[keep],
                             rng.integers(0, 2, size=keep.sum()).astype(float))
        cfg = SolverConfig(loss=get_loss("logistic"), lambda_reg=0.02,
                           regularizer_mode=mode, rel_tol=1e-10)
        model, report = fit_prox_grad(X, obs, cfg)

        def fresh_writer(obs):
            def on_entries(values):
                M = np.zeros((obs.n, obs.L))
                M.ravel()[obs.flat] = values
                return M
            return on_entries

        monkeypatch.setattr(estimator, "_entry_writer", fresh_writer)
        ref_model, ref_report = fit_prox_grad(X, obs, cfg)
        assert report.iterations > 2
        np.testing.assert_array_equal(model.W, ref_model.W)
        assert report.objective_trace == ref_report.objective_trace


class TestFirstTrial:
    # s and y are 1 x 2 matrices, as s_W and y are d x L ones in the fit
    @pytest.mark.parametrize("y", [[0.0, 0.0], [0.0, 3.0], [-1.0, 2.0]])
    def test_nonpositive_curvature_keeps_step(self, y):
        with np.errstate(divide="raise", invalid="raise"):
            assert _first_trial(np.array([[1.0, 0.0]]), np.array([y]), 0.37) == 0.37

    @pytest.mark.parametrize("y, long_step", [
        # cos^2 = 1, 0.9 and exactly 0.8
        ([[2.0, 0.0]], 0.5), ([[3.0, 1.0]], 1.0 / 3.0), ([[2.0, 1.0]], 0.5),
    ])
    def test_aligned_pair_takes_long_step(self, y, long_step):
        # <s, s> / <s, y> with s = (1, 0)
        assert _first_trial(np.array([[1.0, 0.0]]), np.array(y), 0.37) == long_step

    @pytest.mark.parametrize("y, short_step", [
        # cos^2 = 0.5 and 0.1
        ([[1.0, 1.0]], 0.5), ([[1.0, 3.0]], 0.1),
    ])
    def test_misaligned_pair_takes_short_step(self, y, short_step):
        # <s, y> / <y, y> with s = (1, 0)
        assert _first_trial(np.array([[1.0, 0.0]]), np.array(y), 0.37) == short_step

    @pytest.mark.parametrize("s, y, clamped", [
        ([[1e6, 0.0]], [[1e-6, 0.0]], 1e10),     # long step 1e12
        ([[1e-6, 0.0]], [[1e6, 0.0]], 1e-10),    # long step 1e-12
        ([[1e6, 1e6]], [[1e-6, 0.0]], 1e10),     # short step 1e12
        ([[1.0, 0.0]], [[1e12, 1e12]], 1e-10),   # short step 5e-13
        # <s, y> = 1e-310 > 0 but <y, y> underflows to 0; long step 1e30
        ([[1e-140, 0.0]], [[1e-170, 0.0]], 1e10),
    ])
    def test_clamped_to_bounds(self, s, y, clamped):
        assert _first_trial(np.array(s), np.array(y), 0.37) == clamped


class TestProxGradAtRateCheckSize:
    """Convex fits at the size of the benchmark's rate_check: n=300, L=60,
    d=12, rank 3, lambda_c=0.05, rel_tol=1e-8, at the smallest and largest
    observation counts of its four-point grid, on two problems."""

    class CountingLogistic(LogisticLoss):
        def __init__(self):
            self.value_calls = 0

        def value(self, t, y):
            self.value_calls += 1
            return super().value(t, y)

    @pytest.fixture(scope="class")
    def problems(self):
        from nondecomp.sampler import SyntheticSpec, generate_problem

        out = []
        for seed in (0, 1):
            spec = SyntheticSpec(n=300, L=60, d=12, rank=3, seed=seed,
                                 noise_model="bernoulli_logistic", wstar_scale=0.33)
            X, _, Y = generate_problem(spec)
            rng = np.random.default_rng(seed)
            for m in (2250, 18000):
                codes = rng.choice(300 * 60, size=m, replace=False)
                rows, cols = codes // 60, codes % 60
                out.append((X, ObservationSet(300, 60, rows, cols, Y[rows, cols])))
        return out

    @staticmethod
    def config(mode, loss=None, rel_tol=1e-8, max_iters=600):
        return SolverConfig(loss=loss or LogisticLoss(), lambda_c=0.05, regularizer_mode=mode,
                            max_iters=max_iters, rel_tol=rel_tol)

    # trials per accepted iteration over the four fits, measured at 1.31
    # (140 / 107, param_norm) and 1.13 (36 / 32, score_norm), and at 1.84
    # and 1.34 with the long Barzilai-Borwein step as every first trial;
    # each bound is the measured value plus 10%
    @pytest.mark.parametrize("mode, bound", [("param_norm", 1.44), ("score_norm", 1.24)])
    def test_few_rejected_trials(self, problems, mode, bound):
        trials = iterations = 0
        for X, obs in problems:
            loss = self.CountingLogistic()
            _, report = fit_prox_grad(X, obs, self.config(mode, loss))
            assert report.converged
            # one loss evaluation is the objective at W = 0, each other a trial
            trials += loss.value_calls - 1
            iterations += report.iterations
        assert trials / iterations <= bound

    class PlainLogistic:
        """The logistic loss through value, grad_t and hess_t alone, so a fit
        takes the default evaluation; its value calls are counted."""

        name = "logistic"

        def __init__(self):
            self.base = LogisticLoss()
            self.value_calls = 0

        def value(self, t, y):
            self.value_calls += 1
            return self.base.value(t, y)

        def grad_t(self, t, y):
            return self.base.grad_t(t, y)

        def hess_t(self, t, y):
            return self.base.hess_t(t, y)

    @pytest.mark.parametrize("mode", ["param_norm", "score_norm"])
    def test_bound_evaluation_fits_like_the_plain_protocol(self, problems, mode):
        # the logistic loss's bound evaluation reuses its buffers from trial
        # to trial; a gradient read from a rejected trial's terms would part
        # the two fits at the first rejection
        rejected = 0
        for X, obs in problems:
            plain = self.PlainLogistic()
            model, report = fit_prox_grad(X, obs, self.config(mode))
            ref_model, ref_report = fit_prox_grad(X, obs, self.config(mode, plain))
            assert np.array_equal(model.W, ref_model.W)
            assert report.objective_trace == ref_report.objective_trace
            rejected += plain.value_calls - 1 - ref_report.iterations
        assert rejected > 0

    @pytest.mark.parametrize("mode", ["param_norm", "score_norm"])
    def test_stops_near_a_tightly_converged_reference(self, problems, mode):
        # fewer trials must not come from stopping earlier
        for X, obs in problems:
            _, report = fit_prox_grad(X, obs, self.config(mode))
            _, ref = fit_prox_grad(X, obs, self.config(mode, rel_tol=1e-15, max_iters=5000))
            F, F_ref = report.objective_trace[-1], ref.objective_trace[-1]
            assert abs(F - F_ref) <= 1e-6 * F_ref


class TestFitAltMin:
    def test_matches_least_squares_at_full_rank(self):
        # squared loss, fully observed real-valued labels, no penalty:
        # the factored fit must match the per-column normal equations
        rng = np.random.default_rng(13)
        n, d, L = 10, 8, 5
        X = rng.normal(size=(n, d))
        W_true = rng.normal(size=(d, L))
        rows = np.repeat(np.arange(n), L)
        cols = np.tile(np.arange(L), n)
        y = (X @ W_true)[rows, cols] + 0.1 * rng.normal(size=n * L)
        obs = ObservationSet(n, L, rows, cols, y)
        loss = get_loss("squared")
        cfg = SolverConfig(loss=loss, lambda_reg=0.0, max_iters=400, rel_tol=1e-12, seed=0)
        model, report = fit_alt_min(X, obs, cfg, k=min(d, L))

        # oracle: column-wise normal equations of the margin-form objective
        W_opt = np.zeros((d, L))
        ymar = 2 * y.reshape(n, L) - 1
        for j in range(L):
            Aj = ymar[:, j][:, None] * X
            W_opt[:, j] = np.linalg.solve(Aj.T @ Aj, Aj.T @ np.ones(n))
        t_opt = (X @ W_opt)[rows, cols]
        obj_opt = float(np.mean(loss.value(t_opt, y)))
        assert report.objective_trace[-1] == pytest.approx(obj_opt, abs=1e-6)

    def test_half_step_trace_nonincreasing(self):
        rng = np.random.default_rng(14)
        for _ in range(4):
            X, obs = random_instance(rng, 9, 4, 5)
            cfg = SolverConfig(loss=get_loss("logistic"), max_iters=25, seed=3)
            _, report = fit_alt_min(X, obs, cfg, k=2)
            trace = np.asarray(report.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_rank_bounds_enforced(self):
        rng = np.random.default_rng(15)
        X, obs = random_instance(rng, 6, 3, 4)
        cfg = SolverConfig()
        with pytest.raises(ValueError, match="rank k"):
            fit_alt_min(X, obs, cfg, k=0)
        with pytest.raises(ValueError, match="rank k"):
            fit_alt_min(X, obs, cfg, k=4)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(16)
        X, obs = random_instance(rng, 8, 3, 4)
        cfg = SolverConfig(loss=get_loss("logistic"), max_iters=15, seed=11)
        m1, r1 = fit_alt_min(X, obs, cfg, k=2)
        m2, r2 = fit_alt_min(X, obs, cfg, k=2)
        np.testing.assert_array_equal(m1.W1, m2.W1)
        assert r1.objective_trace == r2.objective_trace
        assert r1.stop_reason == "rel_tol" and r1.converged and r1.iterations < 15
        cfg.max_iters = 2
        _, r3 = fit_alt_min(X, obs, cfg, k=2)
        assert r3.stop_reason == "max_iters" and r3.iterations == 2 and not r3.converged

    @pytest.mark.parametrize("lam", [0.02, 0.0])
    def test_pu_loss_fully_observed_converges(self, lam):
        # labels thinned as the PU correction assumes, so the corrected
        # risk stays bounded below even without a penalty
        from nondecomp.sampler import SyntheticSpec, generate_problem, pu_flip

        spec = SyntheticSpec(n=40, L=8, d=4, rank=2, seed=1,
                             noise_model="bernoulli_logistic", wstar_scale=0.5)
        X, _, Y = generate_problem(spec)
        n, L = Y.shape
        rows = np.repeat(np.arange(n), L)
        cols = np.tile(np.arange(L), n)
        obs = ObservationSet(n, L, rows, cols, pu_flip(Y, 0.3, seed=1).ravel())
        cfg = SolverConfig(loss=PULossWrapper(LogisticLoss(), 0.3), lambda_reg=lam, seed=1)
        model, report = fit_alt_min(X, obs, cfg, k=2)
        assert np.all(np.isfinite(model.W1)) and np.all(np.isfinite(model.W2))
        assert np.all(np.diff(report.objective_trace) <= 1e-10)
        assert report.stop_reason == "rel_tol" and report.converged
        assert report.iterations == len(report.objective_trace) - 1

    def test_failed_line_search_is_not_converged(self):
        # a loss whose gradient points uphill leaves Armijo no acceptable
        # step; the fit must stop by line_search, not record the unchanged
        # objective again and pass rel_tol
        class UphillLogistic(LogisticLoss):
            def grad_t(self, t, y):
                return -super().grad_t(t, y)

        X, obs = random_instance(np.random.default_rng(17), 60, 4, 8)
        cfg = SolverConfig(loss=UphillLogistic(), lambda_reg=0.05, seed=3)
        _, report = fit_alt_min(X, obs, cfg, k=2)
        assert report.stop_reason == "line_search" and report.converged is False
        trace = report.objective_trace
        assert len(set(trace)) == len(trace) and report.iterations == len(trace) - 1

    def test_pu_runaway_objective_is_not_converged(self):
        # noise-free labels leave the PU-corrected risk unbounded below; the
        # fit stops at the first negative objective and is not converged
        X, obs = pu_runaway_problem()
        cfg = SolverConfig(loss=PULossWrapper(LogisticLoss(), 0.3), lambda_reg=1e-4,
                           max_iters=300, seed=0)
        _, report = fit_alt_min(X, obs, cfg, k=2)
        assert report.objective_trace[-1] < 0.0
        assert report.stop_reason == "negative_objective" and not report.converged

    def test_score_norm_rejected(self):
        X, obs = random_instance(np.random.default_rng(18), 6, 3, 4)
        cfg = SolverConfig(regularizer_mode="score_norm")
        with pytest.raises(ValueError, match="regularizer_mode"):
            fit_alt_min(X, obs, cfg, k=2)


class TestSpectralStart:
    """alt_min starts at the spectral estimate of the observed labels;
    the seed only draws the columns that estimate leaves at zero."""

    LOSSES = [
        ("logistic", LogisticLoss()),
        ("squared", get_loss("squared")),
        ("exponential", get_loss("exponential")),
        ("gaussian", get_loss("gaussian")),
        ("pu_logistic", PULossWrapper(LogisticLoss(), 0.3)),
    ]

    @pytest.mark.parametrize("name,loss", LOSSES, ids=[name for name, _ in LOSSES])
    def test_finite_and_bit_identical_on_rerun(self, name, loss):
        rng = np.random.default_rng(30)
        X, obs = random_instance(rng, 40, 5, 8, frac=0.4,
                                 loss="gaussian" if name == "gaussian" else "logistic")
        w = _spectral_start(X, obs, loss, 3, seed=4)
        assert w.shape == (5 + 8, 3) and np.all(np.isfinite(w))
        assert np.array_equal(w, _spectral_start(X, obs, loss, 3, seed=4))
        # every column is spectral here, so the seed does not enter
        assert np.array_equal(w, _spectral_start(X, obs, loss, 3, seed=5))

    def test_rank_deficient_target_keeps_every_column_moving(self):
        # every label observed and equal: the target is a constant matrix
        # of rank 1, so the second column falls back to the seeded draw
        rng = np.random.default_rng(31)
        n, d, L = 30, 4, 6
        X = rng.normal(size=(n, d))
        rows = np.repeat(np.arange(n), L)
        cols = np.tile(np.arange(L), n)
        obs = ObservationSet(n, L, rows, cols, np.ones(n * L))
        loss = LogisticLoss()
        w = _spectral_start(X, obs, loss, 2, seed=0)
        other = _spectral_start(X, obs, loss, 2, seed=1)
        for block in (w[:d], w[d:]):
            assert np.all(np.any(block != 0.0, axis=0))
        np.testing.assert_array_equal(w[:, 0], other[:, 0])
        assert not np.array_equal(w[:, 1], other[:, 1])
        cfg = SolverConfig(loss=loss, lambda_reg=0.01, seed=0)
        model, report = fit_alt_min(X, obs, cfg, k=2)
        assert report.stop_reason == "rel_tol" and report.converged
        assert np.all(np.diff(report.objective_trace) <= 1e-10)
        assert np.all(np.isfinite(model.W1)) and np.all(np.isfinite(model.W2))

    @pytest.fixture(scope="class")
    def convergence_problem(self):
        # the problem of acceptance criterion 5 at seed 0
        from nondecomp.dataset_io import mask_observations
        from nondecomp.sampler import OmegaDistribution, SyntheticSpec, generate_problem

        spec = SyntheticSpec(n=1000, L=100, d=10, rank=5, seed=0,
                             noise_model="noise_free_sign", theta_star=0.0)
        X, _, Y = generate_problem(spec)
        return X, lambda ratio: mask_observations(Y, ratio, OmegaDistribution.uniform(), seed=0)

    @pytest.mark.parametrize("ratio", [0.05, 0.3])
    def test_few_steps_at_the_convergence_experiment(self, convergence_problem, ratio,
                                                     monkeypatch):
        import nondecomp.estimator as estimator

        X, observe = convergence_problem
        obs = observe(ratio)
        cfg = SolverConfig(loss=LogisticLoss(), lambda_reg=3e-5, max_iters=100,
                           rel_tol=1e-6, seed=0)
        _, report = fit_alt_min(X, obs, cfg, k=5)
        assert report.converged and report.iterations <= 12

        def random_start(X, obs, loss, k, seed):
            rng = np.random.default_rng(np.random.SeedSequence((int(seed), 29)))
            return rng.standard_normal((X.shape[1] + obs.L, k)) * (1.0 / math.sqrt(k))

        monkeypatch.setattr(estimator, "_spectral_start", random_start)
        _, ref = fit_alt_min(X, obs, cfg, k=5)
        assert ref.converged
        assert report.objective_trace[-1] <= (1.0 + 1e-7) * ref.objective_trace[-1]


class TestFactoredObjective:
    """The alt_min objective over the packed factors [W1; W2], against
    finite differences and an explicit Jacobian."""

    LOSSES = [
        ("logistic", LogisticLoss()),
        ("squared", get_loss("squared")),
        ("pu_logistic", PULossWrapper(LogisticLoss(), 0.3)),
        # negative curvature on positives with large scores, where h is clipped
        ("pu_exponential", PULossWrapper(get_loss("exponential"), 0.3)),
    ]

    def instance(self, seed, lam, loss):
        rng = np.random.default_rng(seed)
        n, d, L, k = 7, 3, 4, 2
        X, obs = random_instance(rng, n, d, L, frac=0.6)
        w = rng.normal(size=(d + L, k))
        fval, gauss_newton = _factored_objective(X, obs, loss, lam)
        return X, obs, w, fval, gauss_newton

    @pytest.mark.parametrize("lam", [0.05, 0.0])
    @pytest.mark.parametrize("name, loss", LOSSES)
    def test_gradient_matches_finite_differences(self, name, loss, lam):
        _, _, w, fval, gauss_newton = self.instance(51, lam, loss)
        G, _ = gauss_newton(w)
        h = 1e-6
        for a, b in np.ndindex(*w.shape):
            wp, wm = w.copy(), w.copy()
            wp[a, b] += h
            wm[a, b] -= h
            fd = (fval(wp) - fval(wm)) / (2 * h)
            assert abs(G[a, b] - fd) / (1 + abs(fd)) < 1e-6

    @pytest.mark.parametrize("lam", [0.05, 0.0])
    @pytest.mark.parametrize("name, loss", LOSSES)
    def test_matvec_matches_explicit_gauss_newton(self, name, loss, lam):
        X, obs, w, _, gauss_newton = self.instance(52, lam, loss)
        d = X.shape[1]
        W1, W2 = w[:d], w[d:]
        A = X @ W1
        # J[e] is the derivative of the score A[r] . W2[c] of entry e = (r, c)
        J = np.zeros((obs.size, w.size))
        for e, (r, c) in enumerate(zip(obs.rows, obs.cols)):
            dW1 = np.outer(X[r], W2[c])
            dW2 = np.zeros_like(W2)
            dW2[c] = A[r]
            J[e] = np.vstack([dW1, dW2]).ravel()
        t = np.einsum("ij,ij->i", A[obs.rows], W2[obs.cols])
        hess = np.maximum(loss.hess_t(t, obs.values), 0.0) / obs.size
        M = J.T @ (hess[:, None] * J) + lam * np.eye(w.size)
        _, matvec = gauss_newton(w)
        rng = np.random.default_rng(53)
        for _ in range(3):
            S = rng.normal(size=w.shape)
            np.testing.assert_allclose(matvec(S).ravel(), M @ S.ravel(), rtol=1e-10, atol=1e-10)

    # (n, d, L, k): n != L as before; rank one; d = k and d > L, where a
    # product over the wrong one of two axes would still have a valid shape
    @pytest.mark.parametrize("n, d, L, k", [(9, 3, 5, 2), (9, 3, 5, 1), (9, 2, 5, 2), (9, 6, 4, 2)])
    @pytest.mark.parametrize("name, loss", LOSSES)
    def test_gapped_gauss_newton_matches_explicit_jacobian(self, name, loss, n, d, L, k,
                                                           monkeypatch):
        # the last row and the last column have no observed entry; each
        # returned product must still equal its oracle after later calls,
        # so no matvec may return an array that a later one overwrites.
        # The operator is summed over rows in blocks of 4: two full blocks
        # and a last one of one row
        import nondecomp.estimator as estimator

        monkeypatch.setattr(estimator, "_ROW_BLOCK", 4)
        rng = np.random.default_rng(54)
        lam = 0.05
        X = rng.normal(size=(n, d))
        rows, cols = np.divmod(np.arange((n - 1) * (L - 1)), L - 1)
        keep = rng.random(rows.size) < 0.7
        keep[rows == 0] = keep[cols == 0] = True
        obs = ObservationSet(n, L, rows[keep], cols[keep],
                             rng.integers(0, 2, size=keep.sum()).astype(float))
        w = rng.normal(size=(d + L, k))
        _, gauss_newton = _factored_objective(X, obs, loss, lam)
        W1, W2 = w[:d], w[d:]
        A = X @ W1
        J = np.zeros((obs.size, w.size))
        for e, (r, c) in enumerate(zip(obs.rows, obs.cols)):
            dW2 = np.zeros_like(W2)
            dW2[c] = A[r]
            J[e] = np.vstack([np.outer(X[r], W2[c]), dW2]).ravel()
        t = np.einsum("ij,ij->i", A[obs.rows], W2[obs.cols])
        hess = np.maximum(loss.hess_t(t, obs.values), 0.0) / obs.size
        M = J.T @ (hess[:, None] * J) + lam * np.eye(w.size)
        G, matvec = gauss_newton(w)
        grad = J.T @ loss.grad_t(t, obs.values) / obs.size + lam * w.ravel()
        np.testing.assert_allclose(G.ravel(), grad, rtol=1e-10, atol=1e-12)
        inputs, outputs = [], []
        for _ in range(3):
            inputs.append(rng.normal(size=w.shape))
            outputs.append(matvec(inputs[-1]))
            for S, HS in zip(inputs, outputs):
                np.testing.assert_allclose(HS.ravel(), M @ S.ravel(), rtol=1e-10, atol=1e-10)
        # the unobserved column's rows of W2 see only the damping
        np.testing.assert_allclose(outputs[0][-1], (lam + 1e-12) * inputs[0][-1], rtol=1e-12)


class TestPluginBaseline:
    def test_separable_label_finite_and_correct_sign(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 3))
        w = np.array([1.0, -2.0, 0.5])
        y = (X @ w >= 0).astype(float)
        obs = ObservationSet(40, 1, np.arange(40), np.zeros(40, dtype=int), y)
        model, report = fit_plugin_baseline(X, obs, ridge=1e-3)
        assert np.all(np.isfinite(model.W))
        scores = X @ model.W[:, 0]
        assert np.mean((scores >= 0) == (y == 1)) > 0.9

    def test_all_positive_labels_push_probability_up(self):
        # 1-d fit on positive feature values: all-positive labels drive the
        # weight up, so every training score maps above one half
        rng = np.random.default_rng(18)
        X = rng.uniform(0.5, 2.0, size=(25, 1))
        obs = ObservationSet(25, 1, np.arange(25), np.zeros(25, dtype=int), np.ones(25))
        model, report = fit_plugin_baseline(X, obs, ridge=0.01)
        probs = sigmoid(X @ model.W[:, 0])
        assert np.all(probs > 0.5)

    def test_unobserved_label_gets_zero_column(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(10, 3))
        obs = ObservationSet(10, 3, np.arange(10), np.zeros(10, dtype=int),
                             rng.integers(0, 2, size=10).astype(float))
        model, report = fit_plugin_baseline(X, obs, ridge=0.1)
        np.testing.assert_array_equal(model.W[:, 1], 0.0)
        np.testing.assert_array_equal(model.W[:, 2], 0.0)

    def test_joint_fit_solves_every_label(self):
        # the labels share no term, so at the joint minimizer each label's
        # own objective, mean loss on its entries + ridge/2 ||w_j||^2, is
        # stationary too
        rng = np.random.default_rng(21)
        X, obs = random_instance(rng, 50, 4, 6, frac=0.5)
        ridge = 0.01
        model, report = fit_plugin_baseline(X, obs, ridge=ridge)
        loss = LogisticLoss()
        for j in range(obs.L):
            idx = np.flatnonzero(obs.cols == j)
            A = X[obs.rows[idx]]
            w = model.W[:, j]
            g = A.T @ loss.grad_t(A @ w, obs.values[idx]) / idx.size + ridge * w
            assert np.linalg.norm(g) < 1e-8
        trace = report.objective_trace
        assert trace[0] == pytest.approx(obs.L * math.log(2))
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert report.converged

    def test_singular_block_matches_per_label_solves(self, monkeypatch):
        # with ridge = 0, label 0 sees only copies of one large feature
        # vector, so its Hessian block has four equal entries that the
        # 1e-12 damping does not change: the stacked solve raises, and each
        # label is solved on its own, label 0 falling back to its gradient
        import nondecomp.estimator as estimator

        rng = np.random.default_rng(22)
        n, L = 30, 3
        X = rng.normal(size=(n, 2))
        X[:5] = 1e4
        rows = np.concatenate([np.arange(5), np.arange(5, n), np.arange(5, n)])
        cols = np.repeat([0, 1, 2], [5, n - 5, n - 5])
        obs = ObservationSet(n, L, rows, cols, rng.integers(0, 2, size=rows.size).astype(float))
        model, report = fit_plugin_baseline(X, obs, ridge=0.0)

        singular = []

        def per_label(H, G):
            D = np.empty_like(G)
            for j in range(G.shape[1]):
                try:
                    D[:, j] = np.linalg.solve(H[j], G[:, j])
                except np.linalg.LinAlgError:
                    singular.append(j)
                    D[:, j] = G[:, j]
            return D

        monkeypatch.setattr(estimator, "_solve_blocks", per_label)
        ref_model, ref_report = fit_plugin_baseline(X, obs, ridge=0.0)
        assert 0 in singular
        np.testing.assert_array_equal(model.W, ref_model.W)
        assert report.objective_trace == ref_report.objective_trace
        assert np.all(np.isfinite(model.W))

    @pytest.mark.parametrize("tiny", [1.0, 1e-45], ids=["plain", "tiny_label"])
    def test_hessian_blocks_match_per_label_sums(self, monkeypatch, tiny):
        # the blocks are summed over rows in blocks of 4: two full blocks and
        # a last one of two rows. Label 0 sees every row, label 1 some,
        # label 2 one entry (in the last block) and label 3 none. The blocks
        # of the first two Newton steps are checked against sums formed here
        # entry by entry.
        # With ``tiny`` label 1's curvatures are all below 1e-45, under the
        # float32 range, while label 0's reach 1 / (4 n): each label's own
        # power-of-two scale must keep its block from flushing to zero.
        # The sums run in float32 on inputs scaled by powers of two, which is
        # exact, so each term h x_a x_b carries at most n + 4 roundings of
        # unit u = 2^-24: three inputs rounded to float32, two products and
        # at most n - 1 additions. An entry is then within
        # gamma_(n+4) = (n + 4) u / (1 - (n + 4) u) times sum |h x_a x_b| of
        # its exact value (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2nd ed., section 3.1). The float64 sums formed here,
        # and the damping added in float64, round with unit 2^-53 on at most
        # n + 2 operations
        import nondecomp.estimator as estimator

        monkeypatch.setattr(estimator, "_ROW_BLOCK", 4)
        rng = np.random.default_rng(24)
        n, d, L, ridge = 10, 3, 4, 0.1
        X = rng.normal(size=(n, d))
        some = np.flatnonzero(rng.random(n) < 0.6)
        rows = np.concatenate([np.arange(n), some, [9]])
        cols = np.repeat([0, 1, 2], [n, some.size, 1])
        obs = ObservationSet(n, L, rows, cols, rng.integers(0, 2, size=rows.size).astype(float))
        scores, blocks = [], []
        factor = np.where(cols == 1, tiny, 1.0)

        class Recording(LogisticLoss):
            def hess_t(self, t, y):
                scores.append(np.array(t))
                return super().hess_t(t, y) * factor

        def recording_solve(H, G):
            blocks.append(H.copy())
            return _solve_blocks(H, G)

        monkeypatch.setattr(estimator, "LogisticLoss", Recording)
        monkeypatch.setattr(estimator, "_solve_blocks", recording_solve)
        fit_plugin_baseline(X, obs, ridge=ridge)
        assert len(blocks) >= 2 and len(scores) == len(blocks)
        counts = np.bincount(obs.cols, minlength=L)
        gamma32 = (n + 4) * 2.0**-24 / (1 - (n + 4) * 2.0**-24)
        gamma64 = (n + 2) * 2.0**-53 / (1 - (n + 2) * 2.0**-53)
        for t, H in zip(scores[:2], blocks[:2]):
            h = LogisticLoss().hess_t(t, obs.values) * factor / counts[obs.cols]
            expect = np.repeat((ridge + 1e-12) * np.eye(d)[None], L, axis=0)
            size = np.zeros_like(expect)
            for e, (i, j) in enumerate(zip(obs.rows, obs.cols)):
                term = h[e] * np.outer(X[i], X[i])
                expect[j] += term
                size[j] += np.abs(term)
            bound = gamma32 * size + gamma64 * (size + np.abs(expect))
            assert np.all(np.abs(H - expect) <= bound)
        # the unobserved label's block is the damping alone
        np.testing.assert_array_equal(blocks[1][3], (ridge + 1e-12) * np.eye(d))

    # one scale for every column, then columns at 1e150, 1e-150, 1 and 1,
    # and at 1e20, 1e-20, 1 and 1
    FEATURE_SCALES = [[10.0**e] * 4 for e in (-300, -155, -20, 0, 20, 100, 150)] + [
        [1e150, 1e-150, 1.0, 1.0], [1e20, 1e-20, 1.0, 1.0],
    ]

    @pytest.mark.parametrize("scale", FEATURE_SCALES, ids=lambda s: f"{s[0]:g}_{s[1]:g}")
    def test_float32_blocks_match_a_float64_reference_at_every_scale(self, scale):
        # the blocks are formed in float32 on features scaled by powers of
        # two, so they must neither overflow nor flush at any feature scale
        # the float64 range holds, and the fit must stop as a float64 fit
        # does, at the same W. At 1e-20 and below the gradient at W = 0 is
        # already under the fit's absolute tolerance 1e-10, so both stop
        # before forming a block. A weight W_aj is measured in units of
        # 1 / max |x_a|, so that columns of every scale count
        rng = np.random.default_rng(25)
        X, obs = random_instance(rng, 60, 4, 6, frac=0.5)
        X *= np.asarray(scale)
        model, report = fit_plugin_baseline(X, obs, ridge=1e-3)
        W, trace, stop_reason = plugin_reference(X, obs, ridge=1e-3)
        assert (report.stop_reason, report.iterations) == (stop_reason, len(trace) - 1)
        unit = np.abs(X).max(axis=0)[:, None]
        assert np.abs((model.W - W) * unit).max() <= 1e-9 * np.abs(W * unit).max()

    def test_peak_memory_at_walkthrough_size(self):
        # one fit at n = 2000, L = 200, d = 50 and ratio 0.3 peaks at about
        # 11.4 MiB above its inputs (12.8 with the blocks summed in
        # float64). One more kept n x L float64 array (3.1 MiB) or a kept
        # float64 copy of the pair products (20 MB) would pass the bound
        rng = np.random.default_rng(26)
        X, obs = random_instance(rng, 2000, 50, 200, frac=0.3)
        tracemalloc.start()
        try:
            fit_plugin_baseline(X, obs, ridge=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 2**20

    def test_stacked_solve_matches_per_label_solves(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(6, 4, 4))
        H = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(4)
        G = rng.normal(size=(4, 6))
        D = _solve_blocks(H, G)
        for j in range(6):
            assert np.array_equal(D[:, j], np.linalg.solve(H[j], G[:, j]))

    def test_negative_ridge_rejected(self):
        rng = np.random.default_rng(20)
        X, obs = random_instance(rng, 5, 2, 2)
        with pytest.raises(ValueError):
            fit_plugin_baseline(X, obs, ridge=-1.0)

    @pytest.mark.parametrize("ridge", [math.nan, math.inf])
    def test_non_finite_ridge_rejected(self, ridge):
        rng = np.random.default_rng(20)
        X, obs = random_instance(rng, 5, 2, 2)
        with pytest.raises(ValueError, match="finite"):
            fit_plugin_baseline(X, obs, ridge=ridge)


class TestPredictAndRecovery:
    def test_identity_features(self):
        W = np.arange(6.0).reshape(3, 2)
        model = DenseModel(W=W)
        np.testing.assert_allclose(predict_scores(np.eye(3), model), W)

    def test_rank_one_outer_product(self):
        X = np.array([[2.0, -1.0]])
        model = FactoredModel(W1=np.array([[3.0], [1.0]]), W2=np.array([[0.5], [-2.0]]))
        expect = np.array([[(2 * 3 - 1 * 1) * 0.5, (2 * 3 - 1 * 1) * -2.0]])
        np.testing.assert_allclose(predict_scores(X, model), expect)

    def test_dense_factored_agree(self):
        rng = np.random.default_rng(21)
        W1 = rng.normal(size=(4, 2))
        W2 = rng.normal(size=(5, 2))
        X = rng.normal(size=(7, 4))
        dense = DenseModel(W=W1 @ W2.T)
        factored = FactoredModel(W1=W1, W2=W2)
        np.testing.assert_allclose(
            predict_scores(X, dense), predict_scores(X, factored), atol=1e-10
        )

    def test_gamma_clip(self):
        model = DenseModel(W=np.array([[10.0]]))
        Z = predict_scores(np.array([[5.0]]), model, gamma_clip=3.0)
        assert Z[0, 0] == 3.0

    def test_recovery_error_zero_and_ones(self):
        W = np.random.default_rng(22).normal(size=(3, 4))
        assert recovery_error(W, W) == 0.0
        assert recovery_error(W + 1.0, W) == pytest.approx(1.0)

    def test_recovery_error_entrywise(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(3, 4))
        expect = sum((A[i, j] - B[i, j]) ** 2 for i in range(3) for j in range(4)) / 12
        assert recovery_error(A, B) == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            recovery_error(np.zeros((2, 2)), np.zeros((2, 3)))


class TestPUCorrectionEndToEnd:
    def test_corrected_fit_recovers_better_than_naive(self):
        # observed positives are a thinned subset; the unbiased loss undoes
        # the thinning bias that the naive fit absorbs into its parameters
        from nondecomp.losses import PULossWrapper
        from nondecomp.sampler import SyntheticSpec, generate_problem, pu_flip

        for seed in (0, 1, 2):
            spec = SyntheticSpec(
                n=120, L=30, d=6, rank=2, seed=seed,
                noise_model="bernoulli_logistic", wstar_scale=0.5,
            )
            X, W_star, Y = generate_problem(spec)
            flipped = pu_flip(Y, 0.4, seed=seed)
            n, L = flipped.shape
            rows = np.repeat(np.arange(n), L)
            cols = np.tile(np.arange(L), n)
            obs = ObservationSet(n, L, rows, cols, flipped.ravel().astype(float))
            base = get_loss("logistic")
            errs = {}
            for label, loss in (("naive", base), ("corrected", PULossWrapper(base, 0.4))):
                cfg = SolverConfig(loss=loss, seed=seed, max_iters=400,
                                   rel_tol=1e-8, lambda_c=0.5)
                model, _ = fit_prox_grad(X, obs, cfg)
                errs[label] = recovery_error(model.W, W_star)
            assert errs["corrected"] < errs["naive"]


class TestDefaults:
    def test_default_lambda(self):
        assert default_lambda(10000) == pytest.approx(0.02)
        assert default_lambda(100, c=2.0) == pytest.approx(0.4)

    def test_solver_config_validation(self):
        for key in ("lambda_reg", "lambda_c"):
            for bad in (-1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match=key):
                    SolverConfig(**{key: bad})
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="rel_tol"):
                SolverConfig(rel_tol=bad)
        with pytest.raises(ValueError):
            SolverConfig(regularizer_mode="both")
