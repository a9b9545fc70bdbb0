"""Estimation of a low-rank parameter matrix from partially observed labels.

The main objective is the empirical proper-loss risk over the observed
entries plus a nuclear-norm penalty on the parameter matrix. Solvers:

* ``fit_prox_grad`` -- proximal gradient with backtracking on the convex
  objective, including the experimental variant that penalizes the nuclear
  norm of the score matrix instead of the parameter matrix, solved exactly
  on the orthonormal factor of the features.
* ``fit_alt_min`` -- damped Gauss-Newton-CG steps on both factors of the
  rank-k factorization at once, with the standard Frobenius surrogate of
  the nuclear penalty (the name is kept from alternating minimization),
  started at the spectral estimate of the observed labels. Each step
  scatters its curvature into an n x L array and allocates one n x L
  work buffer, so every CG matvec is a few small matrix products instead
  of per-entry gathers; ``predict_scores``, ``grad_empirical``
  and the plugin fit form n x L arrays anyway.
* ``fit_plugin_baseline`` -- independent per-label ridge-regularized
  logistic fits, the comparison method that ignores label correlations;
  each Newton step solves all of its per-label Hessian blocks at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import LogisticLoss, evaluation

__all__ = [
    "ObservationSet",
    "DenseModel",
    "FactoredModel",
    "SolverConfig",
    "FitReport",
    "NumericalError",
    "default_lambda",
    "default_lambda_score_norm",
    "nuclear_norm",
    "objective",
    "grad_empirical",
    "prox_nuclear",
    "fit_prox_grad",
    "fit_alt_min",
    "fit_plugin_baseline",
    "predict_scores",
    "recovery_error",
]

# singular values below this fraction of the largest do not count toward rank
_RANK_CUTOFF = 1e-8


class NumericalError(RuntimeError):
    """Raised when a solver diverges or a factorization fails."""


class ObservationSet:
    """Distinct observed (row, column, label) triples of an n x L matrix.

    ``flat`` holds each entry's index rows * L + cols into the raveled
    n x L matrix, so the solvers gather and scatter entries with one 1-d
    index instead of a (rows, cols) pair.
    """

    __slots__ = ("n", "L", "rows", "cols", "values", "flat")

    def __init__(self, n, L, rows, cols, values):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and values must be parallel 1-d arrays")
        if rows.size == 0:
            raise ValueError("empty observation set")
        if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= L:
            raise ValueError("observation indices out of range")
        if not np.all(np.isfinite(values)):
            raise ValueError("observation values must be finite")
        flat = rows * L + cols
        # sorting finds repeats faster than np.unique does
        ordered = np.sort(flat)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("duplicate (row, col) pairs in observation set")
        self.n = int(n)
        self.L = int(L)
        self.rows = rows
        self.cols = cols
        self.values = values
        self.flat = flat

    @property
    def size(self):
        return self.rows.size


@dataclass
class DenseModel:
    """Parameter matrix W (d x L) plus an optional fitted threshold."""

    W: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        if self.W.ndim != 2:
            raise ValueError("W must be a matrix")
        if not np.all(np.isfinite(self.W)):
            raise ValueError("W entries must be finite")


@dataclass
class FactoredModel:
    """Rank-k factorization W = W1 @ W2.T with an optional threshold."""

    W1: np.ndarray
    W2: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=float)
        self.W2 = np.asarray(self.W2, dtype=float)
        if self.W1.ndim != 2 or self.W2.ndim != 2:
            raise ValueError("factors must be matrices")
        if self.W1.shape[1] != self.W2.shape[1] or self.W1.shape[1] < 1:
            raise ValueError("factors must share a positive inner dimension")
        if not (np.all(np.isfinite(self.W1)) and np.all(np.isfinite(self.W2))):
            raise ValueError("factor entries must be finite")

    def dense(self):
        return self.W1 @ self.W2.T


@dataclass
class SolverConfig:
    """Knobs shared by the solvers.

    ``lambda_reg=None`` resolves to the sample-size default
    2 * lambda_c / sqrt(m) for m observed entries. ``seed`` only draws the
    columns of alt_min's start that its spectral estimate leaves at zero;
    the other solvers start from W = 0.
    """

    loss: object = field(default_factory=LogisticLoss)
    lambda_reg: float | None = None
    lambda_c: float = 1.0
    regularizer_mode: str = "param_norm"
    max_iters: int = 300
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.lambda_reg is not None and not 0 <= self.lambda_reg < math.inf:
            raise ValueError("lambda_reg must be finite and nonnegative")
        if not 0 <= self.lambda_c < math.inf:
            raise ValueError("lambda_c must be finite and nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and positive")
        if self.regularizer_mode not in ("param_norm", "score_norm"):
            raise ValueError("regularizer_mode must be param_norm or score_norm")


@dataclass
class FitReport:
    """Objective trajectory and convergence summary of one fit."""

    objective_trace: list
    iterations: int
    converged: bool
    final_rank: int
    # why the outer loop ended: "rel_tol", "max_iters", "line_search" or
    # "negative_objective"
    stop_reason: str


def default_lambda(n_observed, c=1.0):
    """Sample-size-scaled default regularization weight 2c / sqrt(m)."""
    return 2.0 * c / math.sqrt(n_observed)


def default_lambda_score_norm(n_observed, n, L, c=1.0):
    """Default weight for the score-matrix penalty, which grows with the
    matrix size and therefore carries the extra 1 / min(n, L) scaling."""
    return 2.0 * c * math.sqrt(2.0 * math.log(n + L) / (min(n, L) * n_observed))


def _resolve_lambda(config, obs):
    if config.lambda_reg is not None:
        return float(config.lambda_reg)
    if config.regularizer_mode == "score_norm":
        return default_lambda_score_norm(obs.size, obs.n, obs.L, config.lambda_c)
    return default_lambda(obs.size, config.lambda_c)


def nuclear_norm(A):
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False).sum())


def _check_X(X, obs):
    """X as a float matrix of finite features, one row per instance of obs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    if X.shape[0] != obs.n:
        raise ValueError(f"X has {X.shape[0]} rows but observations expect {obs.n}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X entries must be finite")
    return X


def _check_shapes(X, obs, W):
    X = _check_X(X, obs)
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError("W must be a matrix")
    if X.shape[1] != W.shape[0]:
        raise ValueError("inner dimensions of X and W do not match")
    if W.shape[1] != obs.L:
        raise ValueError(f"W has {W.shape[1]} columns but observations expect {obs.L}")
    return X, W


def _gather(Z, obs):
    """The observed entries of the n x L matrix Z, in the order of obs."""
    return Z.ravel()[obs.flat]


def _entry_scores(X, obs, W):
    return _gather(X @ W, obs)


def _empirical_risk(obs, t, loss):
    """Mean loss over the observed entries, given their scores t."""
    return float(np.mean(loss.value(t, obs.values)))


def objective(X, obs, W, config):
    """Empirical risk over the observed entries plus the nuclear penalty."""
    X, W = _check_shapes(X, obs, W)
    lam = _resolve_lambda(config, obs)
    if config.regularizer_mode == "param_norm":
        reg = nuclear_norm(W)
    else:
        reg = nuclear_norm(X @ W)
    return _empirical_risk(obs, _entry_scores(X, obs, W), config.loss) + lam * reg


def _on_entries(obs, values):
    """The n x L array holding values at the observed entries, zero elsewhere."""
    M = np.zeros(obs.n * obs.L)
    M[obs.flat] = values
    return M.reshape(obs.n, obs.L)


def _grad_from(X, obs, g):
    """Gradient of the empirical risk in W, given the loss derivatives g in
    the observed scores."""
    return X.T @ _on_entries(obs, np.asarray(g, dtype=float) / obs.size)


def grad_empirical(X, obs, W, loss):
    """Gradient of the empirical-risk term with respect to W (d x L)."""
    X, W = _check_shapes(X, obs, W)
    return _grad_from(X, obs, loss.grad_t(_entry_scores(X, obs, W), obs.values))


def _svt(A, tau):
    """Singular-value soft thresholding of A by tau: the thresholded matrix
    and its singular values, whose sum is its nuclear norm."""
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed on a {A.shape[0]}x{A.shape[1]} matrix "
            f"(max |entry| = {np.abs(A).max():.3e})"
        ) from exc
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt, s


def prox_nuclear(A, tau):
    """Singular-value soft thresholding: the proximal map of tau * ||.||_*."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return _svt(np.asarray(A, dtype=float), tau)[0]


def _rank_of(A):
    s = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > _RANK_CUTOFF * s[0]))


def _descend(step, w, F, max_iters, rel_tol):
    """The outer loop of every fitter. From w, with objective F, apply
    ``step(w, F)``, which returns the next (w, F), or None when its line
    search fails. Returns (w, objective trace, stop reason): "rel_tol" once
    a step changes F by at most rel_tol * max(1, F), "line_search",
    "negative_objective" or "max_iters". Every loss and penalty is
    nonnegative, so only a PU-corrected risk estimate can turn the
    objective negative; Kiryo et al. (arXiv:1703.00593) take that as the
    sign of its overfitting, and the fit stops there."""
    trace = [F]
    for _ in range(max_iters):
        nxt = step(w, F)
        if nxt is None:
            return w, trace, "line_search"
        w, F_new = nxt
        trace.append(F_new)
        if F_new < 0:
            return w, trace, "negative_objective"
        if abs(F - F_new) <= rel_tol * max(1.0, F):
            return w, trace, "rel_tol"
        F = F_new
    return w, trace, "max_iters"


def _report(trace, stop_reason, W):
    """FitReport of a ``_descend`` run that ended at parameter matrix W."""
    return FitReport(
        objective_trace=trace,
        iterations=len(trace) - 1,
        converged=stop_reason == "rel_tol",
        final_rank=_rank_of(W),
        stop_reason=stop_reason,
    )


# the adaptive Barzilai-Borwein rule of Zhou, Gao and Dai (Comput. Optim.
# Appl. 35, 2006) takes the short step when cos^2 of the angle between s
# and y falls below this; the long step then tends to overshoot
_BB_SHORT_BELOW = 0.8


def _first_trial(s_W, y, step):
    """The first trial step of a prox_grad iteration, from the change s_W in
    W and y in the gradient over the last accepted step. The long and short
    Barzilai-Borwein steps are a1 = <s, s> / <s, y> and a2 = <s, y> / <y, y>;
    a2 / a1 = <s, y>^2 / (<s, s> <y, y>) is cos^2 of the angle between s
    and y. Returns a2 when that is below ``_BB_SHORT_BELOW``, else a1,
    clamped to [1e-10, 1e10]. Where <s, y> <= 0 there is no curvature
    estimate and ``step`` is returned. The test is made without dividing,
    so a2 is only formed when <y, y> > 0, even where it underflows."""
    sy = float(np.sum(s_W * y))
    if sy <= 0.0:
        return step
    ss, yy = float(np.sum(s_W * s_W)), float(np.sum(y * y))
    trial = sy / yy if sy * sy < _BB_SHORT_BELOW * ss * yy else ss / sy
    return min(max(trial, 1e-10), 1e10)


def fit_prox_grad(X, obs, config):
    """Minimize the trace-regularized objective by proximal gradient descent.

    Uses backtracking line search on the smooth part. The first trial
    step is 1, and from the second iteration on it is the adaptive
    Barzilai-Borwein step of the last accepted step (``_first_trial``; s
    the change in W, y the change in the gradient): the long step
    <s, s> / <s, y>, or the short step <s, y> / <y, y> when cos^2 of the
    angle between s and y is below 0.8, clamped to [1e-10, 1e10]; where
    <s, y> <= 0 the previous step is kept. A rejected trial halves the
    step, and the search fails once it falls below 1e-18. Stops
    when the relative objective change drops below ``rel_tol`` or after
    ``max_iters`` iterations. Each step reuses what its last accepted
    trial computed: the next gradient is the ``grad()`` of that trial's
    loss evaluation (``losses.evaluation``, whose ``values()`` gave the
    trial's mean loss; for the logistic loss both read the one
    exponential the evaluation formed), and the penalty comes from the
    singular values its prox kept, so a trial costs one product X W, one
    SVD and one loss evaluation.

    In score-norm mode the penalty is ||X W||_*. With the reduced
    factorization X = Q R, X W = Q U and ||X W||_* = ||U||_* for U = R W,
    so the same loop runs on features Q with the exact singular-value
    prox on U, and W = R^-1 U is returned. This needs X of full column
    rank; otherwise NumericalError is raised before any iteration.

    Returns (DenseModel, FitReport); the objective trace is nonincreasing.
    """
    X = _check_X(X, obs)
    lam = _resolve_lambda(config, obs)
    R = None
    if config.regularizer_mode == "score_norm":
        # R is d x d, or n x d when n < d; either way its rank is that of X
        X, R = np.linalg.qr(X)
        if _rank_of(R) < R.shape[1]:
            raise NumericalError("score-norm mode needs features with full column rank")
    W = np.zeros((X.shape[1], obs.L))

    evaluate = evaluation(config.loss, obs.values)

    def smooth_part(W):
        # the mean loss at W, and the derivatives at its observed scores,
        # to be taken before the next evaluation
        values, grad = evaluate(_entry_scores(X, obs, W))
        return float(np.mean(values())), grad

    # the step size, the smooth part f at W with its derivatives, and the
    # last iterate with its gradient carry over between steps
    f, grad = smooth_part(W)
    step = 1.0
    last = None

    def prox_step(W, F):
        nonlocal f, grad, step, last
        G = _grad_from(X, obs, grad())
        if last is not None:
            step = _first_trial(W - last[0], G - last[1], step)
        last = W, G
        while step >= 1e-18:
            W_new, s = _svt(W - step * G, step * lam)
            diff = W_new - W
            f_new, grad_new = smooth_part(W_new)
            F_new = f_new + lam * float(s.sum())
            if math.isnan(F_new):
                raise NumericalError("objective became NaN in a proximal step")
            quad = f + float(np.sum(G * diff)) + float(np.sum(diff * diff)) / (2.0 * step)
            # the prox is exact, so the majorization alone implies descent;
            # the second test only absorbs rounding in the objective
            if f_new <= quad + 1e-12 and F_new <= F + 1e-12:
                f, grad = f_new, grad_new
                return W_new, F_new
            step *= 0.5
        return None

    F = f  # W = 0 has nuclear norm 0
    W, trace, stop_reason = _descend(prox_step, W, F, config.max_iters, config.rel_tol)
    if R is not None:
        # the loop ran in U = R W
        W = np.linalg.solve(R, W)
    return DenseModel(W=W), _report(trace, stop_reason, W)


def _cg_solve(matvec, B, tol, max_iter=40):
    """Conjugate gradient for matvec(S) = B over matrices, stopped at a
    residual of tol * ||B||; returns the last iterate if curvature turns
    nonpositive."""
    S = np.zeros_like(B)
    R = B.copy()
    P = R.copy()
    rs = float(np.sum(R * R))
    b_norm = math.sqrt(float(np.sum(B * B)))
    for _ in range(max_iter):
        HP = matvec(P)
        denom = float(np.sum(P * HP))
        if denom <= 0.0:
            break
        alpha = rs / denom
        S += alpha * P
        R -= alpha * HP
        rs_new = float(np.sum(R * R))
        if math.sqrt(rs_new) <= tol * b_norm:
            break
        P = R + (rs_new / rs) * P
        rs = rs_new
    return S


def _newton_step(fval, linearize, gtol):
    """One damped Newton step on fval, as a function step(w, f) of the
    iterate w and f = fval(w), for ``_descend``.

    ``linearize(w)`` returns the gradient g at w and a function mapping g
    to the Newton direction, so curvature is only formed once the gradient
    test has passed; below ``gtol`` the step returns (w, f) unchanged.
    Otherwise it backtracks by halving until the Armijo condition holds
    and returns (w_new, fval(w_new)), or None once the step falls below
    1e-12.
    """
    def newton_step(w, f):
        g, newton_direction = linearize(w)
        if np.linalg.norm(g) < gtol:
            return w, f
        direction = newton_direction(g)
        slope = float(np.vdot(g, direction))
        if slope <= 0.0:
            # PU-corrected losses can lose convexity; fall back to gradient
            direction = g
            slope = float(np.vdot(g, g))
        step = 1.0
        while step > 1e-12:
            w_new = w - step * direction
            f_new = fval(w_new)
            if f_new <= f - 1e-4 * step * slope:
                return w_new, f_new
            step *= 0.5
        return None

    return newton_step


def _factored_objective(X, obs, loss, lam):
    """The alt_min objective sum(loss)/m + lam/2 * ||w||^2 over the packed
    factors w = [W1; W2], a (d + L) x k matrix, where the score of entry
    (i, j) is (X @ W1)[i] . W2[j].

    Returns fval(w) and gauss_newton(w). The latter gives the gradient
    J^T (loss' / m) + lam * w and the Gauss-Newton matvec
    S -> J^T diag(max(loss'', 0) / m) J S + (lam + 1e-12) * S, where J is
    the Jacobian of the m observed scores in w.

    Each Gauss-Newton step scatters its per-entry weights into n x L arrays
    that are zero off the observed entries, so J^T u for weights u on the
    entries is [X^T (U W2); U^T (X W1)] for their n x L array U, and a
    matvec is a few small GEMMs with no per-entry gathers. The step also
    allocates one n x L buffer that every matvec of that step reuses, so
    CG does not map and unmap a fresh n x L temporary per matvec.
    """
    d = X.shape[1]
    m = obs.size
    y = obs.values

    def fval(w):
        t = _gather((X @ w[:d]) @ w[d:].T, obs)
        return _empirical_risk(obs, t, loss) + 0.5 * lam * float(np.sum(w * w))

    def gauss_newton(w):
        A, W2 = X @ w[:d], w[d:]
        t = _gather(A @ W2.T, obs)
        M = _on_entries(obs, np.asarray(loss.grad_t(t, y), dtype=float) / m)
        G = np.vstack([X.T @ (M @ W2), M.T @ A]) + lam * w
        # PU-corrected losses can have negative curvature; clipping keeps
        # the Gauss-Newton matrix positive definite for CG
        Hd = _on_entries(obs, np.maximum(np.asarray(loss.hess_t(t, y), dtype=float), 0.0) / m)
        buf = np.empty_like(Hd)

        def matvec(S):
            # J S on every entry is (X S1) W2^T + A S2^T, one GEMM into buf
            np.matmul(np.hstack([X @ S[:d], A]), np.hstack([W2, S[d:]]).T, out=buf)
            np.multiply(Hd, buf, out=buf)
            return np.vstack([X.T @ (buf @ W2), buf.T @ A]) + (lam + 1e-12) * S

        return G, matvec

    return fval, gauss_newton


def _spectral_start(X, obs, loss, k, seed):
    """The packed factors [W1; W2] that alt_min starts from: the spectral
    estimate of the observed labels used by provable alternating
    minimization (Jain, Netrapalli and Sanghavi, arXiv:1212.0467; with side
    features, Jain and Dhillon, arXiv:1306.0626).

    Each observed entry gets the score -loss'(0, y) / loss''(0, y) of one
    Newton step from zero (2 y~ for logistic, y~ for squared and
    exponential, y for gaussian; 0 where loss''(0, y) <= 0). Scattered
    into an n x L array and divided by the sampling rate p = m / (n L), it
    is an unbiased estimate of the full target matrix T. M = argmin
    ||X M - T||_F, and W1 = U_k S_k^1/2, W2 = V_k S_k^1/2 are the balanced
    factors of its top k singular triples. A column whose singular value
    is at most ``_RANK_CUTOFF`` times the largest keeps the draw
    N(0, 1/k) seeded by ``seed``: a zero column pair has zero gradient and
    would never move.
    """
    d = X.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 29)))
    w = rng.standard_normal((d + obs.L, k)) * (1.0 / math.sqrt(k))
    zero = np.zeros(obs.size)
    g = np.asarray(loss.grad_t(zero, obs.values), dtype=float)
    h = np.asarray(loss.hess_t(zero, obs.values), dtype=float)
    target = np.divide(-g, h, out=np.zeros(obs.size), where=h > 0.0)
    p = obs.size / (obs.n * obs.L)
    M = np.linalg.lstsq(X, _on_entries(obs, target / p), rcond=None)[0]
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s[:k] > _RANK_CUTOFF * s[0]
    root = np.sqrt(s[:k][keep])
    w[:d, keep] = U[:, :k][:, keep] * root
    w[d:, keep] = Vt[:k][keep].T * root
    return w


def fit_alt_min(X, obs, config, k):
    """Joint second-order minimization of the rank-k factorization.

    The objective is the empirical risk plus lam/2 * (||W1||_F^2 +
    ||W2||_F^2), the variational surrogate of the nuclear norm at rank k.
    The fit starts at the spectral estimate of the observed labels
    (``_spectral_start``); ``config.seed`` only draws the columns that
    estimate leaves at zero. Each iteration is one damped Gauss-Newton
    step on W1 and W2 together: the direction comes from conjugate
    gradient on Gauss-Newton matrix-vector products
    (``_factored_objective``), stopped at the forcing tolerance
    min(0.5, sqrt(||gradient||)) of Eisenstat and Walker, and an Armijo
    backtracking search on the full objective makes every step monotone.
    The objective trace records the value after every iteration.
    """
    if config.regularizer_mode != "param_norm":
        raise ValueError("alt_min supports only regularizer_mode = param_norm")
    X = _check_X(X, obs)
    d = X.shape[1]
    if not 1 <= k <= min(d, obs.L):
        raise ValueError(f"rank k must lie in [1, min(d, L)] = [1, {min(d, obs.L)}]")
    lam = _resolve_lambda(config, obs)
    w = _spectral_start(X, obs, config.loss, k, config.seed)
    fval, gauss_newton = _factored_objective(X, obs, config.loss, lam)

    def linearize(wv):
        G, matvec = gauss_newton(wv)
        tol = min(0.5, math.sqrt(float(np.linalg.norm(G))))
        return G, lambda G: _cg_solve(matvec, G, tol)

    F = fval(w)
    if math.isnan(F):
        raise NumericalError("objective NaN at initialization")
    step = _newton_step(fval, linearize, gtol=1e-12)
    w, trace, stop_reason = _descend(step, w, F, config.max_iters, config.rel_tol)
    model = FactoredModel(W1=w[:d], W2=w[d:])
    return model, _report(trace, stop_reason, model.dense())


def _solve_blocks(H, G):
    """The d x L matrix D whose column j solves H[j] D[:, j] = G[:, j], for
    the L Hessian blocks H (L x d x d), in one stacked solve. Only if some
    block is singular is each block solved on its own, and a singular
    block's column is its gradient G[:, j]."""
    try:
        return np.linalg.solve(H, G.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:
        D = np.empty_like(G)
        for j, block in enumerate(H):
            try:
                D[:, j] = np.linalg.solve(block, G[:, j])
            except np.linalg.LinAlgError:
                D[:, j] = G[:, j]
        return D


def fit_plugin_baseline(X, obs, ridge):
    """Independent per-label logistic fits, the correlation-blind baseline.

    Minimizes the sum over labels j of the mean logistic loss on label j's
    observed entries plus ridge/2 * ||W[:, j]||^2 by damped Newton steps
    from W = 0. The labels share no term, so each step solves one d x d
    Hessian block per label, all in one stacked solve (``_solve_blocks``).
    Labels with no observations keep a zero column (score 0, probability
    one half). Returns (DenseModel, FitReport).
    """
    if not 0 <= ridge < math.inf:
        raise ValueError("ridge must be finite and nonnegative")
    X = _check_X(X, obs)
    loss = LogisticLoss()
    y = obs.values
    # each entry weighs 1 / m_j, for the m_j observed entries of its label
    counts = np.bincount(obs.cols, minlength=obs.L)
    weight = 1.0 / counts[obs.cols]
    # the index arrays of each label's entries, in entry order
    cols_idx = np.split(np.argsort(obs.cols, kind="stable"), np.cumsum(counts)[:-1])
    eye = np.eye(X.shape[1])

    def fval(W):
        t = _entry_scores(X, obs, W)
        return float(np.sum(weight * loss.value(t, y))) + 0.5 * ridge * float(np.sum(W * W))

    def linearize(W):
        t = _entry_scores(X, obs, W)
        G = X.T @ _on_entries(obs, weight * loss.grad_t(t, y)) + ridge * W

        def newton_direction(G):
            h = weight * loss.hess_t(t, y)
            H = np.empty((obs.L, X.shape[1], X.shape[1]))
            for j, idx in enumerate(cols_idx):
                A = X[obs.rows[idx]]
                H[j] = (A * h[idx, None]).T @ A + (ridge + 1e-12) * eye
            return _solve_blocks(H, G)

        return G, newton_direction

    W = np.zeros((X.shape[1], obs.L))
    step = _newton_step(fval, linearize, gtol=1e-10)
    W, trace, stop_reason = _descend(step, W, fval(W), max_iters=50, rel_tol=1e-14)
    return DenseModel(W=W), _report(trace, stop_reason, W)


def predict_scores(X, model, gamma_clip=None):
    """Score matrix X @ W, optionally clipped to [-gamma_clip, gamma_clip]."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, FactoredModel):
        if X.shape[1] != model.W1.shape[0]:
            raise ValueError("feature dimension does not match the model")
        Z = (X @ model.W1) @ model.W2.T
    else:
        if X.shape[1] != model.W.shape[0]:
            raise ValueError("feature dimension does not match the model")
        Z = X @ model.W
    if gamma_clip is not None:
        Z = np.clip(Z, -gamma_clip, gamma_clip)
    return Z


def recovery_error(W_hat, W_star):
    """Squared Frobenius distance normalized by the number of entries."""
    W_hat = np.asarray(W_hat, dtype=float)
    W_star = np.asarray(W_star, dtype=float)
    if W_hat.shape != W_star.shape:
        raise ValueError("matrices must have the same shape")
    diff = W_hat - W_star
    return float(np.sum(diff * diff) / W_hat.size)
