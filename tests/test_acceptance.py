"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The two experiment criteria (convergence margins, error-decay slope) run
the real harness commands at their shipped configurations and take a few
minutes combined; everything else is fast.
"""

import io
import os
import time

import numpy as np
import pytest

from nondecomp.config import ExperimentConfig
from nondecomp.dataset_io import (
    load_model,
    parse_dataset,
    save_model,
    write_dataset,
)
from nondecomp.estimator import (
    DenseModel,
    FactoredModel,
    ObservationSet,
    SolverConfig,
    fit_alt_min,
    fit_prox_grad,
    grad_empirical,
    nuclear_norm,
    predict_scores,
    prox_nuclear,
)
from nondecomp.harness import cmd_convergence, cmd_rate_check
from nondecomp.losses import LOSS_NAMES, PULossWrapper, get_loss
from nondecomp.metrics import (
    apply_threshold,
    confusion_grouped,
    confusion_micro,
    eval_metric,
    get_metric,
    threshold_sweep,
)


def _report(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{tail}")


def _brute_force_value(z, y, spec, rows):
    candidates = np.unique(z).tolist() + [float(np.max(z)) + 1.0]
    best = -np.inf
    for theta in candidates:
        yhat = (np.asarray(z) >= theta).astype(np.int8)
        if spec.mode == "micro":
            conf = confusion_micro(yhat, y)
        else:
            conf = confusion_grouped(yhat, y, rows)
        best = max(best, eval_metric(spec, conf))
    return best


def test_criterion_1_threshold_sweep_oracle_equivalence():
    """Sweep equals exhaustive cut-point enumeration, exactly, on 200
    random instances for micro-F1, accuracy, and instance-F1."""
    rng = np.random.default_rng(101)
    specs = [get_metric("micro_f1"), get_metric("accuracy"), get_metric("instance_f1")]
    start = time.time()
    checked = 0
    for i in range(200):
        m = int(rng.integers(1, 201))
        z = np.round(rng.normal(size=m), 2)
        p = rng.uniform(0.05, 0.95)
        y = (rng.random(m) < p).astype(np.int8)
        if i % 17 == 0:
            y[:] = i % 2  # occasional all-negative / all-positive instance
        rows = rng.integers(0, max(1, m // 4), size=m)
        for spec in specs:
            gi = rows if spec.mode != "micro" else None
            res = threshold_sweep(z, y, spec, group_index=gi)
            assert res.value == _brute_force_value(z, y, spec, rows)
            checked += 1
    elapsed = time.time() - start
    ok = checked == 600 and elapsed < 10.0
    _report("criterion 1: threshold sweep == brute force", ok,
            f"{checked} sweeps, {elapsed:.1f}s")
    assert ok


def test_criterion_2_gradient_matches_finite_differences():
    """Empirical-risk gradient against central differences, 50 random
    instances, logistic and squared losses, relative error < 1e-4."""
    rng = np.random.default_rng(202)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        L = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        m = int(rng.integers(1, n * L + 1))
        codes = rng.choice(n * L, size=m, replace=False)
        obs = ObservationSet(n, L, codes // L, codes % L,
                             rng.integers(0, 2, size=m).astype(float))
        W = rng.normal(size=(d, L))
        for loss_name in ("logistic", "squared"):
            loss = get_loss(loss_name)

            def risk(Wm):
                t = (X @ Wm)[obs.rows, obs.cols]
                return float(np.mean(loss.value(t, obs.values)))

            G = grad_empirical(X, obs, W, loss)
            h = 1e-6
            for a in range(d):
                for b in range(L):
                    Wp, Wm_ = W.copy(), W.copy()
                    Wp[a, b] += h
                    Wm_[a, b] -= h
                    fd = (risk(Wp) - risk(Wm_)) / (2 * h)
                    rel = abs(G[a, b] - fd) / (1.0 + abs(fd))
                    worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 5.0
    _report("criterion 2: gradient vs finite differences", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_prox_nuclear_correctness():
    """Prox operator against an in-test SVD soft-threshold reference and
    the random-perturbation optimality check."""
    rng = np.random.default_rng(303)
    start = time.time()
    worst_ref = 0.0
    optimal = True
    for _ in range(100):
        a = int(rng.integers(1, 21))
        b = int(rng.integers(1, 16))
        A = rng.normal(size=(a, b)) * rng.uniform(0.5, 3.0)
        tau = float(rng.uniform(0.0, 2.5))
        B = prox_nuclear(A, tau)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        reference = (U * np.maximum(s - tau, 0.0)) @ Vt
        worst_ref = max(worst_ref, float(np.max(np.abs(B - reference))))
        val = 0.5 * float(np.sum((B - A) ** 2)) + tau * nuclear_norm(B)
        for _ in range(100):
            Bp = B + rng.normal(size=B.shape) * rng.uniform(1e-4, 0.3)
            val_p = 0.5 * float(np.sum((Bp - A) ** 2)) + tau * nuclear_norm(Bp)
            if val > val_p + 1e-10:
                optimal = False
    elapsed = time.time() - start
    ok = worst_ref < 1e-8 and optimal and elapsed < 10.0
    _report("criterion 3: prox nuclear correctness", ok,
            f"worst ref diff {worst_ref:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_pu_unbiasedness_identity():
    """Exact flip-expectation identity for every loss, rho grid, t grid."""
    start = time.time()
    worst = 0.0
    ts = np.linspace(-5.0, 5.0, 41)
    for name in LOSS_NAMES:
        base = get_loss(name)
        for rho in np.arange(0.1, 0.95, 0.1):
            wrapped = PULossWrapper(base, float(rho))
            lhs = (1 - rho) * np.asarray(wrapped.value(ts, 1)) + rho * np.asarray(
                wrapped.value(ts, 0)
            )
            worst = max(worst, float(np.max(np.abs(lhs - np.asarray(base.value(ts, 1))))))
            worst = max(worst, float(np.max(np.abs(
                np.asarray(wrapped.value(ts, 0)) - np.asarray(base.value(ts, 0))
            ))))
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _report("criterion 4: PU unbiasedness identity", ok,
            f"worst abs dev {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_5_convergence_experiment(tmp_path):
    """Noise-free synthetic experiment: the low-rank fit reaches high
    micro-F1 and dominates the per-label baseline at low sampling."""
    start = time.time()
    cfg = ExperimentConfig(
        task="convergence", out_dir=str(tmp_path), seed=0,
        n=1000, L=100, d=10, rank=5,
        noise_model="noise_free_sign", theta_star=0.0,
        solver="alt_min", loss="logistic",
        lambda_reg=3e-5, max_iters=100, rel_tol=1e-6, k=5, ridge=1e-4,
        methods=("algorithm1", "plugin"),
        metrics=("micro_f1", "accuracy"),
        ratios=(0.05, 0.1, 0.2, 0.3, 0.5),
        repeats=5,
    )
    summary = cmd_convergence(cfg)["summary"]
    elapsed = time.time() - start

    f1_alg = {r: summary[("algorithm1", "micro_f1", r)] for r in cfg.ratios}
    f1_plg = {r: summary[("plugin", "micro_f1", r)] for r in cfg.ratios}

    ok_a = f1_alg[0.3][0] >= 0.95
    _report("criterion 5a: algorithm1 micro-F1 at 30% sampling >= 0.95", ok_a,
            f"mean {f1_alg[0.3][0]:.4f}")

    dominates = all(f1_alg[r][0] >= f1_plg[r][0] for r in (0.05, 0.1, 0.2))
    margin_01 = f1_alg[0.1][0] - f1_plg[0.1][0]
    ok_b = dominates and margin_01 >= 0.02
    _report("criterion 5b: algorithm1 >= plugin at low sampling", ok_b,
            f"margin at 10%: {margin_01:.4f}")

    ratios = sorted(cfg.ratios)
    ok_c = all(
        f1_alg[ratios[i + 1]][0] >= f1_alg[ratios[i]][0] - f1_alg[ratios[i]][1]
        for i in range(len(ratios) - 1)
    )
    _report("criterion 5c: algorithm1 F1 nondecreasing within 1 sd", ok_c,
            f"means {[round(f1_alg[r][0], 4) for r in ratios]}")

    ok_time = elapsed < 15 * 60
    _report("criterion 5 runtime < 15 min", ok_time, f"{elapsed:.0f}s")
    assert ok_a and ok_b and ok_c and ok_time


def test_criterion_6_error_decay_rate(tmp_path):
    """Recovery error decays like 1/m for the parameter-norm solver; the
    score-norm variant is worse at the largest observation count."""
    start = time.time()
    cfg = ExperimentConfig(
        task="rate_check", out_dir=str(tmp_path), seed=0,
        n=300, L=60, d=12, rank=3,
        noise_model="bernoulli_logistic", wstar_scale=0.33,
        solver="prox_grad", loss="logistic", lambda_c=0.05,
        max_iters=600, rel_tol=1e-8, repeats=3, grid_points=4,
    )
    res = cmd_rate_check(cfg)
    elapsed = time.time() - start
    largest = max(m for (_, m) in res["points"])
    err_param = res["points"][("param_norm", largest)][0]
    err_score = res["points"][("score_norm", largest)][0]

    ok_slope = -1.3 <= res["slope"] <= -0.7
    _report("criterion 6: log-log slope in [-1.3, -0.7]", ok_slope,
            f"slope {res['slope']:.3f}")
    ok_positive = all(mean > 0 for mean, _ in res["points"].values())
    ok_dir = err_score >= err_param
    _report("criterion 6: score-norm variant worse at largest omega", ok_dir,
            f"score {err_score:.4f} vs param {err_param:.4f}")
    ok_time = elapsed < 10 * 60
    assert ok_slope and ok_positive and ok_dir and ok_time


def test_criterion_7_solver_sanity():
    """Objective traces never increase: proximal gradient per iteration,
    alternating minimization per half-step."""
    rng = np.random.default_rng(707)
    start = time.time()
    ok = True
    for i in range(20):
        n = int(rng.integers(5, 15))
        d = int(rng.integers(2, 6))
        L = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d))
        m = int(rng.integers(max(1, n * L // 3), n * L + 1))
        codes = rng.choice(n * L, size=m, replace=False)
        obs = ObservationSet(n, L, codes // L, codes % L,
                             rng.integers(0, 2, size=m).astype(float))
        loss = get_loss(("logistic", "squared")[i % 2])
        cfg = SolverConfig(loss=loss, max_iters=40, seed=i,
                           lambda_reg=float(rng.uniform(0.0, 0.3)))
        _, rep = fit_prox_grad(X, obs, cfg)
        trace = np.asarray(rep.objective_trace)
        ok &= bool(np.all(np.diff(trace) <= 1e-10))
        _, rep2 = fit_alt_min(X, obs, cfg, k=min(2, d, L))
        half_steps = np.asarray(rep2.objective_trace)
        ok &= bool(np.all(np.diff(half_steps) <= 1e-10))
    elapsed = time.time() - start
    ok_time = elapsed < 2 * 60
    _report("criterion 7: solver objective traces nonincreasing", ok and ok_time,
            f"20 instances, {elapsed:.1f}s")
    assert ok and ok_time


def test_criterion_8_io_round_trips(tmp_path):
    """Dataset and model round-trips, and byte-identical reruns of the
    CSV/SVG-producing commands for fixed seeds."""
    start = time.time()
    rng = np.random.default_rng(808)

    # dataset parse/write identity
    from nondecomp.dataset_io import SparseDataset

    features, labels = [], []
    for _ in range(12):
        idx = sorted(rng.choice(6, size=int(rng.integers(0, 7)), replace=False).tolist())
        features.append([(j, float(np.round(rng.normal(), 5))) for j in idx])
        labels.append(set(rng.choice(5, size=int(rng.integers(0, 6)), replace=False).tolist()))
    ds = SparseDataset(n=12, d=6, L=5, features=features, labels=labels)
    buf = io.StringIO()
    write_dataset(ds, buf)
    back = parse_dataset(io.StringIO(buf.getvalue()))
    ok_ds = all(
        np.array_equal(getattr(back, name), getattr(ds, name))
        for name in ("indptr", "indices", "values", "label_indptr", "label_indices")
    )

    # model save/load score agreement below 1e-12
    ok_model = True
    X = rng.normal(size=(9, 4))
    for model in (
        DenseModel(W=rng.normal(size=(4, 6)), theta=0.125),
        FactoredModel(W1=rng.normal(size=(4, 3)), W2=rng.normal(size=(6, 3))),
    ):
        buf = io.StringIO()
        save_model(model, buf)
        reloaded = load_model(io.StringIO(buf.getvalue()))
        diff = np.max(np.abs(predict_scores(X, reloaded) - predict_scores(X, model)))
        ok_model &= diff < 1e-12

    # rerunning a command into the same directory rewrites identical bytes
    out_dir = tmp_path / "conv"
    cfg = ExperimentConfig(
        task="convergence", out_dir=str(out_dir), seed=0,
        n=50, L=6, d=3, rank=2, ratios=(0.4, 0.8), repeats=2,
        metrics=("micro_f1",), k=2, lambda_reg=1e-4, max_iters=25,
    )
    cmd_convergence(cfg)
    first = {
        name: open(out_dir / name, "rb").read()
        for name in ("convergence.csv", "convergence_micro_f1.svg")
    }
    cmd_convergence(cfg)
    ok_rerun = all(
        open(out_dir / name, "rb").read() == blob for name, blob in first.items()
    )

    elapsed = time.time() - start
    ok = ok_ds and ok_model and ok_rerun and elapsed < 60
    _report("criterion 8: I/O round trips and deterministic reruns", ok,
            f"{elapsed:.1f}s")
    assert ok
