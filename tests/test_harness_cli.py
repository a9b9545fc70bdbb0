import os
import pathlib
import time
import tracemalloc
from dataclasses import fields
from itertools import product

import numpy as np
import pytest

from nondecomp import harness
from nondecomp.cli import main
from nondecomp.config import ExperimentConfig, UsageError, parse_config_text
from nondecomp.dataset_io import (
    SparseDataset,
    load_model,
    parse_dataset,
    save_model,
    write_dataset,
)
from nondecomp.estimator import DenseModel, ObservationSet
from nondecomp.harness import (
    cmd_compare,
    cmd_convergence,
    cmd_eval,
    cmd_fit,
    cmd_rate_check,
    cmd_synth,
    cmd_threshold,
)
from nondecomp.metrics import (
    METRIC_REGISTRY,
    confusion_grouped,
    confusion_micro,
    eval_metric_info,
    get_metric,
    threshold_sweep,
)
from nondecomp.sampler import SyntheticSpec, gen_lowrank_W, generate_problem


def small_cfg(task, out_dir, **kw):
    base = dict(
        task=task, out_dir=str(out_dir), seed=0,
        n=120, L=12, d=5, rank=2, noise_model="noise_free_sign",
        ratio=0.5, solver="alt_min", loss="logistic",
        lambda_reg=1e-4, max_iters=60, rel_tol=1e-7, k=2,
        metrics=("micro_f1", "accuracy"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_parse_text(self):
        values = parse_config_text("a = 1\n# comment\n\nb = x,y # tail\n")
        assert values == {"a": "1", "b": "x,y"}

    def test_bad_line(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_key_set_twice(self):
        with pytest.raises(UsageError, match="line 6: key 'n' is already set on line 1"):
            parse_config_text("n = 200\nL = 4\n\n# again\nd = 2\nn = 50\n")

    def test_from_sources_with_overrides(self):
        cfg = ExperimentConfig.from_sources(
            "fit", {"n": "10", "L": "4", "d": "2", "rank": "1"}, {"seed": "7"}
        )
        assert cfg.n == 10 and cfg.seed == 7

    @pytest.mark.parametrize("key", [
        "bogus", "step_init", "step_shrink", "step_growth", "data_format", "feature_variance",
    ])
    def test_unknown_key(self, key):
        with pytest.raises(UsageError, match=f"unknown config key {key!r}"):
            ExperimentConfig.from_sources("fit", {key: "1"}, {})

    def test_task_conflict(self):
        with pytest.raises(UsageError, match="conflicts"):
            ExperimentConfig.from_sources("fit", {"task": "eval"}, {})

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(task="fit", seed=1)
        b = ExperimentConfig(task="fit", seed=1)
        c = ExperimentConfig(task="fit", seed=2)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_every_key_round_trips(self):
        # one config with a non-default value in every field, one with every
        # optional field None and every tuple empty; parsing the canonical
        # text back runs the parser derived from each field's type
        busy = ExperimentConfig(
            task="eval", seed=3, out_dir="o/x", n=10, L=4, d=3, rank=2,
            noise_model="gaussian", theta_star=0.25, noise_sigma=0.5, wstar_scale=0.33,
            data_path="a.txt", test_path="b.txt", ratio=0.4, pu_rho=0.1,
            solver="prox_grad", loss="squared", lambda_reg=1e-3, lambda_c=0.05,
            regularizer_mode="score_norm", gamma_clip=2.5, max_iters=7, rel_tol=1e-8,
            k=2, ridge=0.01, metric="accuracy", metrics=("macro_f1",),
            methods=("plugin",), ratios=(0.1, 0.3), repeats=2,
            grid_points=5, model_path="m.txt",
        )
        assert all(getattr(busy, f.name) != f.default for f in fields(ExperimentConfig))
        empty = ExperimentConfig(**{
            f.name: None if f.default is None else ()
            for f in fields(ExperimentConfig)
            if f.default is None or isinstance(f.default, tuple)
        })
        for cfg in (busy, empty):
            text = parse_config_text(cfg.canonical_text())
            assert ExperimentConfig.from_sources(cfg.task, text, {}) == cfg

    def test_ratio_validation(self):
        with pytest.raises(UsageError):
            ExperimentConfig.from_sources("fit", {"ratio": "1.5"}, {})

    def test_metric_dependence_of_threshold(self):
        # the accuracy-optimal cut differs from the F1-optimal cut here
        z = np.array([0.9, 0.8, 0.7, 0.6])
        y = np.array([1, 0, 0, 1])
        th_acc = threshold_sweep(z, y, get_metric("accuracy")).theta_hat
        th_f1 = threshold_sweep(z, y, get_metric("micro_f1")).theta_hat
        assert th_acc == 0.9
        assert th_f1 == 0.6


class TestFitThresholdEval:
    def test_pipeline(self, tmp_path):
        cfg_fit = small_cfg("fit", tmp_path)
        out = cmd_fit(cfg_fit)
        assert os.path.exists(out["model_path"])
        trace = open(out["trace_path"]).read().strip().split("\n")
        assert trace[0] == "iteration,objective"
        vals = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

        res_th = cmd_threshold(small_cfg("threshold", tmp_path))
        assert res_th["train_value"] == 1.0  # separable noise-free data
        model = load_model(open(out["model_path"]))
        assert model.theta is not None

        res_ev = cmd_eval(small_cfg("eval", tmp_path))
        rows = res_ev["rows"]
        assert {r.metric_name for r in rows} == {"micro_f1", "accuracy"}
        assert all(0.0 <= r.value <= 1.0 for r in rows)
        assert all(r.split == "test" for r in rows)

    def test_eval_without_threshold_errors(self, tmp_path):
        cmd_fit(small_cfg("fit", tmp_path))
        with pytest.raises(UsageError, match="threshold"):
            cmd_eval(small_cfg("eval", tmp_path))

    def test_eval_appends_identical_rows(self, tmp_path):
        cmd_fit(small_cfg("fit", tmp_path))
        cmd_threshold(small_cfg("threshold", tmp_path))
        first = cmd_eval(small_cfg("eval", tmp_path))
        second = cmd_eval(small_cfg("eval", tmp_path))
        assert first["rows"] == second["rows"]
        text = open(first["results_path"]).read().strip().split("\n")
        assert len(text) == 1 + 4  # header + two metrics twice

    def test_degenerate_all_negative_labels_fall_back_to_sentinel(self, tmp_path):
        cfg = small_cfg("fit", tmp_path, theta_star=1e9)  # labels all zero
        cmd_fit(cfg)
        res = cmd_threshold(small_cfg("threshold", tmp_path, theta_star=1e9))
        assert res["degenerate"]
        model = load_model(open(os.path.join(str(tmp_path), "model.txt")))
        # sentinel sits above every training score
        from nondecomp.estimator import predict_scores
        from nondecomp.harness import _load_problem, _train_observations

        cfg_t = small_cfg("threshold", tmp_path, theta_star=1e9)
        prob = _load_problem(cfg_t, cfg_t.seed)
        obs = _train_observations(cfg_t, prob, cfg_t.seed, cfg_t.ratio)
        z = predict_scores(prob.X, model)[obs.rows, obs.cols]
        assert model.theta > z.max()

    def test_sentinel_fallback_lies_above_huge_scores(self):
        z = np.array([1e17, 0.0])  # 1e17 + 1.0 == 1e17
        obs = ObservationSet(1, 2, np.zeros(2, dtype=int), np.arange(2), np.zeros(2))
        theta, result, degenerate = harness._tune_threshold(get_metric("micro_f1"), z, obs)
        assert degenerate and result.value == 0.0
        assert theta > z.max()

    def test_sentinel_fallback_rejects_scores_at_the_largest_float(self):
        z = np.array([np.finfo(float).max, 0.0])
        obs = ObservationSet(1, 2, np.zeros(2, dtype=int), np.arange(2), np.zeros(2))
        with np.errstate(all="raise"), pytest.raises(ValueError, match="largest finite"):
            harness._tune_threshold(get_metric("micro_f1"), z, obs)

    def test_huge_lambda_yields_constant_predictor(self, tmp_path):
        cfg = small_cfg("fit", tmp_path, lambda_reg=50.0)
        cmd_fit(cfg)
        model = load_model(open(os.path.join(str(tmp_path), "model.txt")))
        assert np.allclose(model.W1 @ model.W2.T, 0.0, atol=1e-6)
        res = cmd_threshold(small_cfg("threshold", tmp_path, lambda_reg=50.0))
        # all scores coincide, so the sweep sees a single labeling boundary
        assert res["train_value"] <= 1.0

    def test_plugin_solver_path(self, tmp_path):
        cfg = small_cfg("fit", tmp_path, solver="plugin")
        out = cmd_fit(cfg)
        model = load_model(open(out["model_path"]))
        assert model.W.shape == (5, 12)

    def test_pu_fit_runs_and_counts_all_entries(self, tmp_path):
        # at lambda_reg = 1e-3 this fit runs away below 0 and exits 1 (see
        # test_pu_runaway_fit_exits_1); 1e-2 bounds it
        cfg = small_cfg("fit", tmp_path, pu_rho=0.3, solver="prox_grad", lambda_reg=1e-2)
        out = cmd_fit(cfg)
        assert out["report"].converged
        model = load_model(open(out["model_path"]))
        assert np.all(np.isfinite(model.W))


def eval_problem(n, L, seed=0):
    """Features, labels and a dense model; the first two labels are never
    positive and score 0, so at a positive threshold their columns are
    degenerate."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    Y = (rng.random((n, L)) < 0.3).astype(np.int8)
    W = rng.normal(size=(6, L))
    Y[:, :2] = 0
    W[:, :2] = 0.0
    return X, Y, DenseModel(W=W)


def peak_per_entry(tmp_path, tuned):
    """Traced peak bytes of one _evaluate on a 2000 x 200 label matrix, per entry."""
    X, Y, model = eval_problem(2000, 200)
    cfg = small_cfg("eval", tmp_path)
    harness._evaluate(cfg, model, X, Y, tuned)
    tracemalloc.start()
    try:
        harness._evaluate(cfg, model, X, Y, tuned)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / Y.size


class TestEvaluate:
    def test_equals_scoring_each_metric_on_divmod_indices(self, tmp_path):
        X, Y, model = eval_problem(60, 9)
        cfg = small_cfg("eval", tmp_path)
        lo, hi = -0.4, 0.7
        tuned = {
            "macro_f1": (get_metric("macro_f1"), hi),
            "micro_f1": (get_metric("micro_f1"), lo),
            "instance_f1": (get_metric("instance_f1"), hi),
            "accuracy": (get_metric("accuracy"), hi),
            "jaccard": (get_metric("jaccard"), lo),
        }
        z = (X @ model.W).ravel()
        y = Y.ravel()
        rows, cols = np.divmod(np.arange(Y.size), Y.shape[1])
        want = {}
        for name, (spec, theta) in tuned.items():
            yhat = (z >= theta).astype(np.int8)
            groups = {"micro": None, "instance": rows, "macro": cols}[spec.mode]
            conf = confusion_micro(yhat, y) if groups is None else confusion_grouped(yhat, y, groups)
            want[name] = eval_metric_info(spec, conf)
        got = harness._evaluate(cfg, model, X, Y, tuned)
        assert list(got.items()) == list(want.items())
        assert got["macro_f1"].degenerate_groups > 0

    @pytest.mark.parametrize(
        "names, per_entry",
        [
            (("macro_f1", "instance_f1", "micro_f1"), 40),
            (("micro_f1",), 24),
            (("macro_f1",), 32),
        ],
    )
    def test_peak_memory_per_entry(self, tmp_path, names, per_entry):
        # scores (8 bytes an entry), the row or the column index of a metric
        # that groups by it (8), and the counting's work array (8)
        tuned = {name: (get_metric(name), 0.1) for name in names}
        assert peak_per_entry(tmp_path, tuned) <= per_entry

    def test_peak_memory_with_a_threshold_per_metric(self, tmp_path):
        # as above, with one prediction array (1 byte an entry) held at a time
        tuned = {name: (get_metric(name), 0.1 * i) for i, name in enumerate(sorted(METRIC_REGISTRY))}
        assert peak_per_entry(tmp_path, tuned) <= 28


class TestSynthCompare:
    def test_synth_then_compare(self, tmp_path):
        synth_cfg = small_cfg("synth", tmp_path / "synth", n=80, L=8, d=4, rank=2)
        paths = cmd_synth(synth_cfg)
        ds = parse_dataset(open(paths["data_path"]))
        assert (ds.n, ds.d, ds.L) == (80, 4, 8)

        cmp_cfg = small_cfg(
            "compare", tmp_path / "cmp",
            data_path=paths["data_path"], repeats=2, ratio=0.5,
            k=2, max_iters=40,
        )
        out = cmd_compare(cmp_cfg)
        rows = out["rows"]
        assert len(rows) == 4  # 2 methods x 2 metrics
        methods = {r.method for r in rows}
        assert methods == {"algorithm1", "plugin"}
        assert all(0.0 <= r.value <= 1.0 for r in rows)
        assert all(r.stderr >= 0.0 for r in rows)
        assert out["csv_path"] == str(tmp_path / "cmp" / "compare.csv")
        assert os.path.exists(out["csv_path"])

    def test_compare_requires_dataset(self, tmp_path):
        with pytest.raises(UsageError, match="data_path"):
            cmd_compare(small_cfg("compare", tmp_path))

    def test_compare_default_rank_rule(self, tmp_path):
        paths = cmd_synth(small_cfg("synth", tmp_path / "s", n=40, L=10, d=4, rank=2))
        cfg = small_cfg(
            "compare", tmp_path / "c",
            data_path=paths["data_path"], repeats=1, k=None, max_iters=20,
        )
        out = cmd_compare(cfg)  # k falls back to round(0.4 * L) = 4, capped by d
        assert len(out["rows"]) == 4

    def test_compare_stderr_is_standard_error_of_the_mean(self, tmp_path, monkeypatch):
        paths = cmd_synth(small_cfg("synth", tmp_path / "s", n=40, L=10, d=4, rank=2))
        cfg = small_cfg("compare", tmp_path / "c", data_path=paths["data_path"], repeats=3)

        def fake_trial(cfg, prob, seed, ratio, method, specs, X_e, Y_e):
            return {name: float(seed - cfg.seed) for name in specs}  # 0, 1, 2

        monkeypatch.setattr(harness, "_trial", fake_trial)
        rows = cmd_compare(cfg)["rows"]
        assert len(rows) == 4
        for row in rows:
            assert row.value == 1.0
            assert row.stderr == pytest.approx(1.0 / np.sqrt(3), rel=1e-12)


class TestConvergence:
    def test_small_grid_structure(self, tmp_path):
        cfg = small_cfg(
            "convergence", tmp_path,
            n=60, L=8, d=4, rank=2, ratios=(0.3, 0.6), repeats=2,
            metrics=("micro_f1",), max_iters=30,
        )
        out = cmd_convergence(cfg)
        summary = out["summary"]
        assert set(summary) == {
            (m, "micro_f1", r) for m in ("algorithm1", "plugin") for r in (0.3, 0.6)
        }
        csv_lines = open(out["csv_path"]).read().strip().split("\n")
        assert csv_lines[0] == "method,metric_name,ratio,mean,sd,config_hash"
        assert len(csv_lines) == 1 + 4
        svg = open(out["plot_paths"][0]).read()
        assert svg.count("<polyline") == 2

    def test_full_observation_reaches_high_f1_for_both_methods(self, tmp_path):
        cfg = small_cfg(
            "convergence", tmp_path,
            n=150, L=12, d=5, rank=2, ratios=(1.0,), repeats=2,
            metrics=("micro_f1",), max_iters=80,
        )
        summary = cmd_convergence(cfg)["summary"]
        assert summary[("algorithm1", "micro_f1", 1.0)][0] >= 0.95
        assert summary[("plugin", "micro_f1", 1.0)][0] >= 0.95

    def test_failed_trial_cancels_queued_trials(self, monkeypatch):
        monkeypatch.setenv("NONDECOMP_THREADS", "2")
        calls = []

        def fn(cell, rep):
            calls.append(cell)
            if cell == (0,):
                raise UsageError("first trial fails")
            time.sleep(0.05)
            return cell

        with pytest.raises(UsageError, match="first trial fails"):
            harness._over_repeats(ExperimentConfig(repeats=1), ("i",), product(range(40)), fn)
        assert len(calls) < 10

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        kw = dict(
            n=60, L=8, d=4, rank=2, ratios=(0.3, 0.6), repeats=2,
            metrics=("micro_f1",), max_iters=30,
        )
        monkeypatch.delenv("NONDECOMP_THREADS", raising=False)
        seq = cmd_convergence(small_cfg("convergence", tmp_path / "seq", **kw))
        monkeypatch.setenv("NONDECOMP_THREADS", "3")
        par = cmd_convergence(small_cfg("convergence", tmp_path / "par", **kw))
        # identical values; the config hash column differs because the
        # output directories are part of the configs
        def strip_hash(text):
            return "\n".join(line.rsplit(",", 1)[0] for line in text.split("\n"))

        assert strip_hash(open(seq["csv_path"]).read()) == strip_hash(
            open(par["csv_path"]).read()
        )
        assert open(seq["plot_paths"][0]).read() == open(par["plot_paths"][0]).read()


class TestRateCheck:
    def test_needs_bernoulli(self, tmp_path):
        with pytest.raises(UsageError, match="bernoulli"):
            cmd_rate_check(small_cfg("rate_check", tmp_path))

    def test_needs_three_grid_points(self, tmp_path):
        cfg = small_cfg(
            "rate_check", tmp_path, noise_model="bernoulli_logistic",
            grid_points=2,
        )
        with pytest.raises(UsageError, match="3 grid points"):
            cmd_rate_check(cfg)

    def test_small_run_outputs(self, tmp_path, capsys):
        cfg = small_cfg(
            "rate_check", tmp_path,
            n=40, L=10, d=4, rank=2, noise_model="bernoulli_logistic",
            solver="prox_grad", lambda_reg=None, lambda_c=0.05,
            grid_points=3, repeats=2, max_iters=150,
        )
        res = cmd_rate_check(cfg)
        assert np.isfinite(res["slope"])
        assert all(mean > 0 for mean, _ in res["points"].values())
        lines = open(res["csv_path"]).read().strip().split("\n")
        assert len(lines) == 1 + 6  # two modes x three grid points
        # every one of the 12 fits is counted under its stop reason
        assert capsys.readouterr().out.splitlines()[-1] == "rate_check: stop reasons rel_tol=12"

    def test_stop_reasons_count_fits_that_did_not_converge(self, tmp_path, capsys):
        cfg = small_cfg(
            "rate_check", tmp_path,
            n=40, L=10, d=4, rank=2, noise_model="bernoulli_logistic",
            solver="prox_grad", lambda_reg=None, lambda_c=0.05,
            grid_points=3, repeats=1, max_iters=2,
        )
        cmd_rate_check(cfg)
        assert capsys.readouterr().out.splitlines()[-1] == "rate_check: stop reasons max_iters=6"


class TestCli:
    def write_config(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    BASE = (
        "n = 60\nL = 8\nd = 4\nrank = 2\nratio = 0.5\nk = 2\n"
        "lambda_reg = 1e-4\nmax_iters = 40\nsolver = alt_min\n"
    )

    def test_full_cli_pipeline(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg]) == 0
        assert main(["threshold", cfg]) == 0
        assert main(["eval", cfg]) == 0
        out = capsys.readouterr().out
        assert "fit:" in out and "threshold:" in out and "eval:" in out
        assert "stop=rel_tol" in out or "stop=max_iters" in out

    def test_override_changes_seed(self, tmp_path):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/o1\n")
        assert main(["fit", cfg, "--seed=3", f"--out_dir={tmp_path}/o2"]) == 0
        assert os.path.exists(tmp_path / "o2" / "model.txt")

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["fit", str(tmp_path / "absent.cfg")]) == 2

    def test_unknown_task(self, tmp_path):
        cfg = self.write_config(tmp_path, self.BASE)
        assert main(["train", cfg]) == 2

    def test_bad_override(self, tmp_path):
        cfg = self.write_config(tmp_path, self.BASE)
        assert main(["fit", cfg, "seed=3"]) == 2

    def test_unknown_metric_is_usage_error(self, tmp_path):
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\nmetric = f2\n"
        )
        assert main(["fit", cfg]) == 0
        assert main(["threshold", cfg]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # rank-deficient features break the score-norm solver
        data = tmp_path / "deficient.txt"
        lines = ["8 2 2"]
        rng = np.random.default_rng(0)
        for i in range(8):
            label = "0" if rng.random() < 0.5 else ""
            lines.append(f"{label} 0:{rng.normal():.3f}")
        data.write_text("\n".join(lines) + "\n")
        cfg = self.write_config(
            tmp_path,
            f"data_path = {data}\nout_dir = {tmp_path}/out\nratio = 1.0\n"
            "solver = prox_grad\nregularizer_mode = score_norm\nmax_iters = 10\n",
        )
        assert main(["fit", cfg]) == 1

    def test_nonfinite_feature_exit_code(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("3 2 2\n0 0:0.5 1:1.0\n1 0:-0.5\n0 0:0.25 1:nan\n")
        cfg = self.write_config(
            tmp_path,
            f"data_path = {data}\nout_dir = {tmp_path}/out\nratio = 1.0\nsolver = plugin\n",
        )
        assert main(["fit", cfg]) == 2
        assert "line 4: non-finite feature value '1:nan'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "model.txt")

    @pytest.mark.parametrize("task", ["fit", "threshold"])
    def test_header_beyond_the_address_space_exit_code(self, tmp_path, capsys, task):
        # numpy refuses the shape before allocating anything
        data = tmp_path / "wide.txt"
        data.write_text("2 4611686018427387904 3\n0 0:1\n1 1:2\n")
        cfg = self.write_config(
            tmp_path,
            f"data_path = {data}\nout_dir = {tmp_path}/out\nratio = 1.0\nsolver = plugin\n",
        )
        assert main([task, cfg]) == 2
        assert (f"error: dataset {str(data)!r}: line 1: 2 x 4611686018427387904 features "
                "and 2 x 3 labels are too large to hold as dense arrays") in capsys.readouterr().err

    def test_dense_allocation_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def refuse(ds):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(SparseDataset, "to_dense_X", refuse)
        data = tmp_path / "ok.txt"
        data.write_text("2 3 2\n0 0:1\n1 1:2\n")
        cfg = self.write_config(
            tmp_path,
            f"data_path = {data}\nout_dir = {tmp_path}/out\nratio = 1.0\nsolver = plugin\n",
        )
        assert main(["fit", cfg]) == 2
        assert (f"error: dataset {str(data)!r}: line 1: 2 x 3 features and 2 x 2 labels are "
                "too large to hold as dense arrays (Unable to allocate)") in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "model.txt")

    @pytest.mark.parametrize("val", ["inf", "nan"])
    def test_nonfinite_theta_exit_code(self, tmp_path, capsys, val):
        cfg = self.write_config(
            tmp_path,
            self.BASE.replace("solver = alt_min", "solver = plugin") + f"out_dir = {tmp_path}/out\n",
        )
        assert main(["fit", cfg]) == 0
        assert main(["threshold", cfg]) == 0
        model = tmp_path / "out" / "model.txt"
        lines = model.read_text().split("\n")
        assert lines[2].startswith("theta ")
        lines[2] = f"theta {val}"
        model.write_text("\n".join(lines))
        capsys.readouterr()
        assert main(["eval", cfg]) == 2
        assert f"line 3: non-finite theta '{val}'" in capsys.readouterr().err

    def write_dataset_file(self, tmp_path, name, n, d, L):
        rng = np.random.default_rng(n * 100 + d * 10 + L)
        ds = SparseDataset(
            n=n, d=d, L=L,
            features=[list(enumerate(rng.normal(size=d).tolist())) for _ in range(n)],
            labels=[set(np.flatnonzero(rng.random(L) < 0.3).tolist()) for _ in range(n)],
        )
        path = tmp_path / name
        with open(path, "w") as fh:
            write_dataset(ds, fh)
        return str(path)

    def test_model_data_dimension_mismatch_exit_code(self, tmp_path, capsys):
        train = self.write_dataset_file(tmp_path, "l20.txt", 40, 5, 20)
        wide = self.write_dataset_file(tmp_path, "l30.txt", 40, 5, 30)
        cfg = self.write_config(
            tmp_path, f"data_path = {train}\nout_dir = {tmp_path}/out\nsolver = plugin\n"
            "ratio = 0.5\nmetrics = micro_f1\n",
        )
        assert main(["fit", cfg]) == 0
        assert main(["threshold", cfg]) == 0
        for task in ("threshold", "eval"):
            capsys.readouterr()
            assert main([task, cfg, f"--data_path={wide}"]) == 2
            err = capsys.readouterr().err
            assert "d = 5, L = 20" in err and "d = 5, L = 30" in err

    @pytest.mark.parametrize("dims, body, message", [
        ("60000000 2000000", "0 0\n", "line 2: truncated stream"),
        ("-1 2", "", "line 2: negative dims"),
        ("4 8", "0 0 0 0 0 0 0 0\n" * 4 + "3 4\nfoo bar baz\n", "line 8: unexpected line"),
    ], ids=["huge", "negative", "trailing"])
    def test_bad_model_file_exit_code(self, tmp_path, capsys, dims, body, message):
        (tmp_path / "model.txt").write_text(f"nondecomp-model dense\ndims {dims}\ntheta 0\n{body}")
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\nmodel_path = {tmp_path}/model.txt\n"
        )
        for task in ("threshold", "eval"):
            assert main([task, cfg]) == 2
            assert message in capsys.readouterr().err

    def test_eval_test_path_feature_mismatch_exit_code(self, tmp_path, capsys):
        train = self.write_dataset_file(tmp_path, "d5.txt", 40, 5, 20)
        test = self.write_dataset_file(tmp_path, "d7.txt", 30, 7, 20)
        cfg = self.write_config(
            tmp_path, f"data_path = {train}\nout_dir = {tmp_path}/out\nsolver = plugin\n"
            "ratio = 0.5\nmetrics = micro_f1\n",
        )
        assert main(["fit", cfg]) == 0
        assert main(["threshold", cfg]) == 0
        assert main(["eval", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", cfg, f"--test_path={test}"]) == 2
        err = capsys.readouterr().err
        assert "d = 5, L = 20" in err and "d = 7, L = 20" in err

    def test_format_error_names_the_file(self, tmp_path, capsys):
        # data_path and test_path can hold the same error; the path tells them apart
        train = self.write_dataset_file(tmp_path, "train.txt", 40, 5, 20)
        bad = tmp_path / "bad.txt"
        bad.write_text("2 5 20\n0 0:1\n1 1:x\n")
        cfg = self.write_config(
            tmp_path, f"data_path = {train}\nout_dir = {tmp_path}/out\nsolver = plugin\n"
            "ratio = 0.5\nmetrics = micro_f1\n",
        )
        assert main(["fit", cfg]) == 0
        assert main(["threshold", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", cfg, f"--test_path={bad}"]) == 2
        assert f"error: dataset {str(bad)!r}: line 3: bad feature token '1:x'" in (
            capsys.readouterr().err
        )
        model = tmp_path / "out" / "model.txt"
        lines = model.read_text().split("\n")
        lines[2] = "theta abc"
        model.write_text("\n".join(lines))
        assert main(["eval", cfg]) == 2
        assert f"error: model {str(model)!r}: line 3: bad theta 'abc'" in capsys.readouterr().err

    def test_undecodable_dataset_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "bytes.txt"
        data.write_bytes(b"3 2 2\n0 0:0.5 1:1.0\n1 0:-0.5\n0 0:0.25 1:\xff\n")
        cfg = self.write_config(
            tmp_path,
            f"data_path = {data}\nout_dir = {tmp_path}/out\nratio = 1.0\nsolver = plugin\n",
        )
        assert main(["fit", cfg]) == 2
        assert f"error: dataset {str(data)!r}: line 4: byte 0xff is not " in (
            capsys.readouterr().err
        )
        assert not os.path.exists(tmp_path / "out" / "model.txt")

    def test_undecodable_model_names_file_and_line(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg]) == 0
        model = tmp_path / "out" / "model.txt"
        lines = model.read_bytes().split(b"\n")
        lines[2] = b"theta \xff"
        model.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["threshold", cfg]) == 2
        assert f"error: model {str(model)!r}: line 3: byte 0xff is not " in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("extra, where", [
        ("not a pair\n", "line 11: expected 'key = value'"),
        ("n = 50\n", "line 11: key 'n' is already set on line 1"),
    ], ids=["syntax", "repeated_key"])
    def test_config_error_names_file_and_line(self, tmp_path, capsys, extra, where):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n" + extra)
        assert main(["fit", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {cfg!r}: {where}\n")
        assert not os.path.exists(tmp_path / "out")

    def test_undecodable_config_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(self.BASE.encode() + b"# caf\xe9\n" + f"out_dir = {tmp_path}\n".encode())
        assert main(["fit", str(path)]) == 2
        assert f"error: config {str(path)!r}: line 10: byte 0xe9 is not " in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("task", ["threshold", "eval"])
    def test_nonpositive_gamma_clip_exit_code(self, tmp_path, capsys, task):
        cfg = self.write_config(
            tmp_path,
            self.BASE.replace("solver = alt_min", "solver = plugin") + f"out_dir = {tmp_path}/out\n",
        )
        assert main(["fit", cfg]) == 0
        assert main(["threshold", cfg]) == 0
        capsys.readouterr()
        assert main([task, cfg, "--gamma_clip=-1"]) == 2
        assert "gamma_clip must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["synth", "convergence", "rate_check"])
    def test_synthetic_task_rejects_data_path(self, tmp_path, capsys, task):
        data = self.write_dataset_file(tmp_path, "n80.txt", 80, 4, 8)
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\ndata_path = {data}\n"
            "noise_model = bernoulli_logistic\nrepeats = 1\nratios = 0.5\n",
        )
        assert main([task, cfg]) == 2
        assert f"{task} needs a synthetic problem" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("override, message", [
        ("--ratios=", "convergence needs at least one value in ratios"),
        ("--methods=", "convergence needs at least one value in methods"),
        ("--metrics=", "convergence needs at least one value in metrics"),
        ("--ratios=0.3,0.3", "ratios repeats a value: 0.3,0.3"),
    ], ids=["ratios", "methods", "metrics", "repeated_ratios"])
    def test_convergence_empty_list_exit_code(self, tmp_path, capsys, override, message):
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\nrepeats = 1\nratios = 0.5\n",
        )
        assert main(["convergence", cfg, override]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("task, extra, message", [
        ("synth", "--n=", "missing: n"),
        ("fit", "--data_path={tmp}/absent.txt", "cannot read dataset"),
        ("eval", "--data_path={tmp}/absent.txt", "cannot read dataset"),
        ("compare", "--repeats=1", "compare needs data_path"),
        ("eval", "--metrics=", "eval needs at least one value in metrics"),
        ("eval", "--metrics=micro_f1,micro_f1", "metrics repeats a value"),
        ("eval", "--metrics=micro_f1,f2", "metrics: unknown metric 'f2'"),
        ("convergence", "--ridge=nan", "ridge must be finite and nonnegative"),
        ("rate_check", "--omegas=100,200,400", "unknown config key 'omegas'"),
        ("synth", "--noise_model=gaussian", "synth needs binary labels"),
        ("threshold", "--noise_model=gaussian", "threshold needs binary labels"),
        ("eval", "--noise_model=gaussian", "eval needs binary labels"),
        ("convergence", "--noise_model=gaussian", "convergence needs binary labels"),
    ], ids=["synth", "fit", "eval", "compare",
            "eval_empty_metrics", "eval_repeated_metrics", "eval_unknown_metric",
            "convergence_nan_ridge", "rate_check_omegas",
            "synth_gaussian", "threshold_gaussian", "eval_gaussian", "convergence_gaussian"])
    def test_rejected_run_leaves_no_out_dir(self, tmp_path, capsys, task, extra, message):
        # a thresholded model outside out_dir, so eval gets as far as it can
        with open(tmp_path / "model.txt", "w") as fh:
            save_model(DenseModel(W=np.zeros((4, 8)), theta=0.0), fh)
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\nmodel_path = {tmp_path}/model.txt\n"
        )
        assert main([task, cfg, extra.format(tmp=tmp_path)]) == 2
        error_line = capsys.readouterr().err.splitlines()[0]
        assert error_line.startswith("error:") and message in error_line
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("override, key", [
        ("--loss=logistic", "loss = logistic"),
        ("--loss=squared", "loss = squared"),
        ("--loss=exponential", "loss = exponential"),
        ("--solver=plugin", "solver = plugin"),
    ])
    def test_real_valued_labels_need_gaussian_loss(self, tmp_path, capsys, override, key):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg, "--noise_model=gaussian", override]) == 2
        error_line = capsys.readouterr().err.splitlines()[0]
        assert error_line == (
            f"error: {key} needs binary labels; the gaussian noise model is real-valued"
        )
        assert not os.path.exists(tmp_path / "out")

    def test_real_valued_labels_exit_2_before_generating(self, tmp_path, capsys, monkeypatch):
        def no_problem(*args):
            raise AssertionError("problem generated")

        monkeypatch.setattr(harness, "generate_problem", no_problem)
        monkeypatch.setattr(harness, "gen_lowrank_W", no_problem)
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        for task, *extra in (["synth"], ["threshold"], ["eval"], ["convergence"],
                             ["fit", "--loss=gaussian", "--pu_rho=0.3"]):
            assert main([task, cfg, "--noise_model=gaussian", *extra]) == 2
            error_line = capsys.readouterr().err.splitlines()[0]
            assert error_line.endswith("needs binary labels; the gaussian noise model is real-valued")
            assert not os.path.exists(tmp_path / "out")

    def test_real_valued_labels_fit_with_gaussian_loss(self, tmp_path):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg, "--noise_model=gaussian", "--loss=gaussian"]) == 0
        assert os.path.exists(tmp_path / "out" / "model.txt")

    def test_default_rank_is_capped_by_d(self, tmp_path):
        # round(0.4 * L) = 12 exceeds d = 5, so the default rank is 5
        data = self.write_dataset_file(tmp_path, "l30.txt", 60, 5, 30)
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\ndata_path = {data}\n"
        )
        assert main(["fit", cfg, "--k=none"]) == 0
        model = load_model(open(tmp_path / "out" / "model.txt"))
        assert model.W1.shape == (5, 5) and model.W2.shape == (30, 5)

    def test_default_rank_of_a_synthetic_fit_is_its_rank(self, tmp_path):
        # the dataset rule would give min(round(0.4 * 8), 4) = 3
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg, "--k=none"]) == 0
        model = load_model(open(tmp_path / "out" / "model.txt"))
        assert model.W1.shape == (4, 2) and model.W2.shape == (8, 2)

    def test_plugin_fit_reports_its_own_objective(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg, "--solver=plugin"]) == 0
        assert "stop=rel_tol" in capsys.readouterr().out
        lines = open(tmp_path / "out" / "trace.csv").read().split()
        assert lines[0] == "iteration,objective"
        trace = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(trace) > 1 and all(b <= a for a, b in zip(trace, trace[1:]))
        # from W = 0 each of the 8 labels, all observed at ratio 0.5, adds log 2
        assert trace[0] == pytest.approx(8 * np.log(2), rel=1e-15)

    def test_prox_grad_fit_of_shipped_small_config_converges(self, tmp_path, capsys):
        # the steps this fit needs lie far above the first trial of 1; the
        # adaptive Barzilai-Borwein first trials reach them, so it stops at
        # rel_tol well inside its 400 iterations (after 106)
        cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "synth_small.cfg"
        assert main(["fit", str(cfg), "--solver=prox_grad", f"--out_dir={tmp_path}/out"]) == 0
        out = capsys.readouterr().out
        assert "stop=rel_tol" in out and "converged=True" in out

    def test_alt_min_fit_at_huge_lambda_reaches_zero(self, tmp_path, capsys):
        # at lambda_reg = 1e150 the Newton system's squared norms would
        # overflow; CG solves it scaled by a power of two, so the fit
        # takes its steps to W = 0, where prox_grad ends too
        cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "synth_small.cfg"
        assert main(["fit", str(cfg), "--lambda_reg=1e150", f"--out_dir={tmp_path}/out"]) == 0
        out = capsys.readouterr().out
        assert "converged=True" in out and "objective=0.693147 rank=0" in out
        assert "iterations=0" not in out

    @pytest.mark.parametrize("overrides, key", [
        (["--lambda_reg=nan"], "lambda_reg"),
        (["--lambda_reg=inf"], "lambda_reg"),
        (["--lambda_reg=none", "--lambda_c=-1"], "lambda_c"),
        (["--lambda_reg=none", "--lambda_c=nan"], "lambda_c"),
        (["--theta_star=nan"], "theta_star"),
        (["--wstar_scale=nan"], "wstar_scale"),
        (["--wstar_scale=inf"], "wstar_scale"),
        (["--noise_sigma=inf"], "noise_sigma"),
        (["--lambda_reg=none", "--regularizer_mode=score_norm"], "regularizer_mode"),
        (["--solver=plugin", "--ridge=nan"], "ridge"),
        (["--solver=plugin", "--ridge=inf"], "ridge"),
        (["--solver=plugin", "--ridge=-1"], "ridge"),
        (["--rel_tol=inf"], "rel_tol"),
        (["--seed=-1"], "seed"),
        (["--repeats=0"], "repeats"),
        (["--ratios=0.5,1.5"], "ratios"),
        (["--pu_rho=1"], "pu_rho"),
        (["--solver=foo"], "solver"),
        (["--n=abc"], "config key 'n'"),
        (["--ratio=1e-9"], "ratio"),
        # experiment commands under PU; a case that runs a task other than
        # fit names it first
        (["convergence", "--pu_rho=0.3", "--ratios=0.1,0.3"], "ratios"),
        (["rate_check", "--noise_model=bernoulli_logistic", "--pu_rho=0.3"], "pu_rho"),
        (["eval", "--test_path=absent.txt"], "test_path"),
        (["rate_check", "--noise_model=bernoulli_logistic", "--n=1", "--L=2", "--grid_points=3"],
         "omega grid must lie in [1, 2]"),
        # a score-norm fit needs features of full column rank, and generated
        # features have rank min(n, d)
        (["--n=3", "--solver=prox_grad", "--regularizer_mode=score_norm"], "n = 3 < d = 4"),
        (["rate_check", "--noise_model=bernoulli_logistic", "--n=3"], "n = 3 < d = 4"),
    ])
    def test_bad_value_exits_2_before_fitting(self, tmp_path, capsys, overrides, key):
        task, *overrides = ["fit", *overrides] if overrides[0].startswith("--") else overrides
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main([task, cfg, *overrides]) == 2
        error_line = capsys.readouterr().err.splitlines()[0]
        assert error_line.startswith("error:") and key in error_line
        assert not os.path.exists(tmp_path / "out")

    def test_out_dir_that_is_a_file_exit_code(self, tmp_path, capsys):
        (tmp_path / "out").write_text("")
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg, "--solver=plugin"]) == 2
        assert "cannot create out_dir" in capsys.readouterr().err

    def test_model_path_in_missing_dir_exits_2_before_loading(self, tmp_path, capsys, monkeypatch):
        def no_data(*args):
            raise AssertionError("data loaded")

        monkeypatch.setattr(harness, "_load_problem", no_data)
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        (tmp_path / "folder").mkdir()
        # a path in a missing directory, then a path that is a directory
        for path in (tmp_path / "absent" / "model.txt", tmp_path / "folder"):
            assert main(["fit", cfg, f"--model_path={path}"]) == 2
            error_line = capsys.readouterr().err.splitlines()[0]
            assert "model_path" in error_line and str(path) in error_line
            assert not os.path.exists(tmp_path / "out")

    def test_unknown_metric_exits_2_before_loading(self, tmp_path, capsys, monkeypatch):
        def no_data(*args):
            raise AssertionError("data loaded")

        monkeypatch.setattr(harness, "_load_problem", no_data)
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["threshold", cfg, "--metric=bogus"]) == 2
        assert capsys.readouterr().err.startswith("error: metric: unknown metric 'bogus'")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("solver", ["alt_min", "prox_grad"])
    def test_pu_runaway_fit_exits_1(self, tmp_path, capsys, solver):
        # noise-free labels leave the PU-corrected risk unbounded below; the
        # fit stops once its objective turns negative, and writes nothing
        cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "synth_small.cfg"
        out = tmp_path / "out"
        args = [f"--solver={solver}", "--pu_rho=0.3", f"--out_dir={out}"]
        assert main(["fit", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: objective -") and "lambda_reg" in err
        assert not os.path.exists(out)

    def test_pu_runaway_convergence_exits_1(self, tmp_path, capsys, monkeypatch):
        # a run-away trial stops the experiment as it stops fit, with the
        # same message at any thread count, and nothing is written
        cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "convergence.cfg"
        out = tmp_path / "out"
        args = ["--pu_rho=0.3", "--n=200", "--L=20", "--d=6", "--rank=2", "--k=2",
                "--ratios=0.3", "--repeats=1", f"--out_dir={out}"]
        errors = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NONDECOMP_THREADS", threads)
            assert main(["convergence", str(cfg), *args]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("numerical failure: objective -") and "lambda_reg" in errors[0]
        assert not os.path.exists(out)

    def test_pu_runaway_error_names_its_cell(self, tmp_path, capsys):
        # the grid runner appends the cell and repeat of the fit that ran away
        cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "convergence.cfg"
        args = ["--pu_rho=0.3", "--n=200", "--L=20", "--d=6", "--rank=2", "--k=2",
                "--ratios=0.3", "--repeats=1", f"--out_dir={tmp_path}/out"]
        assert main(["convergence", str(cfg), *args]) == 1
        line = capsys.readouterr().err.splitlines()[0]
        assert line.startswith("numerical failure: objective -") and "lambda_reg" in line
        assert line.endswith("(method=algorithm1, ratio=0.3, repeat=0)")

    def test_pu_runaway_compare_exits_1(self, tmp_path, capsys):
        cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "synth_small.cfg"
        assert main(["synth", str(cfg), f"--out_dir={tmp_path}/synth"]) == 0
        out = tmp_path / "out"
        args = [f"--data_path={tmp_path}/synth/dataset.txt", "--pu_rho=0.3", "--repeats=1",
                f"--out_dir={out}"]
        capsys.readouterr()
        assert main(["compare", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: objective -") and "lambda_reg" in err
        assert not os.path.exists(out)
        # a lambda_reg large enough to keep the PU-corrected risk above 0
        assert main(["compare", str(cfg), *args, "--lambda_reg=0.05"]) == 0
        assert os.path.exists(out / "compare.csv")

    def test_model_path_may_lie_in_the_new_out_dir(self, tmp_path):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg, f"--model_path={tmp_path}/out/m.txt"]) == 0
        assert os.path.exists(tmp_path / "out" / "m.txt")

    def test_unwritable_results_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, self.BASE + f"out_dir = {tmp_path}/out\n")
        assert main(["fit", cfg]) == 0
        assert main(["threshold", cfg]) == 0
        results = tmp_path / "out" / "results.csv"
        results.mkdir()
        capsys.readouterr()
        assert main(["eval", cfg]) == 2
        assert str(results) in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("--metrics=", "metrics"),
        ("--metrics=micro_f1,f2", "metrics"),
        ("--methods=", "methods"),
        ("--methods=algorithm1,bogus", "methods"),
        ("--methods=plugin,plugin", "methods"),
    ])
    def test_compare_rejects_methods_and_metrics_before_work(
        self, tmp_path, capsys, override, key
    ):
        data = self.write_dataset_file(tmp_path, "n80.txt", 80, 4, 8)
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\ndata_path = {data}\nrepeats = 1\n",
        )
        assert main(["compare", cfg, override]) == 2
        error_line = capsys.readouterr().err.splitlines()[0]
        assert error_line.startswith("error:") and key in error_line
        assert not os.path.exists(tmp_path / "out")

    def test_compare_scores_the_test_file(self, tmp_path, capsys):
        data = self.write_dataset_file(tmp_path, "n80.txt", 80, 4, 8)
        test = self.write_dataset_file(tmp_path, "n50.txt", 50, 4, 8)
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\ndata_path = {data}\n"
            f"test_path = {test}\nrepeats = 1\n",
        )
        assert main(["compare", cfg]) == 0
        rows = open(tmp_path / "out" / "compare.csv").read().splitlines()[1:]
        assert len(rows) == 4 and all(row.split(",")[2] == "test" for row in rows)
        assert all("[test]" in line for line in capsys.readouterr().out.splitlines())

    def test_compare_test_file_dimension_mismatch_exit_code(self, tmp_path, capsys):
        data = self.write_dataset_file(tmp_path, "n80.txt", 80, 4, 8)
        wide = self.write_dataset_file(tmp_path, "d5.txt", 50, 5, 8)
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\ndata_path = {data}\n"
            f"test_path = {wide}\nrepeats = 1\n",
        )
        assert main(["compare", cfg]) == 2
        assert "test dataset dimensions do not match" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("overrides, grid", [
        (["--n=1", "--L=1", "--grid_points=3"], "0,0,1"),
        (["--grid_points=2"], "240,480"),
    ], ids=["repeated", "two_points"])
    def test_rate_check_grid_needs_three_distinct_points(self, tmp_path, capsys, overrides, grid):
        cfg = self.write_config(
            tmp_path, self.BASE + f"out_dir = {tmp_path}/out\nnoise_model = bernoulli_logistic\n",
        )
        assert main(["rate_check", cfg, *overrides]) == 2
        err = capsys.readouterr().err
        assert "at least 3 grid points, all distinct" in err and f"grid_points gives {grid}" in err
        assert not os.path.exists(tmp_path / "out")

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_module_execution(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "nondecomp", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "usage:" in proc.stdout

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_text = (
            "n = 50\nL = 6\nd = 3\nrank = 2\nratios = 0.4,0.8\nrepeats = 2\n"
            "metrics = micro_f1\nk = 2\nlambda_reg = 1e-4\nmax_iters = 25\n"
        )
        outputs = []
        for run in ("a", "b"):
            cfg = self.write_config(tmp_path, cfg_text + f"out_dir = {tmp_path}/{run}\n")
            assert main(["convergence", cfg]) == 0
            csv = open(tmp_path / run / "convergence.csv").read()
            svg = open(tmp_path / run / "convergence_micro_f1.svg").read()
            outputs.append((csv, svg))
        # identical modulo the embedded config hash, which covers out_dir
        h_a = outputs[0][0].split("\n")[1].rsplit(",", 1)[1]
        h_b = outputs[1][0].split("\n")[1].rsplit(",", 1)[1]
        assert outputs[0][0].replace(h_a, "H") == outputs[1][0].replace(h_b, "H")
        assert outputs[0][1] == outputs[1][1]


class TestModelTruthRoundTrip:
    def test_synth_dataset_holds_the_generated_problem(self, tmp_path):
        cfg = small_cfg("synth", tmp_path, n=30, L=6, d=4, rank=2)
        paths = cmd_synth(cfg)
        X, _, Y = generate_problem(harness._synthetic_spec(cfg, cfg.seed))
        ds = parse_dataset(open(paths["data_path"]))
        assert ds.to_dense_X().tobytes() == X.tobytes()
        np.testing.assert_array_equal(ds.label_matrix(), (Y == 1).astype(np.int8))

    def test_synth_wstar_matches_generator(self, tmp_path):
        cfg = small_cfg("synth", tmp_path, n=30, L=6, d=4, rank=2)
        paths = cmd_synth(cfg)
        spec = SyntheticSpec(n=30, L=6, d=4, rank=2, seed=0)
        W_star = gen_lowrank_W(spec)
        model = load_model(open(paths["wstar_path"]))
        np.testing.assert_allclose(model.W, W_star, atol=1e-12)
