"""The benchmark's three workloads.

Each workload is a closed loop of CLI tasks: one pass runs its tasks back to
back through ``nondecomp.cli.main`` in this process, and a pass starts only
after the previous one has ended. Inputs depend only on the seed and the
scale. After each task, outside the timed region, the workload checks the
task's outputs; a problem found there fails the task.

Scales: ``full`` is the benchmark; ``tiny`` is the warm-up pass run at
set-up and the size the benchmark's own tests use.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import re
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

from nondecomp import cli
from nondecomp.dataset_io import (
    SparseDataset,
    load_model,
    mask_observations,
    parse_dataset,
    write_dataset,
)
from nondecomp.estimator import predict_scores
from nondecomp.metrics import apply_threshold, confusion_grouped, eval_metric_info, get_metric
from nondecomp.sampler import (
    OmegaDistribution,
    SyntheticSpec,
    gen_features,
    generate_problem,
    sample_labels,
)


@dataclass
class Task:
    """One ``cli.main`` call and the check of its outputs.

    ``check`` takes the task's standard output and returns a list of
    problems; it runs outside the timed region.
    """

    argv: list
    check: object = None


@dataclass
class TaskOutcome:
    task: str
    seconds: float
    problems: list


@dataclass
class PassResult:
    outcomes: list
    digest: str

    @property
    def wall(self):
        """Timed seconds of the pass: its cli.main calls."""
        return sum(o.seconds for o in self.outcomes)


def run_cli(argv, tracer=None, run_id=""):
    """Run one CLI task; returns (exit code, standard output, traceback or None)."""
    out = io.StringIO()
    code, error = None, None
    span = tracer.root("cli.main", run_id) if tracer is not None else contextlib.nullcontext()
    with span:
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:
            # a crash inside the program fails this task, not the benchmark
            error = traceback.format_exc()
    return code, out.getvalue(), error


def run_pass(workload, tasks=None, tracer=None, run_id=""):
    """Run the workload's tasks once into a fresh output directory.

    The timed part of a task is its ``cli.main`` call alone; the output
    check and the digest of the output files run between the timed parts.
    """
    if tasks is None:
        shutil.rmtree(workload.out_dir, ignore_errors=True)
        tasks = workload.tasks()
    outcomes = []
    for task in tasks:
        start = time.perf_counter()
        code, stdout, error = run_cli(task.argv, tracer, run_id)
        seconds = time.perf_counter() - start
        if error is not None:
            problems = [f"exception: {error.strip().splitlines()[-1]}"]
        elif code != 0:
            problems = [f"exit code {code}"]
        elif task.check is None:
            problems = []
        else:
            try:
                problems = list(task.check(stdout))
            except Exception as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        outcomes.append(TaskOutcome(task.argv[0], seconds, problems))
    return PassResult(outcomes, digest_tree(workload.out_dir))


def run_phase(workload, budget, tracer=None, label="untraced"):
    """Passes until the next one would overrun ``budget`` seconds; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        run_id = f"{workload.name}/{workload.seed}/{label}{len(passes)}"
        passes.append(run_pass(workload, tracer=tracer, run_id=run_id))
        now = time.perf_counter()
        if now - start + (now - before) > budget:
            return passes


def digest_tree(path):
    """SHA-256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Inputs, tasks and output checks of one workload at one seed and scale.

    ``values`` holds the quality figures the last pass's checks read from
    the outputs; ``error()`` folds them into the workload's error metric.
    """

    name = ""
    why = ""
    error_definition = ""

    def __init__(self, root, work, seed, scale="full"):
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        self.root = root
        self.seed = seed
        self.scale = scale
        self.out_dir = os.path.join(work, "out")
        self.values = {}

    def config(self, name):
        return os.path.join(self.root, "configs", name)

    def setup(self):
        """Write the workload's input files, if it has any."""

    def tasks(self):
        raise NotImplementedError

    def error(self):
        raise NotImplementedError


class LowrankConvergence(Workload):
    name = "lowrank_convergence"
    why = ("the paper's headline experiment; over 90% of the time is in fit_alt_min, "
           "so alt_min speed-ups show here and sweep rewrites should not")
    error_definition = "1 - algorithm1 test micro-F1, averaged over the two ratios"

    RATIOS = (0.05, 0.3)
    SIZES = {
        "full": dict(n=1000, L=100, d=10, rank=5, k=5, max_iters=100),
        "tiny": dict(n=200, L=20, d=6, rank=2, k=2, max_iters=15),
    }

    def tasks(self):
        sizes = [f"--{key}={val}" for key, val in self.SIZES[self.scale].items()]
        argv = [
            "convergence", self.config("convergence.cfg"),
            f"--out_dir={self.out_dir}", f"--seed={self.seed}",
            "--ratios=" + ",".join(str(r) for r in self.RATIOS),
            "--methods=algorithm1,plugin", "--metrics=micro_f1,accuracy", "--repeats=1",
            *sizes,
        ]
        return [Task(argv, self._check)]

    def _check(self, stdout):
        means = {
            (row["method"], row["metric_name"], float(row["ratio"])): float(row["mean"])
            for row in _read_csv(os.path.join(self.out_dir, "convergence.csv"))
        }
        low, high = self.RATIOS
        alg_low = means[("algorithm1", "micro_f1", low)]
        alg_high = means[("algorithm1", "micro_f1", high)]
        plug_low = means[("plugin", "micro_f1", low)]
        self.values = {
            "test_micro_f1": (alg_low + alg_high) / 2.0,
            "f1_margin_low": alg_low - plug_low,
        }
        problems = []
        if not alg_high >= 0.95:
            problems.append(f"algorithm1 micro-F1 {alg_high:.4f} < 0.95 at ratio {high}")
        if not alg_low >= plug_low:
            problems.append(
                f"algorithm1 micro-F1 {alg_low:.4f} < plugin {plug_low:.4f} at ratio {low}"
            )
        return problems

    def error(self):
        return 1.0 - self.values["test_micro_f1"]


class GroupedWalkthrough(Workload):
    name = "grouped_walkthrough"
    why = ("the README fit -> threshold -> eval walkthrough with the plugin solver; "
           "macro and instance sweeps plus dataset and model I/O, no alt_min")
    error_definition = ("1 - mean of test macro-F1 after macro tuning and "
                        "test instance-F1 after instance tuning")

    RATIO = 0.3
    EVAL_METRICS = ("macro_f1", "instance_f1", "micro_f1")
    SIZES = {
        "full": dict(n=2000, L=200, d=50, rank=5),
        "tiny": dict(n=200, L=20, d=8, rank=2),
    }
    # the test file's features come from a seed stream apart from the training seeds
    TEST_SEED_OFFSET = 100_003

    def __init__(self, root, work, seed, scale="full"):
        super().__init__(root, work, seed, scale)
        self.train_path = os.path.join(work, "inputs", "train.txt")
        self.test_path = os.path.join(work, "inputs", "test.txt")
        self.model_path = os.path.join(self.out_dir, "model.txt")
        self._train = None

    def setup(self):
        """Write train and test files drawn from one noise-free low-rank W*."""
        os.makedirs(os.path.dirname(self.train_path), exist_ok=True)
        size = self.SIZES[self.scale]
        spec = SyntheticSpec(seed=self.seed, noise_model="noise_free_sign", **size)
        X, W_star, Y = generate_problem(spec)
        test_spec = SyntheticSpec(
            seed=self.seed + self.TEST_SEED_OFFSET, noise_model="noise_free_sign", **size
        )
        X_t = gen_features(test_spec)
        Y_t = sample_labels(X_t, W_star, "noise_free_sign", test_spec.seed)
        for path, feats, labels in ((self.train_path, X, Y), (self.test_path, X_t, Y_t)):
            ds = SparseDataset(
                n=size["n"], d=size["d"], L=size["L"],
                features=[list(enumerate(row.tolist())) for row in feats],
                labels=[set(np.flatnonzero(row).tolist()) for row in labels],
            )
            with open(path, "w") as fh:
                write_dataset(ds, fh)
        self._train = None

    def tasks(self):
        def argv(task, *extra):
            return [
                task, self.config("synth_small.cfg"),
                f"--data_path={self.train_path}", f"--test_path={self.test_path}",
                "--solver=plugin", f"--ratio={self.RATIO}",
                f"--out_dir={self.out_dir}", f"--seed={self.seed}",
                "--metrics=" + ",".join(self.EVAL_METRICS), *extra,
            ]

        tasks = [Task(argv("fit"))]
        for metric in ("macro_f1", "instance_f1"):
            tasks.append(Task(argv("threshold", f"--metric={metric}"), self._check_threshold(metric)))
            tasks.append(Task(argv("eval"), self._check_eval(metric)))
        return tasks

    def _train_entries(self):
        """Features and observed training entries, rebuilt the way the harness does."""
        if self._train is None:
            with open(self.train_path) as fh:
                ds = parse_dataset(fh)
            obs = mask_observations(
                ds.label_matrix(), self.RATIO, OmegaDistribution.uniform(), self.seed
            )
            self._train = (ds.to_dense_X(), obs)
        return self._train

    def _check_threshold(self, metric):
        def check(stdout):
            match = re.search(r"train_value=(\S+)", stdout)
            if match is None:
                return ["threshold printed no train_value"]
            with open(self.model_path) as fh:
                model = load_model(fh)
            X, obs = self._train_entries()
            spec = get_metric(metric)
            yhat = apply_threshold(predict_scores(X, model)[obs.rows, obs.cols], model.theta)
            groups = obs.cols if spec.mode == "macro" else obs.rows
            conf = confusion_grouped(yhat, obs.values.astype(np.int8), groups)
            value = eval_metric_info(spec, conf).value
            # the CLI prints the train value to six significant digits
            if f"{value:.6g}" != match.group(1):
                return [f"{metric} train value {match.group(1)} != recomputed {value:.6g}"]
            return []

        return check

    def _check_eval(self, tuned_for):
        def check(stdout):
            rows = _read_csv(os.path.join(self.out_dir, "results.csv"))
            latest = rows[-len(self.EVAL_METRICS):]
            names = tuple(row["metric_name"] for row in latest)
            if names != self.EVAL_METRICS:
                return [f"eval wrote metrics {names}, expected {self.EVAL_METRICS}"]
            problems = []
            for row in latest:
                value = float(row["value"])
                if not 0.0 <= value <= 1.0:
                    problems.append(f"eval {row['metric_name']} = {value} outside [0, 1]")
                if row["metric_name"] == tuned_for:
                    self.values[f"test_{tuned_for}"] = value
            return problems

        return check

    def error(self):
        return 1.0 - (self.values["test_macro_f1"] + self.values["test_instance_f1"]) / 2.0


class ConvexRateCheck(Workload):
    name = "convex_rate_check"
    why = ("the only workload that runs fit_prox_grad (SVD, backtracking, score-norm prox); "
           "many short fits, so per-fit overhead shows; no alt_min and no sweep")
    error_definition = "param_norm recovery error at the largest omega"

    SIZES = {
        "full": dict(n=300, L=60, d=12, rank=3, max_iters=600, grid_points=4, repeats=16),
        "tiny": dict(n=120, L=40, d=6, rank=2, max_iters=300, grid_points=3, repeats=1),
    }

    def tasks(self):
        sizes = self.SIZES[self.scale]
        # repeat r draws its problem from seed + r; spacing the seeds by the
        # repeat count keeps the problems of different benchmark seeds apart
        seed = self.seed * sizes["repeats"]
        argv = [
            "rate_check", self.config("rate_check.cfg"),
            f"--out_dir={self.out_dir}", f"--seed={seed}",
            *(f"--{key}={val}" for key, val in sizes.items()),
        ]
        return [Task(argv, self._check)]

    def _check(self, stdout):
        errors = {
            (row["mode"], int(row["omega"])): float(row["error_mean"])
            for row in _read_csv(os.path.join(self.out_dir, "rate_check.csv"))
        }
        grid = sorted(m for mode, m in errors if mode == "param_norm")
        # the same regression the harness runs, on the values it wrote
        slope = float(np.polyfit(
            np.log([float(m) for m in grid]),
            np.log([errors[("param_norm", m)] for m in grid]), 1,
        )[0])
        top = grid[-1]
        param, score = errors[("param_norm", top)], errors[("score_norm", top)]
        self.values = {"recovery_error": param, "slope": slope}
        problems = []
        if not -1.3 <= slope <= -0.7:
            problems.append(f"param_norm log-log slope {slope:.4f} outside [-1.3, -0.7]")
        if not score > param:
            problems.append(
                f"score_norm error {score:.6g} not above param_norm {param:.6g} at omega {top}"
            )
        return problems

    def error(self):
        return self.values["recovery_error"]


WORKLOADS = {cls.name: cls for cls in (LowrankConvergence, GroupedWalkthrough, ConvexRateCheck)}
