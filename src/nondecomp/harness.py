"""Experiment driver behind the CLI: synthetic generation, fitting,
threshold selection, evaluation, the convergence experiment, the two-method
comparison, and the error-rate check.

Every command is a pure function of its resolved configuration: reruns with
the same config and seed rewrite byte-identical outputs. Repeats and grid
points can run on a thread pool (capped by NONDECOMP_THREADS); rows are
buffered and written in a canonical order, so parallelism never changes
file contents.
"""

from __future__ import annotations

import contextlib
import os
import stat
import tempfile
from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from .config import UsageError, decoded, read_input
from .dataset_io import (
    DatasetFormatError,
    ModelFormatError,
    PlotSeries,
    ResultRow,
    SparseDataset,
    append_results_csv,
    emit_plot,
    load_model,
    mask_observations,
    parse_dataset,
    read_parsed,
    save_model,
    text_key,
    write_dataset,
    write_parsed,
    write_results_csv,
)
from .estimator import (
    DenseModel,
    FactoredModel,
    NumericalError,
    SolverConfig,
    fit_alt_min,
    fit_plugin_baseline,
    fit_prox_grad,
    predict_scores,
    recovery_error,
)
from .losses import PULossWrapper, get_loss
from .metrics import (
    all_negative_threshold,
    apply_threshold,
    confusion_grouped,
    confusion_micro,
    eval_metric_info,
    get_metric,
    threshold_sweep,
)
from .sampler import (
    OmegaDistribution,
    SyntheticSpec,
    gen_features,
    gen_lowrank_W,
    generate_problem,
    pu_flip,
    sample_labels,
)

__all__ = [
    "run_task",
    "cmd_synth",
    "cmd_fit",
    "cmd_threshold",
    "cmd_eval",
    "cmd_convergence",
    "cmd_compare",
    "cmd_rate_check",
]


def _threads():
    raw = os.environ.get("NONDECOMP_THREADS", "1")
    try:
        val = int(raw)
    except ValueError:
        raise UsageError(f"NONDECOMP_THREADS must be an integer, got {raw!r}") from None
    return max(1, val)


def _over_repeats(cfg, names, cells, run):
    """Call run(cell, rep) for every cell, a tuple of values for ``names``,
    and each of cfg.repeats repeats, on a thread pool when
    NONDECOMP_THREADS allows, and return each cell's outcomes in repeat
    order; once a call raises, the queued calls are dropped. A
    NumericalError is raised again with the cell and repeat appended."""
    cells = list(cells)
    reps = range(cfg.repeats)
    keys = list(product(cells, reps))

    def run_named(cell, rep):
        try:
            return run(cell, rep)
        except NumericalError as exc:
            where = ", ".join(f"{name}={value}" for name, value in zip(names, cell))
            raise NumericalError(f"{exc} ({where}, repeat={rep})") from exc

    workers = min(_threads(), len(keys))
    if workers <= 1:
        outcomes = {key: run_named(*key) for key in keys}
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = {key: pool.submit(run_named, *key) for key in keys}
            outcomes = {key: futures[key].result() for key in keys}
        finally:
            pool.shutdown(cancel_futures=True)
    return {cell: [outcomes[(cell, rep)] for rep in reps] for cell in cells}


@dataclass
class Problem:
    """A resolved learning problem: features, full labels, and the ground
    truth of a synthetic problem (None for a dataset)."""

    X: np.ndarray
    Y: np.ndarray
    W_star: np.ndarray | None


def _synthetic_spec(cfg, seed):
    """The spec every synthetic problem is generated from. Two uses of it
    exit 2 here, before anything is generated:

    * real-valued (gaussian) labels feed only a fit with the gaussian loss
      by alt_min or prox_grad without positive-unlabeled flipping;
    * a score-norm fit (every rate_check fit, and prox_grad's with
      regularizer_mode = score_norm) needs features of full column rank,
      and generated n x d features have rank min(n, d), so it needs n >= d.
    """
    cfg.require_synthetic()
    binary_uses = ((cfg.task, cfg.task != "fit"), ("solver = plugin", cfg.solver == "plugin"),
                   (f"loss = {cfg.loss}", cfg.loss != "gaussian"),
                   ("positive-unlabeled flipping", cfg.pu_rho > 0.0))
    uses = [what for what, used in binary_uses if used]
    if cfg.noise_model == "gaussian" and uses:
        raise UsageError(f"{uses[0]} needs binary labels; the gaussian noise model is real-valued")
    score_norm_fit = cfg.task == "rate_check" or (
        cfg.solver == "prox_grad" and cfg.regularizer_mode == "score_norm"
        and (cfg.task == "fit" or (cfg.task == "convergence" and "algorithm1" in cfg.methods))
    )
    if score_norm_fit and cfg.n < cfg.d:
        raise UsageError(
            f"score-norm mode needs features of full column rank, and the generated "
            f"features have rank n = {cfg.n} < d = {cfg.d}; set n >= d"
        )
    return SyntheticSpec(
        n=cfg.n, L=cfg.L, d=cfg.d, rank=cfg.rank, seed=seed,
        noise_model=cfg.noise_model, theta_star=cfg.theta_star,
        noise_sigma=cfg.noise_sigma, wstar_scale=cfg.wstar_scale,
    )


# a dataset file's parsed arrays are kept beside it, in the file of the same
# name with this suffix, for the next command that reads the same bytes
_PARSED_SUFFIX = ".parsed"


def _parse_dataset_file(fh, data):
    """The dataset of the bytes ``data`` read from the open file ``fh``:
    from the sidecar beside it when that holds the arrays of these exact
    bytes, else parse_dataset of the bytes, decoded as ``fh`` decodes them.
    A parse rewrites the sidecar of a regular file where the directory
    lets it."""
    key = text_key(data, fh.encoding)
    mode = os.fstat(fh.fileno()).st_mode
    sidecar = fh.name + _PARSED_SUFFIX if stat.S_ISREG(mode) else None
    ds = None
    if sidecar is not None:
        try:
            with open(sidecar, "rb") as kept:
                stored = kept.read()
        except OSError:
            stored = b""
        ds = read_parsed(stored, key)
    if ds is None:
        ds = parse_dataset(decoded(fh, data))
        if sidecar is not None:
            _keep_parsed(sidecar, ds, key, mode)
    return ds


def _keep_parsed(path, ds, key, mode):
    """Write the sidecar ``path`` of ``ds`` through a temporary file beside
    it, with the read and write permissions ``mode`` of its text; where no
    file can be written, none is left."""
    try:
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(path) + ".",
                                   dir=os.path.dirname(path) or ".")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as out:
            write_parsed(ds, key, out)
        os.chmod(tmp, stat.S_IMODE(mode) & 0o666)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _read_dataset(path):
    """Dense features and labels of a dataset file; a header whose shapes
    cannot be allocated is a format error of line 1."""
    ds = read_input(path, "dataset", _parse_dataset_file, DatasetFormatError)
    try:
        return ds.to_dense_X(), ds.label_matrix()
    except (MemoryError, ValueError) as exc:
        raise DatasetFormatError(
            f"dataset {path!r}: line 1: {ds.n} x {ds.d} features and {ds.n} x {ds.L} labels "
            f"are too large to hold as dense arrays ({exc})"
        ) from None


def _load_problem(cfg, seed):
    if cfg.data_path is not None:
        X, Y = _read_dataset(cfg.data_path)
        return Problem(X=X, Y=Y, W_star=None)
    X, W_star, Y = generate_problem(_synthetic_spec(cfg, seed))
    return Problem(X=X, Y=Y, W_star=W_star)


# test draws use a seed stream far away from the training seeds
_TEST_SEED_OFFSET = 7919


def _fresh_test_split(cfg, W_star, seed):
    """Fresh instances from the same generator and ground truth; keeps the
    evaluation free of memorized training entries."""
    spec = _synthetic_spec(cfg, seed + _TEST_SEED_OFFSET)
    X_t = gen_features(spec)
    Y_t = sample_labels(
        X_t, W_star, cfg.noise_model, spec.seed,
        theta_star=cfg.theta_star, sigma=cfg.noise_sigma,
    )
    return X_t, Y_t


def _train_observations(cfg, prob, seed, ratio):
    """The observed training entries at mask ratio ``ratio``, which must
    observe one at least; the positive-unlabeled regime observes every entry."""
    Y = prob.Y
    if cfg.pu_rho > 0.0:
        Y, ratio = pu_flip(Y, cfg.pu_rho, seed), 1.0
    n, L = Y.shape
    if round(ratio * n * L) < 1:
        raise UsageError(f"ratio = {ratio:g} observes no entry of the {n} x {L} label matrix")
    return mask_observations(Y, ratio, OmegaDistribution.uniform(), seed)


def _resolve_k(cfg, prob):
    if cfg.k is not None:
        return cfg.k
    if prob.W_star is not None:
        return cfg.rank
    return max(1, min(round(0.4 * prob.Y.shape[1]), prob.X.shape[1]))


def _fit_solver(cfg, prob, obs, seed, solver=None, regularizer_mode=None):
    """Fit ``solver`` (cfg.solver by default) with cfg.loss, corrected for
    positive-unlabeled flipping when pu_rho > 0, and return (model,
    report). Two fits raise NumericalError, for their models are not to be
    saved or scored: one whose objective fell below 0, as only a
    positive-unlabeled risk estimate runs away, and one whose line search
    failed at its first step, which left the start unchanged; features on
    a scale far from 1 do that, so the error names the largest."""
    solver = solver or cfg.solver
    loss = get_loss(cfg.loss)
    if cfg.pu_rho > 0.0:
        loss = PULossWrapper(loss, cfg.pu_rho)
    sconf = SolverConfig(
        loss=loss,
        lambda_reg=cfg.lambda_reg,
        lambda_c=cfg.lambda_c,
        regularizer_mode=regularizer_mode or cfg.regularizer_mode,
        max_iters=cfg.max_iters,
        rel_tol=cfg.rel_tol,
        seed=seed,
    )
    if solver == "alt_min":
        model, report = fit_alt_min(prob.X, obs, sconf, _resolve_k(cfg, prob))
    elif solver == "prox_grad":
        model, report = fit_prox_grad(prob.X, obs, sconf)
    else:
        model, report = fit_plugin_baseline(prob.X, obs, cfg.ridge)
    if report.stop_reason == "negative_objective":
        raise NumericalError(
            f"objective {report.objective_trace[-1]:.6g} < 0 at iteration {report.iterations}: "
            "the positive-unlabeled risk estimate overfits; raise lambda_reg"
        )
    if report.stop_reason == "line_search" and report.iterations == 0:
        raise NumericalError(
            f"{solver} took no step from its start: its line search failed at iteration 0; "
            f"the largest |feature| is {np.abs(prob.X).max():.6g}, so rescale the features"
        )
    return model, report


def _group_axis(spec):
    """Axis of the label matrix whose index groups the metric's entries:
    0 (rows) in instance mode, 1 (columns) in macro mode, None in micro."""
    return {"micro": None, "instance": 0, "macro": 1}[spec.mode]


def _tune_threshold(spec, z_obs, obs):
    """Sweep on the training entries ``obs``, scored z_obs; fall back to the
    all-negative sentinel when no thresholding achieves a positive value."""
    y_obs = obs.values.astype(np.int8)
    axis = _group_axis(spec)
    groups = None if axis is None else (obs.rows, obs.cols)[axis]
    result = threshold_sweep(z_obs, y_obs, spec, groups)
    theta = result.theta_hat
    degenerate = result.value == 0.0
    if degenerate:
        theta = all_negative_threshold(z_obs)
    return theta, result, degenerate


def _evaluate(cfg, model, X, Y, tuned):
    """MetricEval of every entry of the label matrix Y, for each name in
    ``tuned``, which maps a metric name to its (spec, threshold)."""
    z = predict_scores(X, model, cfg.gamma_clip).ravel()
    y = Y.ravel()
    theta_done = None
    infos = {}
    for name, (spec, theta) in tuned.items():
        if theta != theta_done:  # metrics sharing a threshold share its predictions
            yhat, theta_done = apply_threshold(z, theta), theta
        axis = _group_axis(spec)
        if axis is None:
            conf = confusion_micro(yhat, y)
        else:
            # each entry's row or column index, built only for a metric that groups by it
            index = np.broadcast_to(np.indices(Y.shape, sparse=True)[axis], Y.shape).ravel()
            conf = confusion_grouped(yhat, y, index)
        infos[name] = eval_metric_info(spec, conf)
    return infos


def _trial(cfg, prob, seed, ratio, method, specs, X_e, Y_e):
    """One repeat of one method: fit it on the observed training entries,
    tune every metric's threshold on those entries, and score the
    evaluation entries. Returns the metric values by name."""
    obs = _train_observations(cfg, prob, seed, ratio)
    if method == "plugin":
        solver = "plugin"
    else:
        solver = cfg.solver if cfg.solver != "plugin" else "alt_min"
    model, _ = _fit_solver(cfg, prob, obs, seed, solver=solver)
    z_obs = predict_scores(prob.X, model, cfg.gamma_clip)[obs.rows, obs.cols]
    tuned = {name: (spec, _tune_threshold(spec, z_obs, obs)[0]) for name, spec in specs.items()}
    return {name: info.value for name, info in _evaluate(cfg, model, X_e, Y_e, tuned).items()}


def _read_model(cfg, d, L):
    """Load the configured model, which must map d features to L labels."""
    path = _model_path(cfg)
    model = read_input(
        path, "model", lambda fh, data: load_model(decoded(fh, data)), ModelFormatError
    )
    if isinstance(model, FactoredModel):
        dims = (model.W1.shape[0], model.W2.shape[0])
    else:
        dims = model.W.shape
    if dims != (d, L):
        raise UsageError(
            f"model {path!r} has d = {dims[0]}, L = {dims[1]} "
            f"but the data has d = {d}, L = {L}"
        )
    return model


def _distinct_values(cfg, key):
    """Exit 2 naming the list-valued key when it is empty or repeats a value."""
    values = getattr(cfg, key)
    if not values:
        raise UsageError(f"{cfg.task} needs at least one value in {key}")
    if len(set(values)) != len(values):
        raise UsageError(f"{key} repeats a value: {','.join(map(str, values))}")


def _experiment_specs(cfg):
    """The metric specs of a convergence or compare run, by name, after
    checking that its methods and metrics are nonempty, distinct and known."""
    _distinct_values(cfg, "methods")
    for m in cfg.methods:
        if m not in ("algorithm1", "plugin"):
            raise UsageError(f"unknown method {m!r} in methods; expected algorithm1 or plugin")
    return _metric_specs(cfg)


def _metric_specs(cfg):
    """The specs of the configured metrics, by name, after checking that
    they are nonempty, distinct and known."""
    _distinct_values(cfg, "metrics")
    try:
        return {name: get_metric(name) for name in cfg.metrics}
    except ValueError as exc:
        raise UsageError(f"metrics: {exc}") from None


def _out_path(cfg, name):
    """Path of an output file in out_dir, which is created on first use."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create out_dir {cfg.out_dir!r}: {exc}") from None
    return os.path.join(cfg.out_dir, name)


def _model_path(cfg):
    return cfg.model_path or os.path.join(cfg.out_dir, "model.txt")


def _fmt(value):
    return repr(float(value))


def _mean_sd(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg):
    """Generate a synthetic problem and export it in the dataset format."""
    spec = _synthetic_spec(cfg, cfg.seed)
    X, W_star, Y = generate_problem(spec)
    # every feature of every row, and each row's positive labels
    rows, labels = np.nonzero(Y == 1)
    ds = SparseDataset.from_arrays(
        cfg.n, cfg.d, cfg.L, np.arange(cfg.n + 1) * cfg.d, np.tile(np.arange(cfg.d), cfg.n),
        X.ravel(), np.searchsorted(rows, np.arange(cfg.n + 1)), labels,
    )
    data_path = _out_path(cfg, "dataset.txt")
    with open(data_path, "w") as fh:
        write_dataset(ds, fh)
    truth_path = _out_path(cfg, "wstar.txt")
    with open(truth_path, "w") as fh:
        save_model(DenseModel(W=W_star), fh)
    print(f"synth: wrote {data_path} and {truth_path}")
    return {"data_path": data_path, "wstar_path": truth_path}


def cmd_fit(cfg):
    """Fit the configured solver and persist the model and objective trace."""
    # a model_path that is a directory or lies in a missing one fails here,
    # not after the fit; out_dir itself is created before the first write
    path = _model_path(cfg)
    folder = os.path.dirname(cfg.model_path or "") or "."
    if not os.path.isdir(folder) and os.path.abspath(folder) != os.path.abspath(cfg.out_dir):
        raise UsageError(f"model_path {cfg.model_path!r}: directory {folder!r} does not exist")
    if os.path.isdir(path):
        raise UsageError(f"model_path {path!r} is a directory")
    prob = _load_problem(cfg, cfg.seed)
    obs = _train_observations(cfg, prob, cfg.seed, cfg.ratio)
    model, report = _fit_solver(cfg, prob, obs, cfg.seed)
    trace_path = _out_path(cfg, "trace.csv")
    with open(path, "w") as fh:
        save_model(model, fh)
    with open(trace_path, "w") as fh:
        fh.write("iteration,objective\n")
        for i, val in enumerate(report.objective_trace):
            fh.write(f"{i},{_fmt(val)}\n")
    print(
        f"fit: solver={cfg.solver} iterations={report.iterations} "
        f"converged={report.converged} stop={report.stop_reason} "
        f"objective={report.objective_trace[-1]:.6g} "
        f"rank={report.final_rank} model={path}"
    )
    return {"model_path": path, "trace_path": trace_path, "report": report}


def cmd_threshold(cfg):
    """Tune the decision threshold on the training observations."""
    try:
        spec = get_metric(cfg.metric)
    except ValueError as exc:
        raise UsageError(f"metric: {exc}") from None
    prob = _load_problem(cfg, cfg.seed)
    obs = _train_observations(cfg, prob, cfg.seed, cfg.ratio)
    model = _read_model(cfg, prob.X.shape[1], prob.Y.shape[1])
    z_obs = predict_scores(prob.X, model, cfg.gamma_clip)[obs.rows, obs.cols]
    theta, result, degenerate = _tune_threshold(spec, z_obs, obs)
    model.theta = theta
    with open(_model_path(cfg), "w") as fh:
        save_model(model, fh)
    note = " (degenerate sweep, all-negative fallback)" if degenerate else ""
    print(
        f"threshold: metric={cfg.metric} theta={theta:.6g} "
        f"train_value={result.value:.6g} candidates={result.candidates_evaluated}{note}"
    )
    return {"theta": theta, "train_value": result.value, "degenerate": degenerate}


def _eval_data(cfg):
    """Evaluation features, labels and split: the test file when a dataset
    has one, a fresh synthetic test draw for generated problems, else the
    training matrix. Only the data evaluated on is read or generated."""
    if cfg.data_path is None:
        W_star = gen_lowrank_W(_synthetic_spec(cfg, cfg.seed))
        return (*_fresh_test_split(cfg, W_star, cfg.seed), "test")
    if cfg.test_path is not None:
        return (*_read_dataset(cfg.test_path), "test")
    return (*_read_dataset(cfg.data_path), "train")


def cmd_eval(cfg):
    """Evaluate a thresholded model on the evaluation entries; append result rows."""
    specs = _metric_specs(cfg)
    X_e, Y_e, split = _eval_data(cfg)
    model = _read_model(cfg, X_e.shape[1], Y_e.shape[1])
    if model.theta is None:
        raise UsageError("model has no fitted threshold; run the threshold task first")
    tuned = {name: (spec, model.theta) for name, spec in specs.items()}
    infos = _evaluate(cfg, model, X_e, Y_e, tuned)
    method = "plugin" if cfg.solver == "plugin" else "algorithm1"
    out_rows = []
    for name, info in infos.items():
        out_rows.append(ResultRow(method, name, split, info.value, 0.0, cfg.config_hash()))
        flag = f" degenerate_groups={info.degenerate_groups}" if info.degenerate_groups else ""
        print(f"eval: {name} [{split}] = {info.value:.6g}{flag}")
    results_path = _out_path(cfg, "results.csv")
    append_results_csv(out_rows, results_path)
    return {"rows": out_rows, "results_path": results_path}


def cmd_convergence(cfg):
    """Metric-versus-sampling-ratio experiment for both methods."""
    cfg.require_synthetic()
    _distinct_values(cfg, "ratios")
    if cfg.pu_rho > 0.0 and len(cfg.ratios) > 1:
        raise UsageError("ratios must hold one value when pu_rho > 0, which observes every entry")
    specs = _experiment_specs(cfg)

    # one problem and one fresh test split per repeat, shared by every
    # (method, ratio) trial of that repeat
    problems = {}
    for rep in range(cfg.repeats):
        prob = _load_problem(cfg, cfg.seed + rep)
        problems[rep] = (prob, *_fresh_test_split(cfg, prob.W_star, cfg.seed + rep))

    def run_one(cell, rep):
        method, ratio = cell
        prob, X_t, Y_t = problems[rep]
        return _trial(cfg, prob, cfg.seed + rep, ratio, method, specs, X_t, Y_t)

    cells = product(cfg.methods, cfg.ratios)
    outcomes = _over_repeats(cfg, ("method", "ratio"), cells, run_one)
    summary = {
        (method, name, ratio): _mean_sd([o[name] for o in outcomes[(method, ratio)]])
        for method in sorted(cfg.methods)
        for name in cfg.metrics
        for ratio in cfg.ratios
    }

    chash = cfg.config_hash()
    csv_path = _out_path(cfg, "convergence.csv")
    with open(csv_path, "w") as fh:
        fh.write("method,metric_name,ratio,mean,sd,config_hash\n")
        for (method, name, ratio) in sorted(summary):
            mean, sd = summary[(method, name, ratio)]
            fh.write(f"{method},{name},{_fmt(ratio)},{_fmt(mean)},{_fmt(sd)},{chash}\n")
            print(f"convergence: {method} {name} ratio={ratio:g} mean={mean:.4f} sd={sd:.4f}")

    plot_paths = []
    for name in cfg.metrics:
        series = []
        for method in sorted(cfg.methods):
            xs = tuple(sorted(cfg.ratios))
            ys = tuple(summary[(method, name, r)][0] for r in xs)
            series.append(PlotSeries(name=method, x=xs, y=ys))
        svg_path = _out_path(cfg, f"convergence_{name}.svg")
        with open(svg_path, "w") as fh:
            emit_plot(series, fh, xlabel="sampling ratio", ylabel=name)
        plot_paths.append(svg_path)
    return {"summary": summary, "csv_path": csv_path, "plot_paths": plot_paths}


def cmd_compare(cfg):
    """Both methods on a dataset at the configured mask ratio."""
    specs = _experiment_specs(cfg)
    if cfg.data_path is None:
        raise UsageError("compare needs data_path pointing at a dataset file")
    prob = _load_problem(cfg, cfg.seed)
    X_e, Y_e, split = prob.X, prob.Y, "train"
    if cfg.test_path is not None:
        X_e, Y_e = _read_dataset(cfg.test_path)
        if X_e.shape[1] != prob.X.shape[1] or Y_e.shape[1] != prob.Y.shape[1]:
            raise UsageError("test dataset dimensions do not match the training data")
        split = "test"

    def run_one(cell, rep):
        return _trial(cfg, prob, cfg.seed + rep, cfg.ratio, cell[0], specs, X_e, Y_e)

    outcomes = _over_repeats(cfg, ("method",), product(cfg.methods), run_one)
    chash = cfg.config_hash()
    rows = []
    for method in sorted(cfg.methods):
        for name in cfg.metrics:
            mean, sd = _mean_sd([o[name] for o in outcomes[(method,)]])
            rows.append(ResultRow(method, name, split, mean, sd / np.sqrt(cfg.repeats), chash))
    csv_path = _out_path(cfg, "compare.csv")
    with open(csv_path, "w") as fh:
        write_results_csv(rows, fh)
    for row in rows:
        print(
            f"compare: {row.method} {row.metric_name} [{row.split}] "
            f"= {row.value:.4f} +/- {row.stderr:.4f}"
        )
    return {"rows": rows, "csv_path": csv_path}


def cmd_rate_check(cfg):
    """Recovery-error decay against the number of observed entries.

    Fits the convex solver at a geometric grid of observation counts,
    regresses log(error) on log(count), and repeats with the score-matrix
    regularizer for contrast.
    """
    cfg.require_synthetic()
    if cfg.noise_model != "bernoulli_logistic":
        raise UsageError("rate_check needs noise_model = bernoulli_logistic")
    if cfg.pu_rho > 0.0:
        raise UsageError("rate_check fits fully labeled entries; it needs pu_rho = 0")
    total = cfg.n * cfg.L
    grid = tuple(round(total * 2.0 ** -(cfg.grid_points - 1 - i)) for i in range(cfg.grid_points))
    if len(grid) < 3 or len(set(grid)) < len(grid):
        raise UsageError(
            f"rate_check needs at least 3 grid points, all distinct; "
            f"grid_points gives {','.join(map(str, grid))}"
        )
    if any(not 1 <= m <= total for m in grid):
        raise UsageError(f"omega grid must lie in [1, {total}]")

    # one problem per repeat, shared by every (mode, omega) fit of that repeat
    problems = {rep: _load_problem(cfg, cfg.seed + rep) for rep in range(cfg.repeats)}

    def run_one(cell, rep):
        mode, m = cell
        seed_r = cfg.seed + rep
        prob = problems[rep]
        obs = mask_observations(prob.Y, None, OmegaDistribution.uniform(), seed_r, m=m)
        model, report = _fit_solver(cfg, prob, obs, seed_r, "prox_grad", mode)
        return recovery_error(model.W, prob.W_star), report.stop_reason

    cells = product(("param_norm", "score_norm"), grid)
    outcomes = _over_repeats(cfg, ("mode", "omega"), cells, run_one)
    points = {cell: _mean_sd([err for err, _ in fits]) for cell, fits in outcomes.items()}
    # a fit that stopped at max_iters or line_search still feeds the slope
    stops = Counter(stop for fits in outcomes.values() for _, stop in fits)

    log_m = np.log([float(m) for m in grid])
    log_err = np.log([points[("param_norm", m)][0] for m in grid])
    slope = float(np.polyfit(log_m, log_err, 1)[0])

    chash = cfg.config_hash()
    csv_path = _out_path(cfg, "rate_check.csv")
    with open(csv_path, "w") as fh:
        fh.write("mode,omega,error_mean,error_sd,config_hash\n")
        for (mode, m) in sorted(points):
            mean, sd = points[(mode, m)]
            fh.write(f"{mode},{m},{_fmt(mean)},{_fmt(sd)},{chash}\n")
            print(f"rate_check: {mode} omega={m} error={mean:.6g} sd={sd:.3g}")
    print(f"rate_check: param_norm log-log slope = {slope:.4f}")
    print("rate_check: stop reasons " + " ".join(f"{r}={stops[r]}" for r in sorted(stops)))
    return {"slope": slope, "points": points, "csv_path": csv_path}


_COMMANDS = {
    "synth": cmd_synth,
    "fit": cmd_fit,
    "threshold": cmd_threshold,
    "eval": cmd_eval,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
    "rate_check": cmd_rate_check,
}


def run_task(cfg):
    """Dispatch a resolved configuration to its command."""
    try:
        command = _COMMANDS[cfg.task]
    except KeyError:
        raise UsageError(f"unknown task {cfg.task!r}") from None
    return command(cfg)
