#!/usr/bin/env python3
"""Benchmark of the nondecomp pipeline.

Usage, from the root of a source checkout::

    python3 bench/run_bench.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads are in ``workloads.py``; ``all`` runs the three in turn. A run
sets up its inputs (three times; the median counts), then repeats passes
of the workload for up to ``--seconds`` seconds (at least one pass) with
tracing off. With ``--trace 1`` the time is split: half untraced, half
traced, and the traced passes give the per-layer metrics.

Timed runs use this one process, the program's default NONDECOMP_THREADS
and one BLAS thread. The package is imported from ``src/`` of the
checkout; nothing is installed.

Standard output: an environment record, one line per metric with its
unit, every failed check, and as the last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``). The
full record, and with ``--trace 1`` the spans, go to ``bench/_out/results``.
Exit code 0 when the benchmark ran, 2 when it could not (for instance
when the checkout has no ``src/nondecomp``).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# workloads.py and spans.py import numpy and nondecomp, so this file imports
# them inside functions, after main() has pinned the BLAS thread count.

ROOT = Path(__file__).resolve().parent.parent
WORK = os.path.join("bench", "_out")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# (name, unit, better) of the end-to-end metrics, from untraced passes
END_TO_END = (
    ("wall_s", "s", "lower"),        # median pass time, set-up excluded
    ("setup_s", "s", "lower"),       # import plus median of the set-ups
    ("peak_rss_mb", "MB", "lower"),  # peak resident memory of the process
    ("error", "1", "lower"),         # the workload's result error, see workloads.py
)

# (name, unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = (
    ("estimator.fit_alt_min.s", "s", "lower", "wall_s", "lowrank_convergence"),
    ("estimator.fit_alt_min.calls", "count", "lower", "wall_s", "lowrank_convergence"),
    ("estimator.fit_alt_min.iterations", "count", "lower", "wall_s", "lowrank_convergence"),
    ("estimator.fit_alt_min.converged", "ratio", "higher", "wall_s", "lowrank_convergence"),
    ("losses.value.calls", "count", "lower", "wall_s", "lowrank_convergence"),
    ("losses.grad_t.calls", "count", "lower", "wall_s", "lowrank_convergence"),
    ("losses.hess_t.calls", "count", "lower", "wall_s", "lowrank_convergence"),
    ("losses.entries", "count", "lower", "wall_s", "lowrank_convergence"),
    ("losses.s", "s", "lower", "wall_s", "lowrank_convergence"),
    ("estimator.fit_plugin_baseline.s", "s", "lower", "wall_s",
     "lowrank_convergence,grouped_walkthrough"),
    ("estimator.fit_plugin_baseline.calls", "count", "lower", "wall_s",
     "lowrank_convergence,grouped_walkthrough"),
    ("estimator.fit_prox_grad.s", "s", "lower", "wall_s", "convex_rate_check"),
    ("estimator.fit_prox_grad.calls", "count", "lower", "wall_s", "convex_rate_check"),
    ("estimator.fit_prox_grad.iterations", "count", "lower", "wall_s", "convex_rate_check"),
    ("estimator.fit_prox_grad.converged", "ratio", "higher", "wall_s", "convex_rate_check"),
    ("estimator.predict_scores.s", "s", "lower", "wall_s", "all"),
    ("estimator.objective.s", "s", "lower", "wall_s", "all"),
    ("metrics.threshold_sweep.micro.s", "s", "lower", "wall_s", "lowrank_convergence"),
    ("metrics.threshold_sweep.macro.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("metrics.threshold_sweep.instance.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("metrics.threshold_sweep.candidates", "count", "lower", "wall_s",
     "grouped_walkthrough,lowrank_convergence"),
    ("metrics.confusion.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("metrics.eval_metric_info.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("metrics.apply_threshold.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("dataset_io.parse_dataset.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("dataset_io.parse_dataset.calls", "count", "lower", "wall_s", "grouped_walkthrough"),
    ("dataset_io.parse_dataset.bytes", "B", "lower", "wall_s", "grouped_walkthrough"),
    ("dataset_io.save_model.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("dataset_io.save_model.bytes", "B", "lower", "wall_s", "grouped_walkthrough"),
    ("dataset_io.load_model.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("dataset_io.load_model.bytes", "B", "lower", "wall_s", "grouped_walkthrough"),
    ("dataset_io.results.s", "s", "lower", "wall_s", "grouped_walkthrough"),
    ("sampler.generate_problem.s", "s", "lower", "wall_s", "lowrank_convergence,convex_rate_check"),
    ("sampler.generate_problem.calls", "count", "lower", "wall_s",
     "lowrank_convergence,convex_rate_check"),
    ("sampler.sample_omega.s", "s", "lower", "wall_s", "lowrank_convergence,convex_rate_check"),
    ("sampler.sample_omega.calls", "count", "lower", "wall_s",
     "lowrank_convergence,convex_rate_check"),
    ("sampler.test_split.s", "s", "lower", "wall_s", "lowrank_convergence,convex_rate_check"),
    ("sampler.test_split.calls", "count", "lower", "wall_s",
     "lowrank_convergence,convex_rate_check"),
    ("cli.self_s", "s", "lower", "wall_s", "all"),
    ("harness.self_s", "s", "lower", "wall_s", "all"),
    ("sampler.self_s", "s", "lower", "wall_s", "all"),
    ("estimator.self_s", "s", "lower", "wall_s", "all"),
    ("losses.self_s", "s", "lower", "wall_s", "all"),
    ("metrics.self_s", "s", "lower", "wall_s", "all"),
    ("dataset_io.self_s", "s", "lower", "wall_s", "all"),
    ("trace.wall_s", "s", "lower", "wall_s", "all"),
    ("trace.untraced_wall_s", "s", "lower", "wall_s", "all"),
    ("trace.overhead_s", "s", "lower", "wall_s", "all"),
)

# where each workload should spend its time: (per-layer metrics summed, minimum share)
PREDICTIONS = {
    "lowrank_convergence": (("estimator.fit_alt_min.s",), 0.80),
    "grouped_walkthrough": (("metrics.threshold_sweep.macro.s",
                             "metrics.threshold_sweep.instance.s"), 0.60),
    "convex_rate_check": (("estimator.fit_prox_grad.s",), 0.50),
}

# the per-layer self times must add up to the traced wall time within this share
ACCOUNTING_TOLERANCE = 0.01


class SetupError(Exception):
    """The checkout cannot be benchmarked; exit 2 without a result."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy sizes, for testing the benchmark")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _load_package():
    """Import the checkout's own package; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "nondecomp" / "__init__.py").is_file():
        raise SetupError(f"no nondecomp package under {src}")
    for config in ("convergence.cfg", "rate_check.cfg", "synth_small.cfg"):
        if not (ROOT / "configs" / config).is_file():
            raise SetupError(f"missing configs/{config}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import nondecomp

    import_s = time.perf_counter() - start
    if Path(nondecomp.__file__).resolve().parent != src / "nondecomp":
        raise SetupError(f"imported nondecomp from {nondecomp.__file__}, not from {src}")
    return import_s


# -- environment record -------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu():
    """CPU model from /proc/cpuinfo and cache sizes of cpu0 from sysfs, where readable."""
    info = {"model": None, "caches": []}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                if key.strip() == "model name":
                    info["model"] = val.strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            entry = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key)) as fh:
                    entry[key] = fh.read().strip()
            info["caches"].append(entry)
        except OSError:
            continue
    return info


def _git_commit():
    """HEAD commit read from .git, or None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-256 over the names and bytes of the package sources, the shipped
    configs and the benchmark's own code: the outputs of one seed may differ
    only when one of these did."""
    h = hashlib.sha256()
    files = []
    for pattern in ("src/nondecomp/*.py", "configs/*.cfg", "bench/*.py"):
        files += sorted(glob.glob(str(ROOT / pattern)))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "seed": seed,
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS + ("NONDECOMP_THREADS",)},
    }


# -- one workload -------------------------------------------------------------


def _check_digests(wl, passes, source_digest):
    """Outputs of every pass of one seed must be byte-identical, in this run
    and across runs of the same sources in this checkout."""
    reference = passes[0].digest
    store_path = os.path.join(WORK, "digests.json")
    key = f"{wl.name}/{wl.scale}/{wl.seed}"
    try:
        with open(store_path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    earlier = store.get(key)
    if earlier is not None and earlier["source"] == source_digest and earlier["digest"] != reference:
        passes[0].outcomes[-1].problems.append("outputs differ from an earlier run of this seed")
    for p in passes[1:]:
        if p.digest != reference:
            p.outcomes[-1].problems.append("outputs differ from the first pass of this seed")
    store[key] = {"source": source_digest, "digest": reference}
    tmp = store_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, store_path)


def run_workload(name, seed, seconds, trace, scale, import_s, source_digest):
    """Set up, run and check one workload; returns its result record and the
    tracer of the traced phase (None without ``trace``)."""
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[name]
    base = os.path.join(WORK, "work", name)
    wl = cls(".", base, seed, scale)
    warm = cls(".", base + "-warmup", seed, "tiny")
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        warm.setup()
        workloads.run_pass(warm)
        setups.append(time.perf_counter() - start)

    budget = seconds / 2.0 if trace else seconds
    untraced = workloads.run_phase(wl, budget)
    traced, tracer = [], None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = workloads.run_phase(wl, budget, tracer, label="traced")
        finally:
            tracer.uninstall()
    passes = untraced + traced
    _check_digests(wl, passes, source_digest)

    outcomes = [o for p in passes for o in p.outcomes]
    problems = [f"{o.task}: {msg}" for o in outcomes for msg in o.problems]
    try:
        error = wl.error()
    except KeyError:
        error = None  # the output checks never read the values; the tasks failed
    untraced_wall = statistics.median(p.wall for p in untraced)
    record = {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "why": cls.why, "error_definition": cls.error_definition,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "problems": problems,
        "setup_runs_s": setups,
        "pass_wall_s": [p.wall for p in untraced],
        "quality": dict(wl.values),
        "end_to_end": {
            "wall_s": untraced_wall,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error": error,
        },
    }
    if trace:
        record.update(_trace_record(name, tracer, traced, untraced_wall))
    return record, tracer


def _trace_record(name, tracer, traced, untraced_wall):
    from spans import layer_metrics

    layer, layer_self = layer_metrics(tracer, len(traced))
    traced_total = sum(p.wall for p in traced)
    traced_wall = statistics.median(p.wall for p in traced)
    layer["trace.wall_s"] = traced_wall
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    accounted = sum(layer_self.values())
    accounted_share = accounted / traced_total
    names, minimum = PREDICTIONS[name]
    share = sum(layer[n] for n in names) / (traced_total / len(traced))
    return {
        "per_layer": layer,
        "layer_self_s": layer_self,
        "trace_accounted_share": accounted_share,
        "trace_accounting_ok": abs(accounted_share - 1.0) <= ACCOUNTING_TOLERANCE,
        "prediction": {"metrics": list(names), "share": share, "minimum": minimum,
                       "held": share >= minimum},
        "unpatched": tracer.skipped,
    }


# -- output -------------------------------------------------------------------


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def report(record):
    """Print the human-readable lines of one workload's record."""
    name = record["workload"]
    units = {m: unit for m, unit, _ in END_TO_END}
    print(f"{name}: why: {record['why']}")
    print(f"{name}: {len(record['pass_wall_s'])} untraced passes, wall "
          + ", ".join(f"{w:.4f}" for w in record["pass_wall_s"]) + " s; set-ups "
          + ", ".join(f"{s:.4f}" for s in record["setup_runs_s"]) + " s")
    for metric, value in record["end_to_end"].items():
        print(f"{name}.{metric} = {_fmt(value)} {units[metric]}")
    print(f"{name}: error = {record['error_definition']}")
    for key, value in record["quality"].items():
        print(f"{name}.{key} = {_fmt(value)}")
    print(f"{name}.tasks = {record['attempted']} count")
    print(f"{name}.tasks_failed = {record['failed']} count")
    for problem in record["problems"]:
        print(f"{name}: FAILED CHECK {problem}")
    if "per_layer" in record:
        for metric, unit, _, moves, on in PER_LAYER:
            print(f"{name}.{metric} = {_fmt(record['per_layer'][metric])} {unit}"
                  f"  (moves {moves} on {on})")
        print(f"{name}: trace accounts for {record['trace_accounted_share']:.4%} of traced wall"
              + ("" if record["trace_accounting_ok"] else " -- ACCOUNTING FAILED"))
        pred = record["prediction"]
        verdict = "held" if pred["held"] else "FAILED"
        print(f"{name}: prediction {' + '.join(pred['metrics'])} >= {pred['minimum']:.0%} "
              f"of traced wall: {pred['share']:.2%}, {verdict}")
        if record["unpatched"]:
            print(f"{name}: not traced (missing from the package): {', '.join(record['unpatched'])}")


def _save(record, tracer, env):
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{record['workload']}-{record['scale']}-seed{record['seed']}")
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")
    with open(f"{stem}-trace{record['trace']}.json", "w") as fh:
        json.dump({"env": env, **record}, fh, indent=1, sort_keys=True)


def main(argv=None):
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("NONDECOMP_THREADS", None)  # the program's default
    try:
        import_s = _load_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; expected all or one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))

    records = []
    for name in names:
        record, tracer = run_workload(name, args.seed, args.seconds, args.trace, args.scale,
                                      import_s, env["source_digest"])
        report(record)
        _save(record, tracer, env)
        records.append(record)

    correct = all(r["failed"] == 0 and r.get("trace_accounting_ok", True) for r in records)
    units = {m: unit for m, unit, *_ in END_TO_END + PER_LAYER}
    metrics = {}
    for r in records:
        values = r["per_layer"] if args.trace else r["end_to_end"]
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
