"""Span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: ``Tracer.install``
replaces the public names that ``nondecomp.cli`` and ``nondecomp.harness``
call (``nondecomp.harness.fit_alt_min``, ``nondecomp.harness.parse_dataset``,
...) with timing wrappers, and ``Tracer.uninstall`` puts the originals back.
The package itself is not modified.

Every span records a name, start, end, parent and run id. The name's first
dotted part is the layer (``cli``, ``harness``, ``sampler``, ``estimator``,
``losses``, ``metrics``, ``dataset_io``). A span is recorded only under an
open root span (one ``cli.main`` call), so the benchmark's own output
checks, which call the same library functions, never enter the trace.

Loss methods run tens of thousands of times per fit, so they are not kept
as individual spans: each (parent span, method) pair keeps a call count,
an entry count and a time total. That keeps the self-time arithmetic exact
and the span list small.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("cli", "harness", "sampler", "estimator", "losses", "metrics", "dataset_io")


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; ``write`` saves them at the end of a run."""

    def __init__(self):
        self.spans = []
        # (parent span id, loss method) -> [calls, seconds, entries]
        self.leaves = {}
        self.skipped = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name, run_id):
        """Open a root span; spans opened inside it on this thread nest under it."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append((sid, run_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, None, name, start, end, run_id))

    def call(self, name, fn, args, kwargs, attrs_of=None):
        stack = self._stack()
        if not stack:
            return fn(*args, **kwargs)
        parent, run_id = stack[-1]
        sid = next(self._ids)
        stack.append((sid, run_id))
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = attrs_of(result, args) if returned and attrs_of is not None else {}
            self.spans.append(Span(sid, parent, name, start, end, run_id, attrs))

    def leaf(self, name, fn, t, y):
        stack = self._stack()
        if not stack:
            return fn(t, y)
        start = time.perf_counter()
        out = fn(t, y)
        seconds = time.perf_counter() - start
        # a parent span belongs to one thread, so no other thread updates this record
        rec = self.leaves.setdefault((stack[-1][0], name), [0, 0.0, 0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += int(getattr(t, "size", 1))
        return out

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap the layer entry points; names missing from the package are skipped."""
        import nondecomp.cli as cli
        import nondecomp.dataset_io as dataset_io
        import nondecomp.estimator as estimator
        import nondecomp.harness as harness

        table = [
            (cli, "run_task", "harness.run_task", None),
            (harness, "fit_alt_min", "estimator.fit_alt_min", _fit_attrs),
            (harness, "fit_prox_grad", "estimator.fit_prox_grad", _fit_attrs),
            (harness, "fit_plugin_baseline", "estimator.fit_plugin_baseline", None),
            (harness, "predict_scores", "estimator.predict_scores", None),
            (harness, "objective", "estimator.objective", None),
            (harness, "recovery_error", "estimator.recovery_error", None),
            (harness, "threshold_sweep", _sweep_name, _sweep_attrs),
            (harness, "apply_threshold", "metrics.apply_threshold", None),
            (harness, "confusion_micro", "metrics.confusion", None),
            (harness, "confusion_grouped", "metrics.confusion", None),
            (harness, "eval_metric_info", "metrics.eval_metric_info", None),
            (harness, "parse_dataset", "dataset_io.parse_dataset", _read_bytes),
            (harness, "load_model", "dataset_io.load_model", _read_bytes),
            (harness, "save_model", "dataset_io.save_model", _written_bytes),
            (harness, "append_results_csv", "dataset_io.results", None),
            (harness, "write_results_csv", "dataset_io.results", None),
            (harness, "emit_plot", "dataset_io.emit_plot", None),
            (harness, "mask_observations", "dataset_io.mask_observations", None),
            (dataset_io.SparseDataset, "to_dense_X", "dataset_io.to_dense", None),
            (dataset_io.SparseDataset, "label_matrix", "dataset_io.to_dense", None),
            (harness, "generate_problem", "sampler.generate_problem", None),
            (harness, "sample_omega", "sampler.sample_omega", None),
            (dataset_io, "sample_omega", "sampler.sample_omega", None),
            (harness, "_fresh_test_split", "sampler.test_split", None),
        ]
        for owner, attr, name, attrs_of in table:
            original = owner.__dict__.get(attr)
            if original is None:
                self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patch(owner, attr, original, self._wrapper(name, original, attrs_of))

        # loss objects the estimator receives (through harness.get_loss) or builds
        for owner, attr in ((harness, "get_loss"), (estimator, "LogisticLoss")):
            original = owner.__dict__.get(attr)
            if original is None:
                self.skipped.append(f"{owner.__name__}.{attr}")
                continue
            self._patch(owner, attr, original, self._loss_factory(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrapper(self, name, fn, attrs_of):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.call(span_name, fn, args, kwargs, attrs_of)

        traced.__wrapped__ = fn
        return traced

    def _loss_factory(self, make):
        def make_counted(*args, **kwargs):
            return CountingLoss(make(*args, **kwargs), self)

        return make_counted

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Write every span, then the loss counters, as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "run_id": s.run_id, "attrs": s.attrs,
                }) + "\n")
            for (parent, name), (calls, seconds, entries) in sorted(self.leaves.items()):
                fh.write(json.dumps({
                    "parent": parent, "name": name, "calls": calls,
                    "seconds": seconds, "entries": entries,
                }) + "\n")


class CountingLoss:
    """A loss whose value/grad_t/hess_t calls are counted and timed."""

    def __init__(self, base, tracer):
        self._base = base
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._base, name)

    def value(self, t, y):
        return self._tracer.leaf("losses.value", self._base.value, t, y)

    def grad_t(self, t, y):
        return self._tracer.leaf("losses.grad_t", self._base.grad_t, t, y)

    def hess_t(self, t, y):
        return self._tracer.leaf("losses.hess_t", self._base.hess_t, t, y)


def _fit_attrs(result, args):
    _, report = result
    if report is None:
        return {}
    return {"iterations": report.iterations, "converged": bool(report.converged)}


def _sweep_name(args, kwargs):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return f"metrics.threshold_sweep.{spec.mode}"


def _sweep_attrs(result, args):
    return {"candidates": result.candidates_evaluated}


def _read_bytes(result, args):
    try:
        return {"bytes": os.fstat(args[0].fileno()).st_size}
    except (AttributeError, OSError, io.UnsupportedOperation):
        return {}


def _written_bytes(result, args):
    return {"bytes": args[1].tell()}


def layer_metrics(tracer, passes):
    """Per-layer totals of a traced phase, divided by its number of passes.

    Returns (metrics, layer_self): ``metrics`` maps the per-layer metric
    names to values, ``layer_self`` maps each layer to its self time. Self
    time is a span's duration minus the time its child spans and loss calls
    cover; summed over all layers it equals the summed root-span time.
    """
    covered = {}
    for s in tracer.spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    for (parent, _), (_, seconds, _) in tracer.leaves.items():
        covered[parent] = covered.get(parent, 0.0) + seconds

    layer_self = {layer: 0.0 for layer in LAYERS}
    totals = {}  # span name -> {"s", "calls", attr sums}
    for s in tracer.spans:
        dur = s.end - s.start
        layer = s.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur - covered.get(s.span_id, 0.0)
        tot = totals.setdefault(s.name, {"s": 0.0, "calls": 0})
        tot["s"] += dur
        tot["calls"] += 1
        for key, val in s.attrs.items():
            tot[key] = tot.get(key, 0) + val
    loss = {"value": 0, "grad_t": 0, "hess_t": 0, "entries": 0, "s": 0.0}
    for (_, name), (calls, seconds, entries) in tracer.leaves.items():
        loss[name.split(".", 1)[1]] += calls
        loss["entries"] += entries
        loss["s"] += seconds
    layer_self["losses"] += loss["s"]

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    def per_fit(name, key):
        calls = get(name, "calls")
        return get(name, key) / calls if calls else 0.0

    m = {}
    for fit in ("fit_alt_min", "fit_prox_grad"):
        name = f"estimator.{fit}"
        m[f"{name}.s"] = get(name)
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.iterations"] = per_fit(name, "iterations")
        m[f"{name}.converged"] = per_fit(name, "converged")
    m["estimator.fit_plugin_baseline.s"] = get("estimator.fit_plugin_baseline")
    m["estimator.fit_plugin_baseline.calls"] = get("estimator.fit_plugin_baseline", "calls")
    m["estimator.predict_scores.s"] = get("estimator.predict_scores")
    m["estimator.objective.s"] = get("estimator.objective")
    for method in ("value", "grad_t", "hess_t"):
        m[f"losses.{method}.calls"] = loss[method]
    m["losses.entries"] = loss["entries"]
    m["losses.s"] = loss["s"]
    for mode in ("micro", "macro", "instance"):
        m[f"metrics.threshold_sweep.{mode}.s"] = get(f"metrics.threshold_sweep.{mode}")
    m["metrics.threshold_sweep.candidates"] = sum(
        get(f"metrics.threshold_sweep.{mode}", "candidates")
        for mode in ("micro", "macro", "instance")
    )
    for name in ("confusion", "eval_metric_info", "apply_threshold"):
        m[f"metrics.{name}.s"] = get(f"metrics.{name}")
    m["dataset_io.parse_dataset.s"] = get("dataset_io.parse_dataset")
    m["dataset_io.parse_dataset.calls"] = get("dataset_io.parse_dataset", "calls")
    m["dataset_io.parse_dataset.bytes"] = get("dataset_io.parse_dataset", "bytes")
    for name in ("save_model", "load_model"):
        m[f"dataset_io.{name}.s"] = get(f"dataset_io.{name}")
        m[f"dataset_io.{name}.bytes"] = get(f"dataset_io.{name}", "bytes")
    m["dataset_io.results.s"] = get("dataset_io.results")
    for name in ("generate_problem", "sample_omega", "test_split"):
        m[f"sampler.{name}.s"] = get(f"sampler.{name}")
        m[f"sampler.{name}.calls"] = get(f"sampler.{name}", "calls")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    ratios = {k for k in m if k.endswith((".iterations", ".converged"))}
    scale = 1.0 / max(1, passes)
    return {k: (v if k in ratios else v * scale) for k, v in m.items()}, layer_self
