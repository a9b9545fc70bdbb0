"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run_bench  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run_bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, cls.why) for name, cls in workloads.WORKLOADS.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run_bench.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in run_bench.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_prints_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = spec["per_layer"] if trace else spec["end_to_end"]
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    for name in workloads.WORKLOADS:
        for metric in named:
            entry = result["metrics"][f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
            assert any(line.startswith(f"{name}.{metric['name']} = ")
                       and f" {metric['unit']}" in line for line in lines)


def test_corrupted_model_counts_as_failed_task(tmp_path):
    wl = workloads.GroupedWalkthrough(str(ROOT), str(tmp_path), seed=1, scale="tiny")
    wl.setup()
    clean = workloads.run_pass(wl)
    assert [o.problems for o in clean.outcomes] == [[]] * 5
    Path(wl.model_path).write_text("nondecomp-model dense\ndims 8 20\ntheta none\n1 2 x\n")
    corrupted = workloads.run_pass(wl, tasks=wl.tasks()[1:])
    failed = [o for o in corrupted.outcomes if o.problems]
    assert failed and failed[0].task == "threshold"
    assert failed[0].problems == ["exit code 2"]


@pytest.mark.parametrize("cls", [workloads.LowrankConvergence, workloads.ConvexRateCheck])
def test_outputs_do_not_depend_on_thread_count(cls, tmp_path, monkeypatch):
    digests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NONDECOMP_THREADS", threads)
        wl = cls(str(ROOT), str(tmp_path), seed=2, scale="tiny")
        result = workloads.run_pass(wl)
        assert all(not o.problems for o in result.outcomes)
        digests.append(result.digest)
    assert digests[0] == digests[1]


def test_layer_self_times_add_up_to_the_root_spans(tmp_path):
    wl = workloads.ConvexRateCheck(str(ROOT), str(tmp_path), seed=0, scale="tiny")
    tracer = Tracer()
    tracer.install()
    try:
        result = workloads.run_pass(wl, tracer=tracer, run_id="t")
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    metrics, layer_self = layer_metrics(tracer, 1)
    assert sum(layer_self.values()) == pytest.approx(roots[0].end - roots[0].start, rel=1e-9)
    assert metrics["estimator.fit_prox_grad.calls"] > 0
    assert result.wall >= roots[0].end - roots[0].start


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "convex_rate_check", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
