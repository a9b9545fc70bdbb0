import ast
import importlib
import pathlib
import pkgutil

import pytest

import nondecomp


def test_every_exported_name_exists():
    # a stale __all__ entry imports fine and fails only on `from module import *`
    missing = {}
    for info in pkgutil.iter_modules(nondecomp.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"nondecomp.{info.name}")
        absent = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if absent:
            missing[info.name] = absent
    assert missing == {}


def test_every_private_helper_is_used():
    # a module-level private name that nothing reads is left over from a deletion
    package = pathlib.Path(nondecomp.__file__).parent
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(private - used) == []


def test_bench_tracer_finds_the_names_it_wraps(monkeypatch):
    # a renamed or deleted name would silently read 0 in its per-layer metric
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    if not (bench / "spans.py").exists():
        pytest.skip("bench/spans.py is absent")
    monkeypatch.syspath_prepend(str(bench))
    from spans import Tracer

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    # the two rows whose names the package no longer has
    assert set(tracer.skipped) <= {"nondecomp.harness.objective", "nondecomp.harness.sample_omega"}


def test_every_task_has_a_command():
    # the config cannot import the harness, so the two task lists are kept
    # apart; a task added to one and not the other fails here
    from nondecomp.config import TASKS
    from nondecomp.harness import _COMMANDS

    assert tuple(_COMMANDS) == TASKS
