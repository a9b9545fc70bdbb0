import importlib
import pkgutil

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
