"""The names the benchmark under `perfbench/` reads from the library.

The benchmark traces the functions listed in `perfbench/tracer.py`, reads
the `volume` cache counters and imports the generators, the JSON writers
and the CLI entry point.  A library change that drops or renames one of
them breaks the benchmark before it times anything, so the contract is
checked here, with the benchmark's files read and never changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module, name):
    """module.name the way `from module import name` finds it: an attribute,
    or else a submodule; None when neither exists."""
    value = getattr(importlib.import_module(module), name, None)
    if value is None:
        try:
            value = importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pass
    return value


def _library_names(path):
    """(module, name) for each library name a benchmark file imports, or reads
    as an attribute of an imported library module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> the library module bound to it
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "coconvex":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coconvex":
            for alias in node.names:
                names.append((node.module, alias.name))
                if isinstance(_resolve(node.module, alias.name), ModuleType):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and not node.attr.startswith("__"):
                names.append((modules[node.value.id], node.attr))
    return names


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [name for name, _ in tracer.target_names()]
    assert names
    missing = [name for name in names
               if not callable(_resolve(*f"coconvex.{name}".rsplit(".", 1)))]
    assert missing == []


def test_volume_keeps_its_cache_counters():
    from coconvex import polytope

    assert callable(polytope.volume.cache_info)


@pytest.mark.parametrize("script", ["workloads.py", "worker.py"])
def test_benchmark_imports_resolve(script):
    names = _library_names(PERFBENCH / script)
    assert names
    missing = [f"{module}.{name}" for module, name in names if _resolve(module, name) is None]
    assert missing == []
