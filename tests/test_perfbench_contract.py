"""The benchmark under ``perfbench/`` imports names from ``rigraph`` and swaps
``rigraph.sweeps`` globals to time the layers.  Its own tests cannot run in
the same pytest run as these, so this checks, by reading its source,
that every name it relies on still exists."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def test_benchmark_sources_found():
    assert PERFBENCH / "workloads.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_names_used_from_rigraph_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name -> imported rigraph module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rigraph":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "rigraph" and a.asname:
                    aliases[a.asname] = importlib.import_module(a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if module is not None and not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
        # _patched(module, "name", wrapper) swaps a module global
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_patched":
            target, name = node.args[0], node.args[1]
            module = aliases.get(getattr(target, "id", None))
            assert module is not None, f"{path.name}: _patched on {ast.unparse(target)}"
            if name.value not in vars(module):
                missing.append(f"{module.__name__}.{name.value} (swapped global)")
    assert missing == []
