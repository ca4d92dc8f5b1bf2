"""The package's export list, and the library API the benchmark harness calls."""

import ast
import importlib
from pathlib import Path

import pytest

import kspm

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("analysis", "avalanche", "core", "dds", "verify", "cli")


def test_all_names_resolve_without_duplicates():
    assert len(kspm.__all__) == len(set(kspm.__all__))
    assert [name for name in kspm.__all__ if not hasattr(kspm, name)] == []


def _exists(module, name):
    """Whether `from module import name` would succeed: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_bench_calls_only_names_that_exist(script):
    """Every name the harness imports from kspm, and every attribute it reads off
    kspm.analysis, .avalanche, .core, .dds, .verify or .cli, exists.  The scripts
    are parsed, not imported, so a removal that breaks the benchmark fails here."""
    tree = ast.parse((BENCH / script).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kspm":
            used.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            used.add((f"kspm.{node.value.id}", node.attr))
    assert used
    assert sorted(u for u in used if not _exists(*u)) == []


def test_kth_avalanche_from_the_package():
    """The k-th avalanche is the first step of a scan from pi(k - 1), with its whole
    firing order read off the pile by `firing_order`, both exported."""
    assert {"steps", "firing_order"} <= set(kspm.__all__)
    k, head, _, last, b = next(kspm.steps(1, 2, start=24))
    assert k == 25
    assert kspm.firing_order(b, 2, head, last) == [0, 2, 1, 4, 3]
