"""The package's export list, and the library API the benchmark harness calls."""

import ast
import copy
import importlib
import pickle
from pathlib import Path

import pytest

import kspm
from kspm import (
    Avalanche, AvgVector, Configuration, HeightProfile, Params, ScanSummary, ShotVector,
    SpectrumReport, WaveReport,
)
from kspm.verify import CheckResult

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


# one record of each class, by field; single-field records of different classes share values
RECORDS = [
    (Params, {"p": 2}),
    (HeightProfile, {"heights": (2, 1)}),
    (Configuration, {"diffs": (2, 1, 2), "params": Params(2)}),
    (ShotVector, {"counts": (3, 1), "grains": 9, "params": Params(2)}),
    (AvgVector, {"entries": (2, 1)}),
    (SpectrumReport, {"p": 2, "roots": (-0.5 + 0j,), "max_modulus": 0.5}),
    (WaveReport, {"theorem1_index": 1, "theorem2_index": 2, "decomposition": ((0, 1),),
                  "nontrivial": True}),
    (Avalanche, {"k": 25, "fired": (0, 2, 1, 4, 3)}),
    (ScanSummary, {"total_firings": 2}),
    (CheckResult, {"name": "waves p=2", "passed": True, "detail": "ok",
                   "counterexample": None, "data": {"width": 5}}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_frozen_values(cls, fields):
    """Each record class behaves as a frozen dataclass: equal by class and field, hashed by
    field, printed as Name(field=value, ...), read-only, built by position or keyword, and
    rebuilt equal by pickle and deepcopy."""
    x, y = cls(*fields.values()), cls(**fields)
    assert x == y and not x != y
    try:
        hash(x)
    except TypeError:
        assert cls is CheckResult  # it holds dicts
    else:
        assert hash(x) == hash(y)
    twin = type(cls.__name__, (cls,), {})(**fields)
    others = [other(**f) for other, f in RECORDS if other is not cls]
    assert all(x != z and z != x for z in [twin, *others])
    assert repr(x) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y
    trusted = [Configuration._trusted(x.diffs, x.params)] if cls is Configuration else []
    for z in [x, *trusted]:
        assert pickle.loads(pickle.dumps(z)) == z
        assert copy.deepcopy(z) == z
