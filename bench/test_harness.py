"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_harness.py

Checks that every metric named in BENCHMARK.json is emitted, untraced and
traced, that the seed code passes every gate, and that a corrupted command
output is caught and raises fail_frac.
"""

import pytest

import run

run.use_checkout_src()

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_and_gates_pass(workload, trace):
    record = run.run_workload(workload, seed=3, seconds=0, trace=trace, tiny=True)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        value = record["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float)
    assert record["failures"] == [] and record["correct"]
    assert record["failed"] == 0 and record["attempted"] == record["passes"] * (1 + trace) * len(
        record["commands"])
    if not trace:
        assert all(value["value"] > 0 for value in record["metrics"].values())


def _corrupt(text: str) -> str:
    """Change one digit, or turn PASS into FAIL."""
    if "PASS" in text:
        return text.replace("PASS", "FAIL", 1)
    i = max(i for i, ch in enumerate(text) if ch in "123456789")
    return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_output_raises_fail_frac(workload):
    def tamper(index, out):
        return _corrupt(out) if index == 0 else out

    record = run.run_workload(workload, seed=3, seconds=0, trace=False, tiny=True, tamper=tamper)
    assert record["failed"] >= 1 and record["fail_frac"] > 0 and not record["correct"]


def test_counters_repeat_for_a_seed():
    a = run.run_workload("scan_stream", seed=5, seconds=0, trace=False, tiny=True)
    b = run.run_workload("scan_stream", seed=5, seconds=0, trace=False, tiny=True)
    assert a["counters"] == b["counters"] and b["failures"] == []
    assert a["counters"]["avalanche.firings"] == a["counters"]["engine.firings"] > 0
