"""Tests of the federation benchmark itself (tiny sizes, a few seconds).

Run from the repository root::

    python3 -m pytest fedbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = 1.0
#: Requests (envelopes on the open loop) per determinism run.
DETERMINISM_REQUESTS = {"long-history": 16, "tenants-ingest": 30}


def _tiny(kind, name, seed, tmp_path, **kwargs):
    fn = harness.per_layer if kind == "trace" else harness.end_to_end
    kwargs.setdefault("seconds", SMOKE_SECONDS)
    return fn(name, seed, tiny=True, workroot=tmp_path, **kwargs)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_every_metric_is_emitted_with_a_unit(name, tmp_path):
    plain = _tiny("plain", name, 3, tmp_path)
    assert plain.correct, plain.checks
    line = plain.line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(harness.END_TO_END)
    for metric in line["metrics"].values():
        assert metric["unit"] and isinstance(metric["value"], float)
        assert metric["value"] > 0
    for name_only in harness.REPORTED_ONLY:
        assert name_only in plain.notes
    assert plain.notes["failed_ratio"] == 0.0

    traced = _tiny("trace", name, 3, tmp_path)
    assert traced.correct, traced.checks
    assert list(traced.line()["metrics"]) == list(harness.PER_LAYER)
    assert all(unit for unit in traced.units.values())
    assert traced.metrics["trace.coverage_ratio"] > 0
    spans_file = tmp_path / f"spans-{name}.jsonl"
    first = json.loads(spans_file.read_text().splitlines()[0])
    assert {"id", "name", "start", "end", "parent", "request"} <= set(first)
    leftovers = [p.name for p in tmp_path.iterdir() if p != spans_file]
    assert not leftovers, "work directories must be removed"


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_outputs_and_counts(name, tmp_path):
    requests = DETERMINISM_REQUESTS[name]
    seconds = 1.0 if name == "tenants-ingest" else 60.0
    first = _tiny("trace", name, 5, tmp_path, seconds=seconds, max_requests=requests)
    second = _tiny("trace", name, 5, tmp_path, seconds=seconds, max_requests=requests)
    other = _tiny("plain", name, 6, tmp_path, seconds=seconds, max_requests=requests)
    assert first.correct and second.correct and other.correct
    assert first.digest == second.digest
    assert first.digest != other.digest
    if workloads.WORKLOADS[name].loop == "closed":
        counts = {k: first.metrics[k] for k in harness.EXACT_COUNTS}
        assert counts == {k: second.metrics[k] for k in harness.EXACT_COUNTS}
        assert first.metrics["ires.interface.receive.calls_per_req"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "tests"
    ))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "long-history",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    record = json.loads((BENCH / "record.json").read_text())
    assert set(record["workloads"]) == set(run.WORKLOAD_NAMES)
    for name, entry in record["workloads"].items():
        workload = workloads.WORKLOADS[name]
        assert entry["tail_percentiles"] == workload.full.tail
        assert entry["sizes"]["templates"] == workload.full.templates
