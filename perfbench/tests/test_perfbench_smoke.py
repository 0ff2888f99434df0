"""One pass of every workload at 1/20 size.  The numbers are smoke:
checked for presence and sanity, never compared with anything."""

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import bench
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = bench.ROOT


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name):
    result = bench.run_untraced(name, seed=11, seconds=0.3, smoke=True)
    assert result.failed == 0, result.failures
    assert result.attempted >= 1
    assert len(result.setup_s) == 5
    values = result.end_to_end()
    assert set(values) == {metric.name for metric in END_TO_END}
    for metric_name, value in values.items():
        assert math.isfinite(value) and value > 0, (metric_name, value)


def test_same_seed_same_exact_counts():
    first = bench.run_untraced("store-scale", seed=5, seconds=0.2, smoke=True)
    second = bench.run_untraced("store-scale", seed=5, seconds=0.4, smoke=True)
    other = bench.run_untraced("store-scale", seed=6, seconds=0.2, smoke=True)
    assert first.end_to_end()["traffic_per_item"] == second.end_to_end()["traffic_per_item"]
    assert first.traffic != other.traffic


def test_traced_run_reports_every_layer_and_writes_spans():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "live-repair", "--seed", "11",
         "--seconds", "0.5", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {metric.name for metric in PER_LAYER}
    metrics = {name: cell["value"] for name, cell in line["metrics"].items()}
    assert metrics["net.binwire.v4_encode_us_large"] > 0      # a probe
    assert metrics["trace_overhead_ratio"] > 0
    assert metrics["explained_share"] > 0
    assert metrics["net.node.rumor_rounds_mean"] == 0          # not this workload's layer
    spans = [
        json.loads(row)
        for row in (bench.OUT_DIR / "trace-live-repair.jsonl").read_text().splitlines()
    ]
    assert {"catchup", "repair.dirty", "probe.codec"} <= {span["name"] for span in spans}


def test_a_failed_check_is_counted_not_raised():
    from perfbench.result import Result

    result = Result("store-scale")
    assert result.check(True, "fine")
    assert not result.check(False, "stores differ")
    assert (result.attempted, result.failed, result.failures) == (2, 1, ["stores differ"])


def test_compare_sets_flags_bounds_exact_counts_and_failures():
    def entry(work, traffic, rounds, failed=0):
        values = {metric.name: 1.0 for metric in END_TO_END}
        values.update(work_per_s=work, traffic_per_item=traffic)
        layer = {name: 0.0 for name in bench.EXACT_LAYER_COUNTS}
        layer["net.node.rumor_rounds_mean"] = rounds
        return {"end_to_end": values, "per_layer": layer, "attempted": 10, "failed": failed}

    same = {"live-rumor": entry(100.0, 10.5, 7.9)}
    assert bench.compare_sets(same, {"live-rumor": entry(104.0, 10.5, 7.9)}) == []
    slower = bench.compare_sets(same, {"live-rumor": entry(70.0, 10.5, 7.9)})
    assert len(slower) == 1 and "work_per_s" in slower[0]
    counts = bench.compare_sets(same, {"live-rumor": entry(100.0, 10.6, 8.0)})
    assert len(counts) == 2 and all("exact count" in text for text in counts)
    failed = bench.compare_sets(same, {"live-rumor": entry(100.0, 10.5, 7.9, failed=1)})
    assert len(failed) == 1 and "failed operations" in failed[0]


def test_nothing_to_measure_is_an_error(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "sim-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "nothing to measure" in done.stderr
