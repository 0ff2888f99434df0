"""BENCHMARK.json against the benchmark's own tables and the contract's limits."""

import json
import pathlib
import re

from perfbench.spec import ALIASES, CELLS, END_TO_END, PER_LAYER, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCUMENT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_the_spec():
    assert set(DOCUMENT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DOCUMENT["paths"] == ["perfbench"]
    assert DOCUMENT["command"] == ["python3", "-m", "perfbench"]
    assert DOCUMENT["workloads"] == [
        {"name": name, "why": why} for name, why in WORKLOADS.items()
    ]
    assert DOCUMENT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert DOCUMENT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_contract_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert isinstance(DOCUMENT["run_seconds"], int) and 1 <= DOCUMENT["run_seconds"] <= 60
    # 4 + 22 runs per workload must fit the driver's 3420 s with set-up.
    assert (4 + 22 * len(WORKLOADS)) * (DOCUMENT["run_seconds"] + 8) < 3420
    names = list(WORKLOADS) + [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = END_TO_END[0]
    assert (setup.name, setup.unit, setup.better) == ("setup_s", "s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    for why in WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_workload_fills_every_role_and_every_alias_resolves():
    assert set(CELLS) == set(WORKLOADS)
    for cells in CELLS.values():
        assert set(cells) == {m.name for m in END_TO_END} - {"setup_s"}
    known = {m.name for m in END_TO_END + PER_LAYER}
    for alias, (workload, metric) in ALIASES.items():
        assert workload in WORKLOADS and metric in known, alias
