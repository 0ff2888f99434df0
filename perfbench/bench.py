"""Run workloads, untraced and traced, and put names on what they measured.

One run of one workload is one fresh process: each further pass in a
process that already ran one reads slower (store-scale: build 3.76 ->
3.87 -> 4.26 s, full exchange 405 -> 451 -> 499 ms over three passes),
which would pass for tracing overhead or for run-to-run drift.  So a
traced run gets its untraced reference from a child process, and the
full set spawns every run.
"""

from __future__ import annotations

import gc
import json
import pathlib
import subprocess
import sys
from typing import Any, Dict, List, Tuple

from perfbench.probes import run_probes
from perfbench.result import Result
from perfbench.spec import ALIASES, CELLS, END_TO_END, PER_LAYER, WORKLOADS
from perfbench.stats import median, summarize, worsened_by
from perfbench.trace import NullTracer, Tracer, self_time_by_name
from perfbench.workloads import MODULES

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: A smoke pass runs every size at 1/20; its numbers are never compared.
SMOKE_SCALE = 0.05
#: Share of a traced run's seconds given to its untraced reference run.
REFERENCE_SHARE = 0.4
#: A child run that takes longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 170.0
#: Untraced runs per workload in each set of a self check.  Now and
#: then a whole run on this sandbox lands in a slow spell and reads
#: 25-35 % worse all over; the median of three outvotes it.
SELFCHECK_REPEATS = 3

#: Per-layer counts that must repeat exactly for a seed.
EXACT_LAYER_COUNTS = (
    "protocols.exchange.hier_entries_examined",
    "protocols.exchange.full_entries_examined",
    "protocols.exchange.tree_comparisons",
    "net.node.rumor_rounds_mean",
    "net.node.ae_rounds_mean",
    "workload.driver.staleness_p99_cycles",
)


def _run(name: str, seed: int, seconds: float, tracer, smoke: bool) -> Result:
    try:
        return MODULES[name].run(seed, seconds, tracer, SMOKE_SCALE if smoke else 1.0)
    finally:
        # The workload froze its set-up heap (settle_heap); give it back.
        gc.unfreeze()
        gc.collect()


def run_untraced(name: str, seed: int, seconds: float, smoke: bool = False) -> Result:
    """End-to-end metrics come from this: tracing off."""
    return _run(name, seed, seconds, NullTracer(), smoke)


def spawn(
    name: str, seed: int, seconds: float, trace: int, smoke: bool
) -> Tuple[Dict[str, Any], List[str]]:
    """One run in a child process, as the driver would start it.  A run
    prints its environment line, lines for people, then the result
    line; returns the result and the lines for people."""
    command = [
        sys.executable, "-m", "perfbench", "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr[-500:]}")
    _environment, *human, last = done.stdout.rstrip("\n").split("\n")
    return json.loads(last), human


def run_traced(
    name: str, seed: int, seconds: float, smoke: bool = False
) -> Tuple[Dict[str, float], Dict[str, Any], Result, Tracer]:
    """The same seed untraced (a child process) and traced (here), plus
    the layer probes; returns every per-layer metric, the reference's
    result line, the traced result and the spans."""
    reference, _ = spawn(name, seed, seconds * REFERENCE_SHARE, 0, smoke)
    tracer = Tracer(name)
    traced = _run(name, seed, seconds * (1.0 - REFERENCE_SHARE), tracer, smoke)
    layer = {metric.name: 0.0 for metric in PER_LAYER}
    layer.update(run_probes(seed, tracer))
    layer.update(traced.layer)
    untraced = reference["metrics"]
    layer["trace_overhead_ratio"] = (median(traced.light_ms) + median(traced.heavy_ms)) / (
        untraced["light_ms_p50"]["value"] + untraced["heavy_ms_p50"]["value"]
    )
    layer["explained_share"] = MODULES[name].explain(traced, layer) / median(traced.heavy_ms)
    tracer.write(OUT_DIR / f"trace-{name}.jsonl")
    return layer, reference, traced, tracer


def driver_line(metrics: Dict[str, float], specs, attempted: int, failed: int) -> Dict[str, Any]:
    """The one JSON object the driver reads from the last output line."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": metrics[metric.name], "unit": metric.unit}
            for metric in specs
        },
    }


# ----------------------------------------------------------------------
# The human report
# ----------------------------------------------------------------------


def _aliases_of(workload: str, metric: str) -> str:
    names = [alias for alias, cell in ALIASES.items() if cell == (workload, metric)]
    return f"  [{', '.join(names)}]" if names else ""


def end_to_end_lines(name: str, result: Result) -> List[str]:
    values = result.end_to_end()
    cells = CELLS[name]
    lines = [f"{name}: attempted={result.attempted} failed={result.failed} info={result.info}"]
    lines += [f"  FAILED: {message}" for message in result.failures]
    for metric in END_TO_END:
        meaning = cells.get(metric.name, metric.note)
        samples = {
            "setup_s": result.setup_s,
            "light_ms_p50": result.light_ms,
            "heavy_ms_p50": result.heavy_ms,
        }.get(metric.name)
        detail = f" ({summarize(samples)})" if samples else ""
        lines.append(
            f"  {metric.name:<18}{values[metric.name]:>14.6g} {metric.unit:<6}"
            f"{metric.better} is better, bound {metric.bound:.0%}{detail}"
            f"  = {meaning}{_aliases_of(name, metric.name)}"
        )
    return lines


def per_layer_lines(name: str, layer: Dict[str, float], traced: Result, tracer: Tracer) -> List[str]:
    lines = [
        f"{name} (traced): attempted={traced.attempted} failed={traced.failed} "
        f"{len(tracer.spans)} spans -> perfbench/out/trace-{name}.jsonl"
    ]
    lines += [f"  FAILED: {message}" for message in traced.failures]
    own = self_time_by_name(tracer.spans)
    for span_name in sorted(own, key=own.get, reverse=True)[:8]:
        lines.append(f"  self time {span_name:<22}{own[span_name]:>10.4f} s")
    for metric in PER_LAYER:
        value = layer[metric.name]
        if value:
            lines.append(
                f"  {metric.name:<44}{value:>14.6g} {metric.unit:<6}"
                f"{_aliases_of(name, metric.name)}"
            )
    return lines


# ----------------------------------------------------------------------
# The whole set, and the self check
# ----------------------------------------------------------------------


def run_suite(seed: int, seconds: float, smoke: bool = False, repeats: int = 1) -> Dict[str, Any]:
    """Every workload untraced (``repeats`` times, the set keeps each
    metric's median) and then traced, each run in its own process; a
    run that fails a check, crashes or hangs is counted against its
    workload and does not stop the rest."""
    report: Dict[str, Any] = {}
    for name in WORKLOADS:
        entry: Dict[str, Any] = {"attempted": 0, "failed": 0}

        def child(trace: int):
            try:
                line, human = spawn(name, seed, seconds, trace, smoke)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
                print(f"{name} --trace {trace}: ABORTED {error}")
                entry["attempted"] += 1
                entry["failed"] += 1
                return None
            print("\n".join(human))
            entry["attempted"] += line["attempted"]
            entry["failed"] += line["failed"]
            return {key: cell["value"] for key, cell in line["metrics"].items()}

        runs = [values for values in (child(0) for _ in range(repeats)) if values]
        if runs:
            entry["end_to_end"] = {
                metric.name: median([values[metric.name] for values in runs])
                for metric in END_TO_END
            }
        layer = child(1)
        if layer:
            entry["per_layer"] = layer
        report[name] = entry
    return report


def compare_sets(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Where two sets of runs of the same code and seed disagree:
    an end-to-end metric beyond its own bound, an exact count at all,
    or any failed operation."""
    offending: List[str] = []
    for name in first:
        a, b = first[name], second[name]
        if a["failed"] or b["failed"]:
            offending.append(f"{name}: failed operations {a['failed']} / {b['failed']}")
            continue
        for metric in END_TO_END:
            x, y = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            exact = metric.name == "traffic_per_item"
            apart = max(worsened_by(x, y, metric.better), worsened_by(y, x, metric.better))
            if (x != y) if exact else apart > metric.bound:
                rule = "exact count" if exact else f"bound {metric.bound:.0%}"
                offending.append(f"{name} {metric.name}: {x!r} vs {y!r} ({rule})")
        for count in EXACT_LAYER_COUNTS:
            x, y = a["per_layer"][count], b["per_layer"][count]
            if x != y:
                offending.append(f"{name} {count}: {x!r} vs {y!r} (exact count)")
    return offending
