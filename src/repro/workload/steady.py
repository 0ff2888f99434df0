"""Steady-state measurement runs: sustained traffic, curve outputs.

:func:`run_steady_state` is the simulator half of
``python -m repro workload``: it builds a cluster (uniform, or a
:class:`~repro.workload.geo.WanNetwork` deployment), attaches
full-compare anti-entropy, drives a
:class:`~repro.workload.driver.WorkloadDriver` for ``cycles`` cycles,
and reports the steady-state observables:

* **throughput** (operations per cycle) and the op mix that was played;
* **read staleness** percentiles (p50/p99), in cycles;
* **traffic per link**, attributed to named WAN links when a geo model
  is present;
* per-window **curves** (throughput, staleness, residue over time);
* whether the cluster still converges once injection stops (the
  quiesce check every sustained-load study in this repo ends with).

The report dict uses the ``repro-workload/1`` schema — the exact same
keys the live harness (:mod:`repro.workload.live`) produces, so sim
and live curves are directly comparable; only the time unit differs
(cycles vs seconds).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.analysis.traffic import traffic_summary
from repro.cluster.cluster import Cluster
from repro.obs.events import HARNESS_NODE, EventBus, EventKind
from repro.obs.metrics import MetricsRegistry, linear_buckets
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import FullCompare
from repro.sim.rng import derive_seed
from repro.workload.driver import WorkloadDriver
from repro.workload.generators import ClientPool, WorkloadConfig
from repro.workload.geo import WanConfig, WanNetwork
from repro.workload.stats import WindowSeries

#: Report schema identifier shared by the sim and live harnesses.
SCHEMA = "repro-workload/1"

#: Cycles a run may take to converge once injection stops.
QUIESCE_CYCLES = 200


@dataclasses.dataclass(frozen=True)
class SteadyStateConfig:
    """One steady-state run: the traffic, the deployment, the length."""

    workload: WorkloadConfig = WorkloadConfig()
    n: int = 24                       # uniform-network size (ignored with wan)
    wan: Optional[WanConfig] = None   # geo deployment instead of uniform
    cycles: int = 60
    window: int = 5
    seed: int = 0
    pool: Optional[ClientPool] = None  # closed-loop when set, open-loop else

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("cycles must be positive")
        if self.window < 1 or self.window > self.cycles:
            raise ValueError("window must be in [1, cycles]")
        if self.n < 2 and self.wan is None:
            raise ValueError("need at least two sites")


def build_report(
    runtime: str,
    unit: str,
    n: int,
    duration: float,
    ops: Dict[str, int],
    staleness: Dict[str, Any],
    traffic: Dict[str, Any],
    curves: Dict[str, Any],
    converged_after_quiesce: bool,
) -> Dict[str, Any]:
    """Assemble the shared ``repro-workload/1`` report shape.

    Both harnesses funnel through this one function so the sim and
    live reports cannot drift apart structurally.
    """
    throughput = ops["total"] / duration if duration > 0 else 0.0
    return {
        "schema": SCHEMA,
        "runtime": runtime,
        "unit": unit,
        "n": n,
        "duration": round(duration, 6),
        "ops": ops,
        "throughput": {
            "mean": round(throughput, 6),
            "unit": f"ops/{'cycle' if unit == 'cycles' else 'second'}",
        },
        "staleness": {"unit": unit, **staleness},
        "traffic": traffic,
        "curves": curves,
        "converged_after_quiesce": converged_after_quiesce,
    }


def empty_traffic_summary() -> Dict[str, Any]:
    """The traffic block for deployments without routed links."""
    return {
        "links": [],
        "wan_conversations": 0.0,
        "wan_share": 0.0,
        "busiest_wan_link": None,
    }


def run_steady_state(
    config: SteadyStateConfig,
    bus: Optional[EventBus] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Run one steady-state simulation; returns the report dict."""
    wan_net: Optional[WanNetwork] = None
    seed = derive_seed(config.seed, "steady-state")
    if config.wan is not None:
        wan_net = WanNetwork(config.wan)
        cluster = Cluster(topology=wan_net.topology, seed=seed, bus=bus)
        cluster.attach_wan(wan_net)
    else:
        cluster = Cluster(n=config.n, seed=seed, bus=bus)
    cluster.add_protocol(
        AntiEntropyProtocol(
            config=AntiEntropyConfig(
                mode=ExchangeMode.PUSH_PULL, synchronous=False
            ),
            strategy=FullCompare(),
        )
    )
    driver = WorkloadDriver(
        cluster, config.workload, seed=config.seed, pool=config.pool
    )
    series = WindowSeries(float(config.window))
    registry = metrics if metrics is not None else MetricsRegistry()
    ops_counter = registry.counter(
        "repro_workload_ops_total", "Client operations injected", labels=("kind",)
    )
    staleness_histogram = registry.histogram(
        "repro_workload_read_staleness",
        "Read staleness in cycles",
        buckets=linear_buckets(0.0, 2.0, 12),
    )

    def _staleness_sink(value: float) -> None:
        series.note_staleness(value)
        staleness_histogram.observe(value)

    driver.on_staleness(_staleness_sink)
    last = {"write": 0, "read": 0, "delete": 0}
    for cycle_index in range(config.cycles):
        count = driver.inject_one_cycle()
        series.note_ops(count)
        for kind, total in (
            ("write", driver.writes),
            ("read", driver.reads),
            ("delete", driver.deletes),
        ):
            ops_counter.inc(total - last[kind], kind=kind)
            last[kind] = total
        cluster.run_cycle()
        if (cycle_index + 1) % config.window == 0:
            point = series.close_window(
                t=float(cluster.cycle), residue=driver.residue()
            )
            if cluster.bus.has_sinks:
                cluster.bus.emit(
                    EventKind.WORKLOAD_WINDOW,
                    node=HARNESS_NODE,
                    **point.to_dict(),
                )
    # Quiesce: stop injecting and confirm the epidemics still converge.
    converged = True
    try:
        cluster.run_until(cluster.converged, max_cycles=QUIESCE_CYCLES)
    except RuntimeError:
        converged = False
    if wan_net is not None:
        traffic = traffic_summary(wan_net.link_report(cluster.traffic))
    else:
        traffic = empty_traffic_summary()
    return build_report(
        runtime="sim",
        unit="cycles",
        n=cluster.n,
        duration=float(config.cycles),
        ops={
            "total": driver.operations,
            "writes": driver.writes,
            "reads": driver.reads,
            "deletes": driver.deletes,
            "read_misses": driver.read_misses,
        },
        staleness=driver.staleness.summary(),
        traffic=traffic,
        curves=series.to_dict(),
        converged_after_quiesce=converged,
    )


def summary_lines(report: Dict[str, Any]) -> List[str]:
    """A human rendering of one ``repro-workload/1`` report."""
    throughput = report["throughput"]
    staleness = report["staleness"]
    lines = [
        f"{report['runtime']}: n={report['n']} duration={report['duration']:g} "
        f"{report['unit']}",
        f"  ops: {report['ops']['total']} "
        f"(writes={report['ops']['writes']} reads={report['ops']['reads']} "
        f"deletes={report['ops']['deletes']} misses={report['ops']['read_misses']})",
        f"  throughput: {throughput['mean']:g} {throughput['unit']}",
        f"  staleness: p50={staleness['p50']:g} p99={staleness['p99']:g} "
        f"max={staleness['max']:g} {staleness['unit']} "
        f"({staleness['count']} reads sampled)",
        f"  converged after quiesce: {report['converged_after_quiesce']}",
    ]
    links = report["traffic"]["links"]
    if links:
        lines.append(
            f"  wan share: {report['traffic']['wan_share']:.1%} "
            f"(busiest {report['traffic']['busiest_wan_link']})"
        )
        for row in links:
            lines.append(
                f"    {row['link']:<24} conversations={row['conversations']:g} "
                f"updates={row['updates']:g}"
            )
    return lines
