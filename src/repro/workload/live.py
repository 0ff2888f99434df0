"""A load generator for the live runtime: real sockets, same curves.

:func:`run_live_workload` is the live half of
``python -m repro workload``: it boots a :class:`~repro.net.runner.
LiveCluster` of :class:`~repro.net.node.GossipNode` processes on
localhost TCP, plays open-loop Poisson client traffic against them over
the wire — writes and deletes as ``MAIL`` injections, reads as the
``{"read": key}`` wire form — and reports the same
``repro-workload/1`` schema the simulator harness
(:mod:`repro.workload.steady`) produces, with seconds where the sim
reports cycles.  That shared schema is the point: a sim curve and a
live curve for the same mix can be laid on one plot.

Live measurement specifics:

* **the oracle** — every write/delete ack carries the timestamp the
  node stamped, so the generator knows the globally latest timestamp
  per key without any backdoor into node state;
* **staleness** — a read at node ``s`` fetches that node's entry
  timestamp over the wire and samples
  ``latest_global_ts(key) − local_ts(key)`` in seconds (a node holding
  no version counts as a ``read_miss``);
* **traffic** — nodes are assigned to named datacenters (contiguous
  blocks over the roster) and a bus sink charges every
  ``exchange-settled`` / ``rumor-sent`` event to the links the
  simulator's WAN model would route it over: each party's ``intra:*``
  link and, between datacenters, the ``wan:*`` link joining them.  One
  roll-up builds both reports' traffic blocks, so their rows and
  ``wan_share`` mean the same.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.traffic import link_rows, traffic_summary
from repro.core.serialize import decode_timestamp
from repro.core.timestamps import Timestamp
from repro.net.node import NodeConfig
from repro.net.runner import LiveCluster
from repro.obs.events import EventBus, EventKind
from repro.sim.rng import derive_seed
from repro.workload.generators import (
    OpenLoopGenerator,
    Operation,
    OpKind,
    WorkloadConfig,
)
from repro.workload.geo import link_name
from repro.workload.stats import ReservoirSample, WindowSeries
from repro.workload.steady import build_report

#: Datacenter labels used when the caller does not supply any; three
#: names so a 3-node smoke run exercises every cross-DC link.
DEFAULT_DATACENTERS: Tuple[str, ...] = ("us-east", "eu-west", "ap-south")

#: Residue probes per window are wire round-trips; cap the key sample.
_RESIDUE_KEY_CAP = 8


@dataclasses.dataclass(frozen=True)
class LiveWorkloadConfig:
    """One live load-generation run."""

    workload: WorkloadConfig = WorkloadConfig(updates_per_cycle=20.0)
    nodes: int = 3
    duration: float = 4.0            # seconds of sustained injection
    tick: float = 0.1                # generator wakeup interval (seconds)
    window: float = 1.0              # curve-point width (seconds)
    seed: int = 0
    datacenters: Tuple[str, ...] = DEFAULT_DATACENTERS
    node_config: NodeConfig = NodeConfig()
    quiesce_timeout: float = 20.0    # post-run convergence wait (seconds)

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("need at least two nodes")
        if self.duration <= 0 or self.tick <= 0 or self.window <= 0:
            raise ValueError("duration, tick and window must be positive")
        if self.tick > self.duration:
            raise ValueError("tick must not exceed duration")
        if not self.datacenters:
            raise ValueError("need at least one datacenter name")

    @property
    def rate_per_second(self) -> float:
        """Target operation rate; ``workload.rate`` is ops per second
        here (per cycle in the simulator — the tick loop rescales)."""
        return self.workload.rate


def assign_datacenters(
    node_ids: Sequence[int], names: Sequence[str]
) -> Dict[int, str]:
    """Contiguous-block node→datacenter assignment, like the sim's
    :class:`~repro.workload.geo.WanNetwork` numbers its sites."""
    ordered = sorted(node_ids)
    count = len(ordered)
    used = min(len(names), count)
    return {
        node_id: names[index * used // count]
        for index, node_id in enumerate(ordered)
    }


class LiveTrafficTap:
    """EventBus sink attributing gossip events to datacenter links.

    A conversation crosses what the simulator's WAN model routes it
    over: each endpoint's ``intra:<dc>`` link (site to gateway) and,
    between datacenters, the ``wan:*`` link joining them; every crossing
    is charged.  ``exchange-settled`` events (anti-entropy
    conversations) carry ``shipped``/``received`` — both directions
    needed by the receiver, so they count as useful updates too.
    ``rumor-sent`` pushes carry ``shipped`` but may be redundant at the
    receiver, so they count toward ``updates`` only.
    """

    def __init__(self, dc_of: Dict[int, str]):
        self.dc_of = dc_of
        self.conversations: Dict[str, float] = {}
        self.updates: Dict[str, float] = {}
        self.useful: Dict[str, float] = {}

    def _route(self, a: int, b: int) -> List[str]:
        dc_a = self.dc_of.get(a)
        dc_b = self.dc_of.get(b)
        if dc_a is None or dc_b is None:
            return []  # a client or an unknown node: not link traffic
        if dc_a == dc_b:
            return [f"intra:{dc_a}"] * 2
        return [f"intra:{dc_a}", link_name(dc_a, dc_b), f"intra:{dc_b}"]

    def __call__(self, event) -> None:
        kind, payload = event.kind, event.payload
        if kind is EventKind.EXCHANGE_SETTLED:
            moved = useful = float(payload.get("shipped", 0) + payload.get("received", 0))
        elif kind is EventKind.RUMOR_SENT:
            moved, useful = float(payload.get("shipped", 0)), 0.0
        else:
            return
        for link in self._route(event.node, payload.get("partner", -1)):
            self.conversations[link] = self.conversations.get(link, 0.0) + 1.0
            self.updates[link] = self.updates.get(link, 0.0) + moved
            self.useful[link] = self.useful.get(link, 0.0) + useful

    def summary(self, datacenters: Sequence[str]) -> Dict[str, Any]:
        """The traffic block :func:`repro.analysis.traffic.traffic_summary`
        builds for the simulator, over a full WAN mesh of
        ``datacenters``."""
        names = [name for name in datacenters if name]
        counts = {
            link: (count, self.updates[link], self.useful[link])
            for link, count in self.conversations.items()
        }
        wan_links = {link_name(a, b) for i, a in enumerate(names) for b in names[i + 1:]}
        return traffic_summary(link_rows(counts, wan_links, names))


class _LiveOracle:
    """Latest-known global timestamp per key, from injection acks."""

    def __init__(self) -> None:
        self.latest: Dict[str, Timestamp] = {}

    def note(self, key: str, payload: Dict[str, Any]) -> None:
        encoded = payload.get("timestamp")
        if encoded is None:
            return
        stamp = decode_timestamp(encoded)
        current = self.latest.get(key)
        if current is None or stamp > current:
            self.latest[key] = stamp


async def run_live_workload(
    config: LiveWorkloadConfig,
    bus: Optional[EventBus] = None,
) -> Dict[str, Any]:
    """Drive generated traffic at a live cluster; returns the report."""
    bus = bus if bus is not None else EventBus()
    cluster = await LiveCluster.launch(
        config.nodes, config.node_config, bus=bus
    )
    dc_of = assign_datacenters(list(cluster.nodes), config.datacenters)
    tap = LiveTrafficTap(dc_of)
    bus.add_sink(tap)
    # One generator "cycle" is one tick; rescale the per-second rate.
    tick_config = dataclasses.replace(
        config.workload,
        updates_per_cycle=max(
            config.rate_per_second * config.tick, 1e-9
        ),
    )
    rng = random.Random(derive_seed(config.seed, "live-workload"))
    generator = OpenLoopGenerator(tick_config, rng)
    oracle = _LiveOracle()
    staleness = ReservoirSample(
        rng=random.Random(derive_seed(config.seed, "live-workload", "staleness"))
    )
    series = WindowSeries(config.window)
    counts = {"writes": 0, "reads": 0, "deletes": 0, "read_misses": 0}
    sequence = 0

    async def residue() -> float:
        keys = sorted(oracle.latest)
        if not keys:
            return 0.0
        stride = max(1, len(keys) // _RESIDUE_KEY_CAP)
        sampled = keys[::stride][:_RESIDUE_KEY_CAP]
        node_ids = sorted(cluster.nodes)
        stale = 0
        for key in sampled:
            latest = oracle.latest[key]
            for node_id in node_ids:
                view = await cluster.read(node_id, key)
                encoded = view.get("timestamp")
                if not view.get("found") or encoded is None:
                    stale += 1
                elif decode_timestamp(encoded) < latest:
                    stale += 1
        return stale / (len(sampled) * len(node_ids))

    async def apply(op: Operation) -> None:
        nonlocal sequence
        if op.kind is OpKind.DELETE:
            reply = await cluster.delete_key(op.site, op.key)
            oracle.note(op.key, reply.payload)
            counts["deletes"] += 1
        elif op.kind is OpKind.READ:
            counts["reads"] += 1
            latest = oracle.latest.get(op.key)
            if latest is None:
                return  # never written: staleness undefined
            view = await cluster.read(op.site, op.key)
            encoded = view.get("timestamp")
            if not view.get("found") or encoded is None:
                counts["read_misses"] += 1
                return
            lag = max(0.0, latest.time - decode_timestamp(encoded).time)
            staleness.add(lag)
            series.note_staleness(lag)
        else:
            sequence += 1
            reply = await cluster.inject(op.site, op.key, f"value-{sequence}")
            oracle.note(op.key, reply.payload)
            counts["writes"] += 1

    operations = 0
    started = time.monotonic()
    windows_closed = 0
    tick_index = 0
    try:
        while True:
            elapsed = time.monotonic() - started
            if elapsed >= config.duration:
                break
            node_ids = sorted(cluster.nodes)
            ops = generator.ops_for_cycle(tick_index, node_ids)
            tick_index += 1
            for op in ops:
                await apply(op)
            operations += len(ops)
            series.note_ops(len(ops))
            elapsed = time.monotonic() - started
            while elapsed >= (windows_closed + 1) * config.window:
                windows_closed += 1
                series.close_window(
                    t=round(windows_closed * config.window, 6),
                    residue=await residue(),
                )
            sleep_for = (tick_index * config.tick) - (
                time.monotonic() - started
            )
            if sleep_for > 0:
                await asyncio.sleep(sleep_for)
        injection_wall = time.monotonic() - started
        # Quiesce: stop injecting; gossip must still converge the stores.
        converged = await cluster.wait_converged(
            timeout=config.quiesce_timeout
        )
        if series.open_samples:
            series.close_window(
                t=round(injection_wall, 6), residue=await residue()
            )
    finally:
        bus.remove_sink(tap)
        await cluster.stop()
    return build_report(
        runtime="live",
        unit="seconds",
        n=config.nodes,
        duration=injection_wall,
        ops={
            "total": operations,
            "writes": counts["writes"],
            "reads": counts["reads"],
            "deletes": counts["deletes"],
            "read_misses": counts["read_misses"],
        },
        staleness=staleness.summary(),
        traffic=tap.summary(config.datacenters),
        curves=series.to_dict(),
        converged_after_quiesce=converged,
    )


def run_live_workload_sync(
    config: LiveWorkloadConfig, bus: Optional[EventBus] = None
) -> Dict[str, Any]:
    """Synchronous wrapper for the CLI."""
    return asyncio.run(run_live_workload(config, bus=bus))
