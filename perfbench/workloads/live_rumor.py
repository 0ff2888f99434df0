"""live-rumor: bursts of small client operations on an 8-node TCP cluster.

Default ``NodeConfig`` with both gossip timers parked at an hour, so no
timer ever fires: the benchmark itself drives synchronous rounds — every
node's ``run_rumor_once`` gathered until no rumor is hot, then
``run_anti_entropy_once`` rounds until every store checksum agrees.
A burst is 16 client operations over TCP (75 % writes, 25 % reads of
converged keys, 256 keys, all written and converged during set-up).
Many small frames on a small store: socket round trips, the small-frame
codec and handler overhead dominate; per-entry costs do not.
"""

from __future__ import annotations

import asyncio
import math
import time

from perfbench.live import count_node_failures, negotiate, parked_config
from perfbench.result import SETUP_REPEATS, Result, rng_for, settle_heap
from perfbench.stats import median, percentile

NODES = 8
BURST_OPS = 16
KEY_SPACE = 256
WRITE_SHARE = 0.75
MIN_BURSTS = 60        # also the fixed prefix of the exact counts
MAX_ROUNDS = 64


def phase_seconds(statuses, phase: str) -> float:
    """Sum one profiler phase over the nodes' STATUS snapshots."""
    total = 0.0
    for status in statuses.values():
        family = status["metrics"].get("repro_phase_seconds_total", {})
        for series in family.get("series", ()):
            if series["labels"].get("phase") == phase:
                total += series["value"]
    return total


def run(seed: int, seconds: float, tracer, scale: float = 1.0) -> Result:
    result = Result("live-rumor")
    asyncio.run(_drive(result, seed, seconds, tracer, scale))
    return result


async def _drive(result: Result, seed: int, seconds: float, tracer, scale: float) -> None:
    from repro.core.items import VersionedValue
    from repro.core.serialize import decode_timestamp
    from repro.core.store import ReplicaStore
    from repro.net.peer import PeerError
    from repro.net.runner import LiveCluster

    key_space = max(16, int(KEY_SPACE * scale))
    min_bursts = max(4, int(MIN_BURSTS * scale))
    config = parked_config()
    rng = rng_for(seed, "live-rumor")
    oracle = ReplicaStore()    # fed every acknowledged write, with its ack timestamp

    def acknowledge(key: str, value: str, reply) -> None:
        stamp = decode_timestamp(reply.payload["timestamp"])
        oracle.apply_entry(key, VersionedValue(value=value, timestamp=stamp))

    async def node_step(node, step: str, parent):
        with tracer.span(f"node.{step}", parent=parent):
            return await getattr(node, f"run_{step}_once")()

    async def one_round(nodes, step: str, times) -> None:
        start = time.perf_counter()
        with tracer.span(f"round.{step}") as parent:
            await asyncio.gather(*(node_step(node, step, parent) for node in nodes))
        if times is not None:
            times[step].append((time.perf_counter() - start) * 1e3)

    async def rounds(cluster, times=None):
        """Drive gossip to convergence; returns (rumor, anti-entropy) rounds."""
        nodes = list(cluster.nodes.values())
        rumor = anti_entropy = 0
        while rumor < MAX_ROUNDS and any(node.hot_rumor_count for node in nodes):
            await one_round(nodes, "rumor", times)
            rumor += 1
        while anti_entropy < MAX_ROUNDS:
            with tracer.span("converged.check"):
                agreed = len({node.store.checksum for node in nodes}) == 1
            if agreed:
                break
            await one_round(nodes, "anti_entropy", times)
            anti_entropy += 1
        return rumor, anti_entropy

    async def build():
        nonlocal oracle
        oracle = ReplicaStore()
        cluster = await LiveCluster.launch(NODES, config)
        try:
            version = await negotiate(list(cluster.nodes.values()))
            fill = rng_for(seed, "live-rumor", "prefill")
            for index in range(key_space):
                key, value = f"key-{index}", f"initial-{index}"
                acknowledge(key, value, await cluster.inject(fill.randrange(NODES), key, value))
            await rounds(cluster)
        except BaseException:
            await cluster.stop()
            raise
        return cluster, version

    cluster = None
    for _ in range(SETUP_REPEATS):
        if cluster is not None:
            await cluster.stop()
        start = time.perf_counter()
        cluster, version = await build()
        result.setup_s.append(time.perf_counter() - start)
    try:
        nodes = list(cluster.nodes.values())
        result.info["wire_version"] = version
        settle_heap()

        def totals():
            return {
                "frames": sum(node.stats.frames_sent_total for node in nodes),
                "shipped": sum(node.stats.updates_shipped for node in nodes),
                "absorbed": sum(node.stats.updates_absorbed for node in nodes),
            }

        base = totals()
        prefix = None
        round_ms = {"rumor": [], "anti_entropy": []}
        write_us, read_us = [], []
        rumor_rounds, ae_rounds = [], []
        writes = 0
        deadline = time.perf_counter() + seconds
        while len(result.heavy_ms) < min_bursts or time.perf_counter() < deadline:
            written = set()
            burst_start = time.perf_counter()
            with tracer.span("burst"):
                for op in range(BURST_OPS):
                    node_id = rng.randrange(NODES)
                    key = f"key-{rng.randrange(key_space)}"
                    try:
                        if rng.random() < WRITE_SHARE:
                            value = f"v-{writes}"
                            start = time.perf_counter()
                            with tracer.span("client.write"):
                                reply = await cluster.inject(node_id, key, value)
                            write_us.append((time.perf_counter() - start) * 1e6)
                            acknowledge(key, value, reply)
                            written.add(key)
                            writes += 1
                            result.attempted += 1
                        else:
                            while key in written:  # reads see converged keys only
                                key = f"key-{rng.randrange(key_space)}"
                            start = time.perf_counter()
                            with tracer.span("client.read"):
                                seen = await cluster.read(node_id, key)
                            read_us.append((time.perf_counter() - start) * 1e6)
                            result.check(
                                seen.get("value") == oracle.get(key),
                                f"read of {key} at node {node_id} is not the latest value",
                            )
                    except PeerError as error:
                        result.check(False, f"client op failed: {error}")
                rumor, anti_entropy = await rounds(cluster, round_ms)
            result.heavy_ms.append((time.perf_counter() - burst_start) * 1e3)
            rumor_rounds.append(rumor)
            ae_rounds.append(anti_entropy)
            result.check(
                len({node.store.checksum for node in nodes}) == 1,
                f"burst not converged within {MAX_ROUNDS} rounds",
            )
            if len(result.heavy_ms) == min_bursts:
                prefix = {name: value - base[name] for name, value in totals().items()}
                prefix["writes"] = writes
                prefix["rumor_rounds"] = sum(rumor_rounds) / min_bursts
                prefix["ae_rounds"] = sum(ae_rounds) / min_bursts

        result.light_ms = [value / 1e3 for value in write_us]
        result.work_items = writes
        result.work_s = sum(result.heavy_ms) / 1e3
        result.traffic = prefix["frames"]
        result.traffic_items = prefix["writes"]

        count_node_failures(result, nodes)
        for node in nodes:
            result.check(
                node.store.checksum == oracle.checksum and len(node.store) == len(oracle),
                f"node {node.node_id} differs from the acknowledged-write oracle",
            )

        result.counts.update(
            writes_per_burst=writes / len(result.heavy_ms),
            reads_per_burst=len(read_us) / len(result.heavy_ms),
            rumor_rounds=prefix["rumor_rounds"],
            ae_rounds=prefix["ae_rounds"],
        )
        result.info["log2n_plus_ln_n"] = math.log2(NODES) + math.log(NODES)
        layer = result.layer
        layer["net.peer.client_write_us_p99"] = percentile(write_us, 99.0)
        layer["net.node.client_read_us_p50"] = median(read_us)
        layer["net.node.rumor_round_ms_p50"] = median(round_ms["rumor"])
        layer["net.node.rumor_round_ms_p99"] = percentile(round_ms["rumor"], 99.0)
        layer["net.node.ae_round_ms_p50"] = (
            median(round_ms["anti_entropy"]) if round_ms["anti_entropy"] else 0.0
        )
        layer["net.node.converge_ms_p90"] = percentile(result.heavy_ms, 90.0)
        layer["net.node.rumor_rounds_mean"] = prefix["rumor_rounds"]
        layer["net.node.ae_rounds_mean"] = prefix["ae_rounds"]
        layer["net.node.shipped_per_update"] = prefix["shipped"] / prefix["writes"]
        layer["net.node.useful_ratio"] = prefix["absorbed"] / prefix["shipped"]
        for metric, stat in (
            ("rejections", "rejections_out"), ("peer_failures", "peer_failures"), ("hunts", "hunts")
        ):
            layer[f"net.node.{metric}"] = sum(getattr(node.stats, stat) for node in nodes)
        if tracer.enabled:
            statuses = await cluster.status_all()
            layer["net.node.phase_exchange_s"] = phase_seconds(statuses, "exchange")
            layer["net.node.phase_merge_s"] = phase_seconds(statuses, "merge")
            layer["net.node.phase_select_s"] = phase_seconds(statuses, "partner-selection")
    finally:
        await cluster.stop()


def explain(result: Result, layer) -> float:
    """burst = client ops + rumor rounds + backup anti-entropy rounds."""
    counts = result.counts
    return (
        counts["writes_per_burst"] * median(result.light_ms)
        + counts["reads_per_burst"] * layer["net.node.client_read_us_p50"] / 1e3
        + counts["rumor_rounds"] * layer["net.node.rumor_round_ms_p50"]
        + counts["ae_rounds"] * layer["net.node.ae_round_ms_p50"]
    )
