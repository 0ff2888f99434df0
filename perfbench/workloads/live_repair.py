"""live-repair: the live-rumor code paths used the opposite way.

Two TCP nodes, ``strategy="hierarchical"``, 20000 identical keys loaded
straight into both stores with the checksum fold paid and one warm-up
conversation each way so the wire version is negotiated.  Light = 16
keys (in 16 of the store's 64 buckets) rewritten on one side and
repaired by one anti-entropy conversation; heavy = node 1 killed,
restarted empty, and one conversation pulling all 20000 keys back.
Few huge frames: per-entry scan, serialize, decode and apply dominate
and the round trip is noise.  With two nodes the partner is forced, so
every repetition does the same work.
"""

from __future__ import annotations

import asyncio
import gc
import time

from perfbench.live import count_node_failures, parked_config
from perfbench.result import SETUP_REPEATS, Result, rng_for, settle_heap

KEYS = 20_000
DIRTY = 16
MIN_REPS = 5           # each: one catch-up, then one repair per side


def run(seed: int, seconds: float, tracer, scale: float = 1.0) -> Result:
    result = Result("live-repair")
    asyncio.run(_drive(result, seed, seconds, tracer, scale))
    return result


async def _drive(result: Result, seed: int, seconds: float, tracer, scale: float) -> None:
    from repro.core.store import ReplicaStore
    from repro.net.runner import LiveCluster

    keys = max(200, int(KEYS * scale))
    min_reps = max(2, int(MIN_REPS * scale))
    config = parked_config(strategy="hierarchical")
    rng = rng_for(seed, "live-repair")

    def agreed(cluster) -> bool:
        a, b = cluster.nodes[0].store, cluster.nodes[1].store
        return a.checksum == b.checksum and len(a) == len(b) == keys

    async def build():
        fill = rng_for(seed, "live-repair", "preload")
        source = ReplicaStore(site_id=2)
        updates = [
            source.update(f"key-{index:06d}", f"value-{fill.getrandbits(64):016x}")
            for index in range(keys)
        ]
        cluster = await LiveCluster.launch(2, config)
        try:
            for node in cluster.nodes.values():
                for update in updates:
                    node.store.apply_entry(update.key, update.entry)
                node.store.checksum  # the cold fold is set-up here, not timed work
            for node in cluster.nodes.values():
                await node.run_anti_entropy_once()
        except BaseException:
            await cluster.stop()
            raise
        return cluster

    cluster = None
    for _ in range(SETUP_REPEATS):
        if cluster is not None:
            await cluster.stop()
        start = time.perf_counter()
        cluster = await build()
        result.setup_s.append(time.perf_counter() - start)
    try:
        result.info["wire_version"] = min(
            cluster.nodes[0].wire_version(1), cluster.nodes[1].wire_version(0)
        )
        settle_heap()

        def shipped() -> int:
            return sum(node.stats.updates_shipped for node in cluster.nodes.values())

        async def repair(side: int, label: str) -> float:
            node = cluster.nodes[side]
            # 16 keys in 16 distinct hash buckets, so every repair walks
            # and ships the same number of buckets whatever the seed.
            buckets = set()
            while len(buckets) < DIRTY:
                key = f"key-{rng.randrange(keys):06d}"
                if node.store.bucket_of(key) not in buckets:
                    buckets.add(node.store.bucket_of(key))
                    node.store.update(key, f"{label}-{rng.getrandbits(32):08x}")
            before = shipped()
            start = time.perf_counter()
            with tracer.span("repair.dirty"):
                ran = await node.run_anti_entropy_once()
            elapsed_ms = (time.perf_counter() - start) * 1e3
            result.check(ran and agreed(cluster), f"{label}: stores differ after a 16-key repair")
            if result.traffic_items < 2 * min_reps * DIRTY:
                result.traffic += shipped() - before
                result.traffic_items += DIRTY
            return elapsed_ms

        async def catch_up(label: str) -> None:
            await cluster.kill(1)
            # LiveCluster.kill leaves the dead node's accepted connections
            # being served by its old handler; a crashed process would
            # have reset them.  Drop the survivor's cached connection so
            # its next call reaches the restarted node.
            await cluster.nodes[0].peers[1].close()
            # The dead node's store is cyclic garbage; collect it now so
            # every repetition starts from the same heap, not whenever
            # the collector gets to it inside a timed conversation.
            gc.collect()
            node = await cluster.restart(1)
            start = time.perf_counter()
            with tracer.span("catchup"):
                ran = await node.run_anti_entropy_once()
            result.heavy_ms.append((time.perf_counter() - start) * 1e3)
            result.check(ran and agreed(cluster), f"{label}: restarted node did not catch up in one conversation")

        deadline = time.perf_counter() + seconds
        reps = 0
        while reps < min_reps or time.perf_counter() < deadline:
            # Catch-up first, so every repair runs against a store that
            # was rebuilt over the wire, as all but the first would anyway.
            await catch_up(f"rep{reps}")
            # One sample per pair: the survivor-initiated repair is
            # steadily slower than the restarted node's, and the median
            # of two interleaved populations would sit in the gap
            # between them and jump with their head count.
            pair = await repair(0, f"rep{reps}a") + await repair(1, f"rep{reps}b")
            result.light_ms.append(pair / 2)
            reps += 1
        result.work_items = keys * len(result.heavy_ms)
        result.work_s = sum(result.heavy_ms) / 1e3

        count_node_failures(result, cluster.nodes.values())
        result.counts["keys"] = keys
    finally:
        await cluster.stop()


def explain(result: Result, layer) -> float:
    """catch-up = keys x (scan + encode + frame encode + frame decode +
    decode + apply), with the frame codec the two nodes negotiated."""
    codec = "net.binwire.v4" if result.info["wire_version"] >= 4 else "net.wire.v3"
    per_key_us = (
        layer["core.store.scan_us_per_entry"]
        + layer["core.serialize.encode_us_per_update"]
        + layer[f"{codec}_encode_us_large"] / 256
        + layer[f"{codec}_decode_us_large"] / 256
        + layer["core.serialize.decode_us_per_update"]
        + layer["core.store.apply_news_us"]
    )
    return result.counts["keys"] * per_key_us / 1e3
