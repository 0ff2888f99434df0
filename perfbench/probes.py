"""Layer probes: each times one layer's public functions and nothing else.

Inputs are generated from the seed in the shapes the workloads use
(``key-0001234`` string keys, 22-character string values; a 4-update
RUMOR frame as live-rumor ships, a 256-update PUSH frame as live-repair
does), so a probe's unit cost can be multiplied by a count measured in
a workload.  Every probe runs under a ``probe.*`` span.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List

from perfbench.live import parked_config
from perfbench.result import rng_for
from perfbench.stats import median, percentile

STORE_ENTRIES = 20_000
TREE_BITS = 14
TREE_DIRTY = 200
SESSION_ENTRIES = 1024
SESSION_DIRTY = 8
SMALL_FRAME = 4
LARGE_FRAME = 256
SIM_SITES = 1000
RTT_CALLS = 1000
CONNECTS = 20

_clock = time.perf_counter


def _median_of(repeats: int, timed: Callable[[], float]) -> float:
    return median([timed() for _ in range(repeats)])


def _loop_us(fn: Callable[[], object], calls: int) -> float:
    """Microseconds per call of ``fn`` over ``calls`` back-to-back calls."""
    start = _clock()
    for _ in range(calls):
        fn()
    return (_clock() - start) / calls * 1e6


def store_probes(seed: int) -> Dict[str, float]:
    from repro.core.checksum import ChecksumTree, key_digest
    from repro.core.store import ReplicaStore
    from repro.protocols.exchange import ExchangeSession

    rng = rng_for(seed, "probe", "store")
    names = [f"key-{index:07d}" for index in range(STORE_ENTRIES)]
    out: Dict[str, float] = {}

    source = ReplicaStore(site_id=0, bucket_bits=TREE_BITS)
    start = _clock()
    older = [source.update(name, f"value-{rng.getrandbits(64):016x}") for name in names]
    out["core.store.update_us"] = (_clock() - start) / STORE_ENTRIES * 1e6
    start = _clock()
    source.checksum
    out["core.checksum.fold_cold_us_per_entry"] = (_clock() - start) / STORE_ENTRIES * 1e6
    newer = [source.update(name, f"value-{rng.getrandbits(64):016x}") for name in names]

    replica = ReplicaStore(site_id=1, bucket_bits=TREE_BITS)
    start = _clock()
    for update in newer:
        replica.apply_entry(update.key, update.entry)
    out["core.store.apply_news_us"] = (_clock() - start) / STORE_ENTRIES * 1e6
    start = _clock()
    for update in older:
        replica.apply_entry(update.key, update.entry)
    out["core.store.apply_stale_us"] = (_clock() - start) / STORE_ENTRIES * 1e6

    session = ExchangeSession(replica)
    out["core.store.scan_us_per_entry"] = _median_of(
        3, lambda: _loop_us(session.offer, 1) / STORE_ENTRIES
    )

    def fresh_digests() -> float:
        # key_digest memoizes on the encoded key; a bulk load only ever
        # sees new keys, so the probe never repeats one.
        prefix = f"digest-{rng.getrandbits(32):08x}"
        fresh = [f"{prefix}-{index:07d}" for index in range(STORE_ENTRIES)]
        start = _clock()
        for name in fresh:
            key_digest(name)
        return (_clock() - start) / STORE_ENTRIES * 1e6

    out["core.checksum.key_digest_us"] = _median_of(3, fresh_digests)

    mine, theirs = ChecksumTree(TREE_BITS), ChecksumTree(TREE_BITS)
    for _ in range(STORE_ENTRIES):
        bucket, delta = rng.randrange(mine.buckets), rng.getrandbits(128)
        mine.apply(bucket, delta)
        theirs.apply(bucket, delta)
    for bucket in rng.sample(range(mine.buckets), TREE_DIRTY):
        theirs.apply(bucket, rng.getrandbits(128) | 1)
    out["core.checksum.tree_diff_ms"] = _median_of(
        5, lambda: _loop_us(lambda: mine.diff_buckets(theirs), 1) / 1e3
    )
    return out


def codec_probes(seed: int) -> Dict[str, float]:
    from repro.core.serialize import decode_updates, encode_updates
    from repro.core.store import ReplicaStore
    from repro.net.wire import HEADER_BYTES, Message, MessageType, decode_body, encode_message
    from repro.obs import SpanContext, trace_id_of

    rng = rng_for(seed, "probe", "codec")
    source = ReplicaStore(site_id=0)
    updates = [
        source.update(f"key-{rng.randrange(10**7):07d}", f"value-{rng.getrandbits(64):016x}")
        for _ in range(LARGE_FRAME)
    ]
    out: Dict[str, float] = {}
    encoded = encode_updates(updates)
    # Nodes that negotiated v2+ ship one trace context beside every update.
    contexts = [
        SpanContext(trace=trace_id_of(update), hop=1, sent_at=1790000000.25).to_wire()
        for update in updates
    ]
    out["core.serialize.encode_us_per_update"] = _median_of(
        5, lambda: _loop_us(lambda: encode_updates(updates), 10) / LARGE_FRAME
    )
    out["core.serialize.decode_us_per_update"] = _median_of(
        5, lambda: _loop_us(lambda: decode_updates(encoded), 10) / LARGE_FRAME
    )
    for prefix, version in (("net.wire.v3", 3), ("net.binwire.v4", 4)):
        frames = {
            "small": (Message(
                type=MessageType.RUMOR, sender=1, version=version,
                payload={"updates": encoded[:SMALL_FRAME], "spans": contexts[:SMALL_FRAME]},
            ), 500),
            "large": (Message(
                type=MessageType.PUSH, sender=1, version=version,
                payload={"mode": "push-pull", "updates": encoded, "spans": contexts},
            ), 10),
        }
        for size, (message, calls) in frames.items():
            frame = encode_message(message)
            body = frame[HEADER_BYTES:]
            if decode_body(body).payload != message.payload:
                raise AssertionError(f"{prefix} {size} frame does not round-trip")
            out[f"{prefix}_encode_us_{size}"] = _median_of(
                5, lambda: _loop_us(lambda: encode_message(message), calls)
            )
            out[f"{prefix}_decode_us_{size}"] = _median_of(
                5, lambda: _loop_us(lambda: decode_body(body), calls)
            )
            if size == "large":
                out[f"{prefix}_bytes_per_update"] = len(frame) / LARGE_FRAME
    return out


def session_probe(seed: int) -> Dict[str, float]:
    from repro.core.store import ReplicaStore
    from repro.protocols.exchange import resolve_difference

    rng = rng_for(seed, "probe", "session")
    a, b = ReplicaStore(site_id=0), ReplicaStore(site_id=1)
    names = [f"key-{index}" for index in range(SESSION_ENTRIES)]
    for name in names:
        update = a.update(name, f"value-{rng.getrandbits(64):016x}")
        b.apply_entry(update.key, update.entry)
    per_entry: List[float] = []
    for turn in range(30):
        for index in range(SESSION_DIRTY):
            (a if index % 2 else b).update(rng.choice(names), f"dirty-{turn}-{index}")
        start = _clock()
        report = resolve_difference(a, b)
        per_entry.append((_clock() - start) / report.entries_examined * 1e6)
    if a.checksum != b.checksum:
        raise AssertionError("resolve_difference left the probe stores unequal")
    return {"protocols.exchange.session_us_per_entry": median(per_entry)}


def sim_probes(seed: int) -> Dict[str, float]:
    from repro.cluster.cluster import Cluster
    from repro.experiments.tables import run_rumor_trial
    from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
    from repro.sim.rng import SiteSeeder

    try:  # the C core type the batched engine seeds, as sim/batch.py picks it
        from _random import Random as CoreRandom
    except ImportError:  # pragma: no cover - non-CPython interpreters
        from random import Random as CoreRandom

    master = rng_for(seed, "probe", "sim").getrandbits(48)
    config = RumorConfig(k=2)
    out: Dict[str, float] = {}

    def seed_sites() -> float:
        # What a cold batched trial pays per participating site: the
        # seed derivation plus one Mersenne seeding.  (site_random seeds
        # twice and is not on the batched engine's path.)
        seeder = SiteSeeder(master)
        start = _clock()
        for site in range(SIM_SITES):
            CoreRandom(seeder.seed(site))
        return (_clock() - start) / SIM_SITES * 1e6

    out["sim.rng.site_seed_us"] = _median_of(3, seed_sites)
    out["cluster.cluster.reference_trial_ms"] = _median_of(
        3,
        lambda: _loop_us(
            lambda: run_rumor_trial(SIM_SITES, config, master, engine="reference"), 1
        ) / 1e3,
    )

    def reference_trial(with_sink: bool) -> float:
        cluster = Cluster(n=SIM_SITES, seed=master)
        seen = [0]
        if with_sink:
            cluster.bus.add_sink(lambda event: seen.__setitem__(0, seen[0] + 1))
        protocol = RumorMongeringProtocol(config)
        cluster.add_protocol(protocol)
        start = _clock()
        cluster.inject_update(0, "the-key", "the-value", track=True)
        cluster.run_until(lambda: not protocol.active, max_cycles=1000)
        elapsed = _clock() - start
        if with_sink and not seen[0]:
            raise AssertionError("the counting sink saw no events")
        return elapsed

    silent, counted = [], []
    for _ in range(3):
        silent.append(reference_trial(False))
        counted.append(reference_trial(True))
    out["obs.events.span_overhead_ratio"] = median(counted) / median(silent)
    return out


def peer_probes(seed: int) -> Dict[str, float]:
    return asyncio.run(_peer_probes(seed))


async def _peer_probes(seed: int) -> Dict[str, float]:
    from repro.net.peer import Peer
    from repro.net.runner import CLIENT_ID, LiveCluster
    from repro.net.wire import Message, MessageType

    cluster = await LiveCluster.launch(2, parked_config())
    try:
        await cluster.inject(0, "key-0", "value-0")
        read = Message(type=MessageType.MAIL, sender=CLIENT_ID, payload={"read": "key-0"})
        info = cluster.membership.get(0)
        connects: List[float] = []
        for _ in range(CONNECTS):
            peer = Peer(info)
            start = _clock()
            await peer.call(read)
            connects.append((_clock() - start) * 1e6)
            await peer.close()
        peer = Peer(info)
        try:
            await peer.call(read)
            round_trips: List[float] = []
            for _ in range(RTT_CALLS):
                start = _clock()
                reply = await peer.call(read)
                round_trips.append((_clock() - start) * 1e6)
            if reply.payload.get("value") != "value-0":
                raise AssertionError("the probe read did not return the written value")
        finally:
            await peer.close()
    finally:
        await cluster.stop()
    return {
        "net.peer.connect_us": median(connects),
        "net.peer.rtt_us_p50": median(round_trips),
        "net.peer.rtt_us_p99": percentile(round_trips, 99.0),
    }


PROBES = {
    "probe.store": store_probes,
    "probe.codec": codec_probes,
    "probe.session": session_probe,
    "probe.sim": sim_probes,
    "probe.peer": peer_probes,
}


def run_probes(seed: int, tracer) -> Dict[str, float]:
    """Every probe once; one span each."""
    out: Dict[str, float] = {}
    for name, probe in PROBES.items():
        with tracer.span(name):
            out.update(probe(seed))
    return out
