"""store-scale: 200000-key stores in one process, no sockets.

Two ``ReplicaStore(bucket_bits=14)``.  Timed separately and in this
order: build (200000 ``update`` calls), the first ``checksum`` read
(the cold fold lazy folding deferred), mirror into the second store
(``apply_entry``) and its fold.  Only then are exchanges timed, so no
exchange sample contains a fold it does not name: light = 200 keys
dirtied then ``HierarchicalChecksum().exchange``, heavy = 200 dirtied
then ``FullCompare().exchange``, each ending in equal checksums and
equal lengths.  ``core.store``, ``core.checksum`` and
``protocols.exchange`` do everything; the network nothing.
"""

from __future__ import annotations

import time

from perfbench.result import SETUP_REPEATS, Result, rng_for, settle_heap
from perfbench.stats import median

KEYS = 200_000
BUCKET_BITS = 14
DIRTY = 200
HIER_PER_FULL = 3
MIN_REPS = 5           # each: HIER_PER_FULL hierarchical exchanges, one full


def run(seed: int, seconds: float, tracer, scale: float = 1.0) -> Result:
    from repro.core.store import ReplicaStore
    from repro.protocols.base import ExchangeMode
    from repro.protocols.exchange import FullCompare, HierarchicalChecksum

    keys = max(2000, int(KEYS * scale))
    dirty = max(20, int(DIRTY * scale))
    bucket_bits = BUCKET_BITS if scale >= 1.0 else 10
    min_reps = max(2, int(MIN_REPS * scale))
    result = Result("store-scale")
    rng = rng_for(seed, "store-scale")

    def build():
        fill = rng_for(seed, "store-scale", "inputs")
        names = [f"key-{index:07d}" for index in range(keys)]
        values = [f"value-{fill.getrandbits(64):016x}" for _ in range(keys)]
        return names, values

    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        names, values = build()
        result.setup_s.append(time.perf_counter() - start)

    began = time.perf_counter()
    a = ReplicaStore(site_id=0, bucket_bits=bucket_bits)
    b = ReplicaStore(site_id=1, bucket_bits=bucket_bits)
    start = time.perf_counter()
    with tracer.span("store.build"):
        updates = [a.update(key, value) for key, value in zip(names, values)]
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    with tracer.span("store.fold"):
        root = a.checksum
    fold_s = time.perf_counter() - start
    start = time.perf_counter()
    with tracer.span("store.mirror"):
        for update in updates:
            b.apply_entry(update.key, update.entry)
    mirror_s = time.perf_counter() - start
    with tracer.span("store.fold"):
        mirrored = b.checksum
    del updates
    result.check(len(a) == keys, "build lost keys")
    result.check(root == mirrored and len(b) == keys, "mirror differs from the built store")
    result.work_items = keys
    result.work_s = build_s + fold_s
    result.info.update(build_s=build_s, fold_s=fold_s, mirror_s=mirror_s)
    settle_heap()

    strategies = {"hier": HierarchicalChecksum(), "full": FullCompare()}
    examined = {"hier": [], "full": []}
    comparisons = []

    def exchange(kind: str, label: str) -> None:
        for index in range(dirty):
            store = a if index % 2 == 0 else b
            store.update(names[rng.randrange(keys)], f"{label}-{index}")
        start = time.perf_counter()
        with tracer.span(f"exchange.{kind}"):
            report = strategies[kind].exchange(a, b, ExchangeMode.PUSH_PULL)
            equal = a.checksum == b.checksum
        elapsed_ms = (time.perf_counter() - start) * 1e3
        (result.light_ms if kind == "hier" else result.heavy_ms).append(elapsed_ms)
        result.check(equal and len(a) == len(b) == keys, f"{label}: stores differ after {kind} exchange")
        examined[kind].append(report.entries_examined)
        if kind == "hier":
            comparisons.append(report.tree_comparisons)

    # The load above is timed work too: the exchanges get what is left
    # of the run's seconds, and at least MIN_REPS repetitions.
    deadline = began + seconds
    reps = 0
    while reps < min_reps or time.perf_counter() < deadline:
        for turn in range(HIER_PER_FULL):
            exchange("hier", f"rep{reps}h{turn}")
        exchange("full", f"rep{reps}f")
        reps += 1

    prefix = min_reps * HIER_PER_FULL
    result.traffic = sum(examined["hier"][:prefix])
    result.traffic_items = prefix * dirty
    result.counts["full_examined"] = median(examined["full"])
    result.layer["protocols.exchange.hier_entries_examined"] = result.traffic / prefix
    result.layer["protocols.exchange.full_entries_examined"] = median(examined["full"])
    result.layer["protocols.exchange.tree_comparisons"] = sum(comparisons[:prefix]) / prefix
    return result


def explain(result: Result, layer) -> float:
    """full exchange = entries examined x the session's cost per entry
    (offer, respond and absorb, as the probe times them on small stores)."""
    return (
        result.counts["full_examined"]
        * layer["protocols.exchange.session_us_per_entry"] / 1e3
    )
