"""The benchmark's vocabulary: workloads, metrics, and what moves what.

``BENCHMARK.json`` is the driver-facing copy of the names, units,
directions and bounds below (``perfbench/tests`` holds the two equal).

The bounds are what this sandbox can honour: the same code and seed
reads 4-12 % apart from one process to the next, so a timing bound
under 25 % would reject the benchmark itself.  A claimed gain is shown
with paired runs (choosing-metrics section 8), not with the bound.

Every run reports every end-to-end metric, so the metrics are roles
that each workload fills with its own operations (:data:`CELLS`): a
headline rate, a *light* operation (the cheap, frequent path), a
*heavy* operation (the expensive path the light one exists to avoid)
and an exact traffic count.  Light and heavy are separate numbers on
every workload so that neither can hide the other.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                    # "lower" | "higher"
    bound: Optional[float]         # regression bound (end-to-end only)
    note: str                      # what it is / what it should move


#: name -> why this workload exists (one line, also in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "sim-tables": (
        "Table-1 rumor and anti-entropy trials, cold seeds then word-cache "
        "replays: sim.batch/sim.rng/sim.arrays do all the work, core and net none"
    ),
    "sim-steady": (
        "read/write/delete mix on the scalar 48-site cluster with full-compare "
        "anti-entropy over prefilled 1024-key stores: cluster, protocols, core.store"
    ),
    "live-rumor": (
        "8 TCP nodes, bursts of 16 small client ops driven to convergence: many "
        "small frames, so round trips, small-frame codec and handlers dominate"
    ),
    "live-repair": (
        "2 TCP nodes holding 20000 keys: 16-key repairs and empty-node catch-up, "
        "few huge frames, so per-entry scan, serialize and decode dominate"
    ),
    "store-scale": (
        "in-process 200000-key stores, no sockets: bulk load, cold fold, then "
        "hierarchical vs full exchange at 0.1% dirty: core.store/checksum/exchange"
    ),
}

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "median of the repeated set-ups before the timed region"),
    Metric("work_per_s", "1/s", "higher", 0.25,
           "the workload's headline items completed per second of timed work"),
    Metric("light_ms_p50", "ms", "lower", 0.25,
           "median latency of the workload's light operation"),
    Metric("heavy_ms_p50", "ms", "lower", 0.25,
           "median latency of the workload's heavy operation"),
    Metric("traffic_per_item", "count", "lower", 0.10,
           "entries or frames moved per item, over a fixed prefix of the work "
           "(exact for a seed)"),
)

#: workload -> metric -> what the role means there.
CELLS: Dict[str, Dict[str, str]] = {
    "sim-tables": {
        "work_per_s": "cold trials per second (fresh master seeds)",
        "light_ms_p50": "one warm seed-set: 5 rumor trials k=1..5 at n=1000 + 1 "
                 "push-pull anti-entropy trial at n=1024, replayed from the word cache",
        "heavy_ms_p50": "the same seed-set on a fresh master seed (cold)",
        "traffic_per_item": "mean update sends per site over the rumor trials "
                            "of the first 40 cold seed-sets (Table 1's m)",
    },
    "sim-steady": {
        "work_per_s": "client operations per second of (inject + gossip cycle)",
        "light_ms_p50": "WorkloadDriver.inject_one_cycle (Poisson 24 ops)",
        "heavy_ms_p50": "Cluster.run_cycle (48 full-compare conversations)",
        "traffic_per_item": "entries shipped per client operation over the "
                            "first 100 cycles",
    },
    "live-rumor": {
        "work_per_s": "client writes converged on all 8 nodes per second",
        "light_ms_p50": "one cluster.inject over TCP",
        "heavy_ms_p50": "one burst: first op sent to all checksums equal",
        "traffic_per_item": "frames sent by all nodes per client write over "
                            "the first 60 bursts",
    },
    "live-repair": {
        "work_per_s": "keys per second pulled into a restarted empty node",
        "light_ms_p50": "one hierarchical repair conversation after 16 keys in 16 "
                 "distinct buckets were rewritten on one side (mean of a pair, "
                 "one initiated by each node)",
        "heavy_ms_p50": "one catch-up conversation pulling all 20000 keys",
        "traffic_per_item": "entries shipped per rewritten key over the "
                            "first 10 repairs",
    },
    "store-scale": {
        "work_per_s": "keys per second of bulk load (200000 updates + cold fold)",
        "light_ms_p50": "HierarchicalChecksum.exchange after 200 keys dirtied",
        "heavy_ms_p50": "FullCompare.exchange after 200 keys dirtied",
        "traffic_per_item": "entries examined per dirtied key by the first "
                            "15 hierarchical exchanges",
    },
}

#: ISSUE 12's workload-specific names -> (workload, metric) that carries them.
ALIASES: Dict[str, Tuple[str, str]] = {
    "sim_cold_trials_per_s": ("sim-tables", "work_per_s"),
    "sim_warm_trials_per_s": ("sim-tables", "light_ms_p50"),
    "steady_ops_per_s": ("sim-steady", "work_per_s"),
    "steady_staleness_p99_cycles": ("sim-steady", "workload.driver.staleness_p99_cycles"),
    "live_updates_per_s": ("live-rumor", "work_per_s"),
    "live_converge_ms_p50": ("live-rumor", "heavy_ms_p50"),
    "live_converge_ms_p90": ("live-rumor", "net.node.converge_ms_p90"),
    "client_write_us_p50": ("live-rumor", "light_ms_p50"),
    "client_write_us_p99": ("live-rumor", "net.peer.client_write_us_p99"),
    "live_frames_per_update": ("live-rumor", "traffic_per_item"),
    "repair_dirty_ms_p50": ("live-repair", "light_ms_p50"),
    "catchup_keys_per_s": ("live-repair", "work_per_s"),
    "bulk_load_keys_per_s": ("store-scale", "work_per_s"),
    "hier_exchange_ms_p50": ("store-scale", "light_ms_p50"),
    "full_exchange_ms_p50": ("store-scale", "heavy_ms_p50"),
}


def _layer(name: str, unit: str, note: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, None, note)


_BULK = "work_per_s, light_ms_p50 on store-scale; nothing on sim-tables"
_STORE = ("work_per_s/heavy_ms_p50 on store-scale, work_per_s on live-repair "
          "and sim-steady; nothing on sim-tables")
_CODEC = ("work_per_s/heavy_ms_p50 and light_ms_p50 on live-repair; small on "
          "live-rumor; nothing on sim-* and store-scale")
_SMALL = "heavy_ms_p50, work_per_s on live-rumor (if this version is negotiated)"
_LARGE = "work_per_s, light_ms_p50 on live-repair (if this version is negotiated)"
_RTT = "light_ms_p50, heavy_ms_p50 on live-rumor; nothing on live-repair"
_NODE = "heavy_ms_p50, work_per_s, traffic_per_item on live-rumor"
_SIM = "sim-tables only: cold and warm"
_STEADY = "work_per_s, heavy_ms_p50 on sim-steady; nothing on sim-tables"


def _codec(module: str, v: str, what: str) -> Tuple[Metric, ...]:
    p = f"{module}.{v}"
    return (
        _layer(f"{p}_encode_us_small", "us", f"{what} encode, 4-update RUMOR -> {_SMALL}"),
        _layer(f"{p}_decode_us_small", "us", f"{what} decode, 4-update RUMOR -> {_SMALL}"),
        _layer(f"{p}_encode_us_large", "us", f"{what} encode, 256-update PUSH -> {_LARGE}"),
        _layer(f"{p}_decode_us_large", "us", f"{what} decode, 256-update PUSH -> {_LARGE}"),
        _layer(f"{p}_bytes_per_update", "bytes", f"{what} bytes per update, 256-update PUSH"),
    )


#: Probes are timed in every traced run on seeded inputs of the shapes
#: the workloads use; the rest are read off the traced workload itself
#: and are 0 on a workload that never enters that layer.
PER_LAYER: Tuple[Metric, ...] = (
    _layer("core.checksum.key_digest_us", "us", f"key_digest of a fresh key -> {_BULK}"),
    _layer("core.checksum.fold_cold_us_per_entry", "us",
           f"first checksum read of a 20000-entry store, per entry -> {_BULK}"),
    _layer("core.checksum.tree_diff_ms", "ms",
           f"ChecksumTree.diff_buckets, 2^14 buckets, 200 dirty -> {_BULK}"),
    _layer("core.store.update_us", "us", f"ReplicaStore.update of a new key -> {_STORE}"),
    _layer("core.store.apply_news_us", "us", f"apply_entry that is news -> {_STORE}"),
    _layer("core.store.apply_stale_us", "us", f"apply_entry that is stale -> {_STORE}"),
    _layer("core.store.scan_us_per_entry", "us",
           f"ExchangeSession.offer per entry scanned -> {_STORE}"),
    _layer("core.serialize.encode_us_per_update", "us", f"encode_updates per update -> {_CODEC}"),
    _layer("core.serialize.decode_us_per_update", "us", f"decode_updates per update -> {_CODEC}"),
    _layer("protocols.exchange.session_us_per_entry", "us",
           "resolve_difference per entry examined, two near-equal 1024-entry stores -> "
           "heavy_ms_p50 on sim-steady and store-scale, light_ms_p50 on store-scale"),
    _layer("protocols.exchange.hier_entries_examined", "count",
           "entries examined per hierarchical exchange on store-scale (exact)"),
    _layer("protocols.exchange.full_entries_examined", "count",
           "entries examined per full exchange on store-scale (exact)"),
    _layer("protocols.exchange.tree_comparisons", "count",
           "tree nodes compared per hierarchical exchange on store-scale (exact)"),
    *_codec("net.wire", "v3", "JSON frame"),
    *_codec("net.binwire", "v4", "binary frame"),
    _layer("net.peer.rtt_us_p50", "us", f"Peer.call of a read MAIL, idle cluster -> {_RTT}"),
    _layer("net.peer.rtt_us_p99", "us", f"tail of the same -> {_RTT}"),
    _layer("net.peer.connect_us", "us", f"first call on a fresh Peer (connect + round trip) -> {_RTT}"),
    _layer("net.peer.client_write_us_p99", "us", "99th percentile client write on live-rumor"),
    _layer("net.node.rumor_round_ms_p50", "ms", f"gather of every node's run_rumor_once -> {_NODE}"),
    _layer("net.node.rumor_round_ms_p99", "ms", f"tail of the same -> {_NODE}"),
    _layer("net.node.ae_round_ms_p50", "ms", f"gather of every node's run_anti_entropy_once -> {_NODE}"),
    _layer("net.node.client_read_us_p50", "us", "cluster.read over TCP on live-rumor"),
    _layer("net.node.converge_ms_p90", "ms", "90th percentile burst convergence on live-rumor"),
    _layer("net.node.rumor_rounds_mean", "count",
           f"rumor rounds per burst, beside log2 n + ln n (exact) -> {_NODE}"),
    _layer("net.node.ae_rounds_mean", "count", f"backup anti-entropy rounds per burst (exact) -> {_NODE}"),
    _layer("net.node.shipped_per_update", "count", f"entries shipped per client write -> {_NODE}"),
    _layer("net.node.useful_ratio", "ratio", "entries absorbed / entries shipped", "higher"),
    _layer("net.node.rejections", "count", "conversations refused (a failure)"),
    _layer("net.node.peer_failures", "count", "conversations dead after retries (a failure)"),
    _layer("net.node.hunts", "count", "extra partner draws after refusals"),
    _layer("net.node.phase_exchange_s", "s", "nodes' own exchange phase timer, read over STATUS"),
    _layer("net.node.phase_merge_s", "s", "nodes' own merge phase timer, read over STATUS"),
    _layer("net.node.phase_select_s", "s", "nodes' own partner-selection timer, read over STATUS"),
    _layer("sim.batch.rumor_trial_ms_cold", "ms", f"one rumor trial, fresh seed -> {_SIM}"),
    _layer("sim.batch.rumor_trial_ms_warm", "ms", f"one rumor trial, replayed seed -> {_SIM}"),
    _layer("sim.batch.ae_trial_ms_cold", "ms", f"one anti-entropy trial, fresh seed -> {_SIM}"),
    _layer("sim.batch.ae_trial_ms_warm", "ms", f"one anti-entropy trial, replayed seed -> {_SIM}"),
    _layer("sim.rng.site_seed_us", "us",
           "SiteSeeder.seed + one Mersenne seeding per site -> cold only on sim-tables "
           "(cold = sites x this + warm)"),
    _layer("cluster.cluster.cycle_ms_p50", "ms", f"Cluster.run_cycle -> {_STEADY}"),
    _layer("cluster.cluster.cycle_ms_p99", "ms", f"tail of the same -> {_STEADY}"),
    _layer("cluster.cluster.reference_trial_ms", "ms",
           "one rumor trial with engine='reference' -> nothing on sim-tables (auto is batched)"),
    _layer("workload.driver.inject_ms_per_cycle", "ms", "inject_one_cycle on sim-steady -> light_ms_p50"),
    _layer("workload.driver.staleness_p99_cycles", "cycles",
           "read staleness p99 over the first 100 cycles of sim-steady (exact for a seed)"),
    _layer("obs.events.span_overhead_ratio", "ratio",
           "reference trial with a counting sink / bus silent -> nothing by default; "
           "guards the has_sinks fast path"),
    _layer("trace_overhead_ratio", "ratio",
           "traced (light p50 + heavy p50) / untraced, same seed, a fresh process each"),
    _layer("explained_share", "ratio",
           "heavy operation rebuilt from layer costs x measured counts / measured heavy_ms_p50",
           "higher"),
)
