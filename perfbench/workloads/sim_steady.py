"""sim-steady: a read/write/delete mix on the scalar simulated cluster.

48 sites, full-compare push-pull anti-entropy every cycle, open-loop
Poisson 24 ops/cycle over 1024 Zipf(1.1) keys, 30 % reads, 5 % deletes
— ``run_steady_state``'s construction, driven cycle by cycle from here
so injection (light) and the gossip cycle (heavy) are timed apart.
Every key is written once and converged during set-up, so each timed
cycle scans full 1024-entry stores and the cost per cycle does not
drift with how long the run lasts.  The batched engine is bypassed.
"""

from __future__ import annotations

import time

from perfbench.result import SETUP_REPEATS, Result, rng_for, settle_heap
from perfbench.stats import median, percentile

SITES = 48
KEY_SPACE = 1024
RATE = 24.0
MIN_CYCLES = 100       # also the fixed prefix of the exact counts
QUIESCE_CYCLES = 200


def run(seed: int, seconds: float, tracer, scale: float = 1.0) -> Result:
    from repro.cluster.cluster import Cluster
    from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
    from repro.protocols.base import ExchangeMode
    from repro.protocols.exchange import FullCompare
    from repro.workload import WorkloadConfig, WorkloadDriver

    key_space = max(32, int(KEY_SPACE * scale))
    min_cycles = max(10, int(MIN_CYCLES * scale))
    mix = WorkloadConfig(
        updates_per_cycle=RATE,
        key_space=key_space,
        zipf_s=1.1,
        read_fraction=0.30,
        delete_fraction=0.05,
    )
    result = Result("sim-steady")

    def build():
        rng = rng_for(seed, "sim-steady", "prefill")
        cluster = Cluster(n=SITES, seed=seed)
        protocol = AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, synchronous=False),
            strategy=FullCompare(),
        )
        cluster.add_protocol(protocol)
        for index in range(key_space):
            cluster.inject_update(rng.randrange(SITES), f"key-{index}", f"initial-{index}")
        cluster.run_until(cluster.converged, max_cycles=QUIESCE_CYCLES)
        return cluster, protocol, WorkloadDriver(cluster, mix, seed=seed)

    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cluster, protocol, driver = build()
        result.setup_s.append(time.perf_counter() - start)
    settle_heap()

    deadline = time.perf_counter() + seconds
    cycles = 0
    examined_at_prefix = 0
    while cycles < min_cycles or time.perf_counter() < deadline:
        start = time.perf_counter()
        with tracer.span("steady.inject"):
            driver.inject_one_cycle()
        middle = time.perf_counter()
        with tracer.span("steady.cycle"):
            cluster.run_cycle()
        end = time.perf_counter()
        result.light_ms.append((middle - start) * 1e3)
        result.heavy_ms.append((end - middle) * 1e3)
        cycles += 1
        if cycles == min_cycles:
            result.traffic = protocol.stats.updates_shipped
            result.traffic_items = driver.operations
            examined_at_prefix = protocol.stats.entries_examined
            result.layer["workload.driver.staleness_p99_cycles"] = driver.staleness.percentile(0.99)
            result.info["staleness_reads"] = driver.staleness.count
    result.work_items = driver.operations
    result.work_s = (sum(result.light_ms) + sum(result.heavy_ms)) / 1e3
    result.attempted += driver.operations

    converged = True
    try:
        cluster.run_until(cluster.converged, max_cycles=QUIESCE_CYCLES)
    except RuntimeError:
        converged = False
    result.check(converged, "cluster did not converge after injection stopped")
    result.check(
        all(len(site.store) == key_space for site in cluster.sites.values()),
        "a site lost or gained keys",
    )

    result.counts["examined_per_cycle"] = examined_at_prefix / min_cycles
    result.counts["shipped_per_cycle"] = result.traffic / min_cycles
    result.layer["cluster.cluster.cycle_ms_p50"] = median(result.heavy_ms)
    result.layer["cluster.cluster.cycle_ms_p99"] = percentile(result.heavy_ms, 99.0)
    result.layer["workload.driver.inject_ms_per_cycle"] = median(result.light_ms)
    return result


def explain(result: Result, layer) -> float:
    """cycle = entries examined x session cost + entries shipped x apply cost."""
    return (
        result.counts["examined_per_cycle"] * layer["protocols.exchange.session_us_per_entry"]
        + result.counts["shipped_per_cycle"] * layer["core.store.apply_news_us"]
    ) / 1e3
