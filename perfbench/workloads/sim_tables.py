"""sim-tables: Table-1 rumor trials and anti-entropy trials, cold then warm.

A *seed-set* is what one row-sweep of the paper's tables costs for one
master seed: rumor trials k=1..5 at n=1000 (push, feedback, counter)
plus one push-pull anti-entropy trial at n=1024.  Heavy = a seed-set on
a fresh master seed (the per-site Mersenne seeding a one-pass
experiment pays); light = the same seed-set replayed from the word
cache.  The batched engine does all the work; the scalar cluster, the
store and the network none.
"""

from __future__ import annotations

import time

from perfbench.result import SETUP_REPEATS, Result, rng_for, settle_heap
from perfbench.stats import median

N_RUMOR = 1000
N_AE = 1024
KS = (1, 2, 3, 4, 5)
MIN_COLD = 40          # seed-sets; also the fixed prefix of the exact counts
MIN_WARM = 200
REPLAY_SEEDS = 24      # fewer than the word cache holds (32); see run()
COLD_SHARE = 0.6       # of the run's seconds


def run(seed: int, seconds: float, tracer, scale: float = 1.0) -> Result:
    from repro.experiments.tables import run_anti_entropy_trial, run_rumor_trial
    from repro.protocols.base import ExchangeMode
    from repro.protocols.rumor import RumorConfig
    from repro.sim.batch import clear_word_cache

    n_rumor = max(20, int(N_RUMOR * scale))
    n_ae = max(16, int(N_AE * scale))
    min_cold = max(6, int(MIN_COLD * scale))
    min_warm = max(10, int(MIN_WARM * scale))
    configs = [RumorConfig(k=k) for k in KS]
    result = Result("sim-tables")
    rng = rng_for(seed, "sim-tables")

    def seed_set(master: int, temperature: str):
        """Six trials on one master seed; returns their reports."""
        reports = []
        with tracer.span(f"seedset.{temperature}"):
            for config in configs:
                with tracer.span(f"trial.rumor.{temperature}"):
                    metrics = run_rumor_trial(n_rumor, config, master)
                reports.append(metrics.report())
            with tracer.span(f"trial.ae.{temperature}"):
                metrics = run_anti_entropy_trial(n_ae, ExchangeMode.PUSH_PULL, master)
            reports.append(metrics.report())
        return reports

    # Set-up: an empty word cache and every lazy import and backend
    # choice paid, by one throwaway seed-set.
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        clear_word_cache()
        seed_set(rng.getrandbits(48), "setup")
        clear_word_cache()
        result.setup_s.append(time.perf_counter() - start)
    settle_heap()

    began = time.perf_counter()
    cold_deadline = began + seconds * COLD_SHARE
    cold = []            # (master, reports)
    while len(cold) < min_cold or time.perf_counter() < cold_deadline:
        master = rng.getrandbits(48)
        start = time.perf_counter()
        try:
            reports = seed_set(master, "cold")
        except Exception as error:  # a trial that raises is a failed operation
            result.check(False, f"cold seed {master}: {error!r}")
            continue
        result.heavy_ms.append((time.perf_counter() - start) * 1e3)
        result.attempted += len(reports)
        cold.append((master, reports))
        if len(cold) <= min_cold:
            for report in reports[:-1]:
                result.traffic += report.traffic_per_site
                result.traffic_items += 1
    result.work_items = len(result.heavy_ms) * (len(KS) + 1)
    result.work_s = sum(result.heavy_ms) / 1e3

    # Each replayed seed costs what its own epidemics take, so the warm
    # samples fall on as many levels as there are seeds; with a handful
    # the median is one seed's level and jumps from run to run.
    replay = cold[-REPLAY_SEEDS:]
    warm_deadline = time.perf_counter() + seconds * (1.0 - COLD_SHARE)
    replays = 0
    while replays < min_warm or time.perf_counter() < warm_deadline:
        master, expected = replay[replays % len(replay)]
        start = time.perf_counter()
        try:
            reports = seed_set(master, "warm")
        except Exception as error:
            result.check(False, f"warm seed {master}: {error!r}")
            replays += 1
            continue
        result.light_ms.append((time.perf_counter() - start) * 1e3)
        if replays < len(replay):
            result.check(reports == expected, f"replay of seed {master} differs from its cold run")
        else:
            result.attempted += len(reports)
        replays += 1

    # Spot check: the batched core against the scalar reference engine.
    master, reports = cold[0]
    reference = [
        run_rumor_trial(n_rumor, configs[1], master, engine="reference").report(),
        run_anti_entropy_trial(
            n_ae, ExchangeMode.PUSH_PULL, master, engine="reference"
        ).report(),
    ]
    result.check(reference[0] == reports[1], f"rumor k=2 seed {master}: batched != reference")
    result.check(reference[1] == reports[-1], f"anti-entropy seed {master}: batched != reference")

    # The word cache is per master seed and shared by the set's six
    # trials, so a site is seeded once per set; push-pull anti-entropy
    # makes every one of its sites draw.
    result.counts["sites_seeded_per_set"] = max(n_ae, n_rumor)
    result.info["n_rumor"] = n_rumor
    if tracer.enabled:
        for kind in ("rumor", "ae"):
            for temperature in ("cold", "warm"):
                result.layer[f"sim.batch.{kind}_trial_ms_{temperature}"] = (
                    median(tracer.durations(f"trial.{kind}.{temperature}")) * 1e3
                )
    return result


def explain(result: Result, layer) -> float:
    """cold seed-set = warm seed-set + sites seeded x site_seed_us."""
    seeding_ms = result.counts["sites_seeded_per_set"] * layer["sim.rng.site_seed_us"] / 1e3
    return median(result.light_ms) + seeding_ms
