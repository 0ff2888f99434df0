"""Workload generation and the steady-state drivers."""

import pytest

from repro.cluster.cluster import Cluster
from repro.experiments.workloads import checksum_tau_experiment
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.workload import WorkloadConfig, WorkloadDriver


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(updates_per_cycle=-1)
        with pytest.raises(ValueError):
            WorkloadConfig(key_space=0)
        with pytest.raises(ValueError):
            WorkloadConfig(delete_fraction=1.0)
        with pytest.raises(ValueError):
            WorkloadConfig(zipf_s=-0.5)


class TestWorkloadDriver:
    def _cluster(self, n=10, seed=0):
        cluster = Cluster(n=n, seed=seed)
        cluster.add_protocol(
            AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL)
            )
        )
        return cluster

    def test_injection_rate_approximates_mean(self):
        cluster = self._cluster()
        driver = WorkloadDriver(cluster, WorkloadConfig(updates_per_cycle=2.5))
        driver.run(cycles=100)
        assert driver.operations == pytest.approx(250, rel=0.15)

    def test_fractional_rate(self):
        cluster = self._cluster()
        driver = WorkloadDriver(cluster, WorkloadConfig(updates_per_cycle=0.5))
        driver.run(cycles=200)
        assert 50 <= driver.operations <= 150

    def test_keys_come_from_key_space(self):
        cluster = self._cluster()
        driver = WorkloadDriver(
            cluster, WorkloadConfig(updates_per_cycle=3.0, key_space=5)
        )
        driver.run(cycles=30)
        keys = set()
        for site in cluster.sites.values():
            keys.update(k for k, __ in site.store.visible_items())
        assert keys <= {f"key-{i}" for i in range(5)}

    def test_zipf_skew_concentrates_popularity(self):
        cluster = self._cluster(seed=3)
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(updates_per_cycle=5.0, key_space=50, zipf_s=1.5),
            seed=3,
        )
        counts = {}
        original = cluster.inject_update

        def counting(site, key, value, track=False):
            counts[key] = counts.get(key, 0) + 1
            return original(site, key, value)

        cluster.inject_update = counting
        driver.run(cycles=60)
        top = max(counts.values())
        assert top > driver.operations * 0.2  # rank-1 dominates

    def test_deletes_injected(self):
        cluster = self._cluster(seed=4)
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(updates_per_cycle=3.0, delete_fraction=0.3),
            seed=4,
        )
        driver.run(cycles=40)
        assert driver.deletes == pytest.approx(driver.operations * 0.3, rel=0.35)

    def test_workload_then_quiesce_converges(self):
        cluster = self._cluster(seed=5)
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(updates_per_cycle=2.0, key_space=20, delete_fraction=0.1),
            seed=5,
        )
        driver.run(cycles=40)
        cluster.run_until(cluster.converged, max_cycles=100)
        assert cluster.converged()

    def test_skips_injection_when_everyone_down(self):
        cluster = self._cluster()
        for site in cluster.sites.values():
            site.up = False
        driver = WorkloadDriver(cluster, WorkloadConfig(updates_per_cycle=5.0))
        assert driver.inject_one_cycle() == 0
        assert driver.operations == 0


class TestChecksumTauExperiment:
    def test_sweep_shape(self):
        results = checksum_tau_experiment(
            n=20, tau_values=(2.0, 10.0), update_rate=2.0, cycles=30
        )
        small, right = results
        assert small.full_compare_rate > right.full_compare_rate
        assert right.checksum_success_rate > 0.8
        assert all(r.converged_after_quiesce for r in results)
