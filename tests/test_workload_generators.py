"""Generators: Poisson arrivals, Zipf popularity, open/closed loops."""

import random
import statistics

import pytest

from repro.workload.generators import (
    ClientPool,
    ClosedLoopGenerator,
    OpenLoopGenerator,
    OpKind,
    WorkloadConfig,
    ZipfKeys,
    poisson,
)


class TestPoisson:
    def test_mean_matches(self):
        rng = random.Random(11)
        draws = [poisson(rng, 3.0) for __ in range(4000)]
        assert statistics.mean(draws) == pytest.approx(3.0, rel=0.05)

    def test_variance_matches_mean(self):
        """The regression the old binomial injector would fail: a true
        Poisson has variance == mean, while floor(rate) + Bernoulli has
        variance frac*(1-frac) <= 0.25 whatever the rate."""
        rng = random.Random(12)
        mean = 4.0
        draws = [poisson(rng, mean) for __ in range(6000)]
        assert statistics.variance(draws) == pytest.approx(mean, rel=0.15)

    def test_zero_rate_draws_nothing(self):
        rng = random.Random(1)
        assert all(poisson(rng, 0.0) == 0 for __ in range(10))

    def test_large_mean_uses_normal_approximation(self):
        # Rates modeling millions of users must stay O(1) per draw and
        # keep the right first two moments.
        rng = random.Random(13)
        mean = 2_000_000 * 0.001  # 2000 ops/cycle from 2M users
        draws = [poisson(rng, mean) for __ in range(800)]
        assert statistics.mean(draws) == pytest.approx(mean, rel=0.01)
        assert statistics.variance(draws) == pytest.approx(mean, rel=0.2)
        assert min(draws) >= 0

    def test_deterministic_under_seed(self):
        a = [poisson(random.Random(7), 5.0) for __ in range(5)]
        b = [poisson(random.Random(7), 5.0) for __ in range(5)]
        assert a == b

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson(random.Random(0), -1.0)


class TestZipfKeys:
    def test_zipf_zero_is_uniform(self):
        keys = ZipfKeys(key_space=4, zipf_s=0.0)
        # Uniform CDF: equal steps of 1/4.
        assert keys.cdf == pytest.approx([0.25, 0.5, 0.75, 1.0])
        rng = random.Random(5)
        counts = {}
        for __ in range(4000):
            key = keys.pick(rng)
            counts[key] = counts.get(key, 0) + 1
        for key in ("key-0", "key-1", "key-2", "key-3"):
            assert counts[key] == pytest.approx(1000, rel=0.15)

    def test_single_key_space(self):
        keys = ZipfKeys(key_space=1, zipf_s=1.5)
        assert keys.cdf == pytest.approx([1.0])
        rng = random.Random(6)
        assert all(keys.pick(rng) == "key-0" for __ in range(20))

    def test_skew_concentrates_on_low_ranks(self):
        keys = ZipfKeys(key_space=100, zipf_s=1.2)
        rng = random.Random(7)
        hot = sum(1 for __ in range(2000) if keys.pick(rng) == "key-0")
        assert hot / 2000 > 0.15  # rank 1 dominates under s=1.2

    def test_cdf_ends_at_one(self):
        for s in (0.0, 0.5, 1.0, 2.0):
            assert ZipfKeys(17, s).cdf[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeys(0)
        with pytest.raises(ValueError):
            ZipfKeys(5, -0.1)


class TestWorkloadConfig:
    def test_rate_defaults_to_updates_per_cycle(self):
        assert WorkloadConfig(updates_per_cycle=3.5).rate == 3.5

    def test_mix_must_leave_writes(self):
        with pytest.raises(ValueError):
            WorkloadConfig(delete_fraction=0.5, read_fraction=0.5)

    def test_legacy_validations_still_hold(self):
        with pytest.raises(ValueError):
            WorkloadConfig(updates_per_cycle=-1)
        with pytest.raises(ValueError):
            WorkloadConfig(key_space=0)
        with pytest.raises(ValueError):
            WorkloadConfig(zipf_s=-0.5)
        with pytest.raises(ValueError):
            WorkloadConfig(delete_fraction=1.0)


class TestOpenLoop:
    def test_rate_is_respected(self):
        config = WorkloadConfig(updates_per_cycle=5.0, read_fraction=0.2)
        generator = OpenLoopGenerator(config, random.Random(8))
        total = sum(
            len(generator.ops_for_cycle(cycle, [0, 1, 2])) for cycle in range(400)
        )
        assert total == pytest.approx(2000, rel=0.1)

    def test_kind_mix(self):
        config = WorkloadConfig(
            updates_per_cycle=10.0, delete_fraction=0.2, read_fraction=0.3
        )
        generator = OpenLoopGenerator(config, random.Random(9))
        ops = [
            op
            for cycle in range(300)
            for op in generator.ops_for_cycle(cycle, [0])
        ]
        fractions = {
            kind: sum(1 for op in ops if op.kind is kind) / len(ops)
            for kind in OpKind
        }
        assert fractions[OpKind.DELETE] == pytest.approx(0.2, abs=0.05)
        assert fractions[OpKind.READ] == pytest.approx(0.3, abs=0.05)
        assert fractions[OpKind.WRITE] == pytest.approx(0.5, abs=0.05)

    def test_no_sites_no_ops(self):
        generator = OpenLoopGenerator(WorkloadConfig(), random.Random(0))
        assert generator.ops_for_cycle(0, []) == []


class TestClosedLoop:
    def test_throughput_follows_the_closed_loop_law(self):
        pool = ClientPool(
            clients=20, think_time=4.0, max_outstanding=1, service_time=1.0
        )
        generator = ClosedLoopGenerator(
            WorkloadConfig(), pool, random.Random(10)
        )
        cycles = 500
        total = sum(
            len(generator.ops_for_cycle(cycle, [0, 1])) for cycle in range(cycles)
        )
        # 20 clients / (1 + 4) cycles per op = 4 ops/cycle.
        assert pool.expected_rate == pytest.approx(4.0)
        assert total / cycles == pytest.approx(4.0, rel=0.15)

    def test_max_outstanding_scales_offered_load(self):
        pool = ClientPool(
            clients=10, think_time=4.0, max_outstanding=2, service_time=1.0
        )
        assert pool.expected_rate == pytest.approx(4.0)

    def test_a_slot_never_fires_twice_in_one_cycle(self):
        pool = ClientPool(
            clients=3, think_time=0.0, max_outstanding=1, service_time=1.0
        )
        generator = ClosedLoopGenerator(
            WorkloadConfig(), pool, random.Random(11)
        )
        for cycle in range(50):
            assert len(generator.ops_for_cycle(cycle, [0])) <= 3

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            ClientPool(clients=0)
        with pytest.raises(ValueError):
            ClientPool(think_time=-1.0)
        with pytest.raises(ValueError):
            ClientPool(max_outstanding=0)
        with pytest.raises(ValueError):
            ClientPool(service_time=0.0)
