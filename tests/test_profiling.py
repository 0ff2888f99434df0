"""Phase timers: the Profiler, its null variant, and runtime wiring."""

import pytest

from repro.cluster.cluster import Cluster
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import NULL_PROFILER, PHASES, Profiler
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.hotlist import HotListProtocol
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.sim.transport import ConnectionPolicy

#: Connection-limited, so some initiators draw and are refused.
LIMITED = ConnectionPolicy(connection_limit=1, hunt_limit=1)

GOSSIP = {
    "anti-entropy": lambda: AntiEntropyProtocol(
        config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, policy=LIMITED)
    ),
    "rumor-mongering": lambda: RumorMongeringProtocol(
        RumorConfig(mode=ExchangeMode.PUSH_PULL, k=2, policy=LIMITED)
    ),
    "hot-list": lambda: HotListProtocol(policy=LIMITED),
}


class TestProfiler:
    def test_phase_accumulates_seconds_and_calls(self):
        profiler = Profiler()
        for __ in range(3):
            with profiler.phase("merge"):
                pass
        snap = profiler.snapshot()
        assert snap["merge"]["calls"] == 3
        assert snap["merge"]["seconds"] >= 0.0

    def test_record_is_additive(self):
        profiler = Profiler()
        profiler.record("exchange", 0.25)
        profiler.record("exchange", 0.5)
        snap = profiler.snapshot()
        assert snap["exchange"]["seconds"] == 0.75
        assert snap["exchange"]["calls"] == 2

    def test_exports_through_the_registry(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry)
        with profiler.phase("partner-selection"):
            pass
        snapshot = registry.snapshot()
        for family in ("repro_phase_seconds_total", "repro_phase_calls_total"):
            assert snapshot[family]["type"] == "counter"
            assert [s["labels"] for s in snapshot[family]["series"]] == [
                {"phase": "partner-selection"}
            ]
        assert snapshot["repro_phase_calls_total"]["series"][0]["value"] == 1.0

    def test_null_profiler_records_nothing(self):
        assert NULL_PROFILER.enabled is False
        with NULL_PROFILER.phase("merge"):
            pass
        NULL_PROFILER.record("merge", 1.0)
        assert NULL_PROFILER.snapshot() == {}

    def test_null_phase_is_shared(self):
        # The hot loop hands out one no-op manager, not an allocation.
        assert NULL_PROFILER.phase("a") is NULL_PROFILER.phase("b")


class TestClusterProfiling:
    def epidemic(self, cluster):
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
        )
        cluster.inject_update(0, "k", "v", track=True)
        metrics = cluster.metrics
        cluster.run_until(lambda: metrics.infected == cluster.n, max_cycles=60)

    def test_disabled_by_default(self):
        cluster = Cluster(n=8, seed=0)
        assert cluster.profiler is NULL_PROFILER
        self.epidemic(cluster)
        assert cluster.profiler.snapshot() == {}

    @pytest.mark.parametrize("protocol", sorted(GOSSIP))
    def test_enable_profiling_times_the_phases(self, protocol):
        cluster = Cluster(n=8, seed=0)
        profiler = cluster.enable_profiling()
        assert profiler is cluster.profiler
        cluster.add_protocol(GOSSIP[protocol]())
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycles(8)
        snap = profiler.snapshot()
        # One partner selection per initiator, one exchange per
        # conversation it won.
        held = cluster.metrics.comparisons
        assert held > 0
        assert snap["partner-selection"]["calls"] == held + cluster.metrics.rejected_connections
        assert snap["exchange"]["calls"] == held
        for phase in ("partner-selection", "exchange"):
            assert snap[phase]["seconds"] >= 0.0
        assert set(snap) <= set(PHASES)

    def test_mail_phase_times_the_deliveries(self):
        from repro.protocols.direct_mail import DirectMailProtocol

        cluster = Cluster(n=6, seed=2)
        profiler = cluster.enable_profiling()
        cluster.add_protocol(DirectMailProtocol())
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(2)  # one cycle delivers mail, one has none
        assert profiler.snapshot()["mail"]["calls"] == 1

    def test_emit_phase_needs_a_bus_consumer(self):
        from repro.obs.events import RingBufferSink

        cluster = Cluster(n=4, seed=1)
        profiler = cluster.enable_profiling()
        cluster.bus.add_sink(RingBufferSink())
        self.epidemic(cluster)
        assert profiler.snapshot()["emit"]["calls"] > 0

    def test_profiling_does_not_change_results(self):
        plain = Cluster(n=16, seed=5)
        self.epidemic(plain)
        profiled = Cluster(n=16, seed=5)
        profiled.enable_profiling()
        self.epidemic(profiled)
        assert plain.metrics.t_last == profiled.metrics.t_last
        assert plain.metrics.receipt_times == profiled.metrics.receipt_times
