"""Epidemic tracing: S/I/R census and first deliveries."""

import pytest

from repro.cluster.cluster import Cluster
from repro.obs.lineage import LineageIndex
from repro.protocols.base import ExchangeMode
from repro.protocols.direct_mail import DirectMailProtocol
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.sim.tracing import EpidemicTracer


def traced_cluster(n=200, k=3, seed=0, mode=ExchangeMode.PUSH):
    cluster = Cluster(n=n, seed=seed)
    rumor = RumorMongeringProtocol(RumorConfig(mode=mode, k=k))
    tracer = EpidemicTracer(rumor, key="k")
    cluster.add_protocol(rumor)
    cluster.add_protocol(tracer)
    return cluster, rumor, tracer


class TestCensus:
    def test_counts_partition_population(self):
        cluster, rumor, tracer = traced_cluster()
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(5)
        for census in tracer.history:
            assert census.susceptible + census.infective + census.removed == 200
            assert census.s + census.i + census.r == pytest.approx(1.0)

    def test_initial_state_one_infective(self):
        cluster, rumor, tracer = traced_cluster()
        cluster.inject_update(0, "k", "v")
        census = tracer.sample()
        assert census.infective == 1
        assert census.susceptible == 199
        assert census.removed == 0

    def test_epidemic_curve_shape(self):
        """s decreases monotonically; i rises then falls to zero; the
        removed fraction ends near 1 - residue."""
        cluster, rumor, tracer = traced_cluster(seed=2)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: not rumor.active, max_cycles=100)
        s_values = [c.s for c in tracer.history]
        assert all(a >= b for a, b in zip(s_values, s_values[1:]))
        peak = tracer.peak_infective()
        assert peak.infective > 1
        final = tracer.final()
        assert final.infective == 0
        assert final.s == pytest.approx(cluster.metrics.residue, abs=1e-9)

    def test_curve_matches_ode_residue(self):
        """The stochastic endpoint lands near the ODE fixed point for
        the feedback+coin variant."""
        from repro.analysis.epidemic_theory import rumor_residue

        cluster = Cluster(n=1000, seed=3)
        rumor = RumorMongeringProtocol(
            RumorConfig(mode=ExchangeMode.PUSH, feedback=True, counter=False, k=2)
        )
        tracer = EpidemicTracer(rumor, key="k")
        cluster.add_protocol(rumor)
        cluster.add_protocol(tracer)
        cluster.inject_update(0, "k", "v")
        cluster.run_until(lambda: not rumor.active, max_cycles=200)
        assert tracer.final().s == pytest.approx(rumor_residue(2), abs=0.06)

    def test_sample_before_history(self):
        cluster, rumor, tracer = traced_cluster()
        with pytest.raises(ValueError):
            tracer.final()
        with pytest.raises(ValueError):
            tracer.peak_infective()

    def test_curve_export(self):
        cluster, rumor, tracer = traced_cluster()
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(3)
        curve = tracer.curve()
        assert len(curve) == 3
        cycle, s, i, r = curve[0]
        assert cycle == 1


class TestClusterEvents:
    def test_simulator_emits_the_shared_event_stream(self):
        """The sim side of the unified bus: injections, receipts, the
        census, and cycle markers all land as typed events, and the
        shared tracker recomputes the cluster's own metrics from them."""
        from repro.obs.convergence import ConvergenceTracker
        from repro.obs.events import EventKind, RingBufferSink

        cluster, rumor, tracer = traced_cluster(n=50, seed=7)
        sink = RingBufferSink()
        cluster.bus.add_sink(sink)
        tracked = ConvergenceTracker(n=50, key="k")
        cluster.bus.add_sink(tracked.observe)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycles(30)

        injected = sink.of_kind(EventKind.UPDATE_INJECTED)
        assert [e.node for e in injected] == [0]
        assert injected[0].payload == {"key": "k", "deletion": False}
        census = sink.of_kind(EventKind.CENSUS)
        assert len(census) == 30
        assert census[0].payload["cycle"] == 1
        cycles = sink.of_kind(EventKind.CYCLE_COMPLETED)
        assert [e.payload["cycle"] for e in cycles] == list(range(1, 31))
        # Event time in the simulator is the cycle number, so the
        # tracker's delays come out in cycles — same as the metrics.
        metrics = cluster.metrics
        assert tracked.infected == metrics.infected
        assert tracked.receipt_times == metrics.receipt_times
        assert tracked.t_last == metrics.t_last


def first_receipts(index, key):
    """site -> cycle it first learned ``key`` from another site; the
    origin's injection span has no source and is not a delivery."""
    tree = index.tree_for_key(key)
    return {
        site: int(span.time)
        for site, span in tree.first_delivery.items()
        if span.src is not None
    }


def indexed_cluster(n, seed):
    """A cluster whose delivery-span stream feeds a lineage index."""
    cluster = Cluster(n=n, seed=seed)
    index = LineageIndex()
    cluster.bus.add_sink(index.observe)
    return cluster, index


class TestFirstDeliveries:
    """First deliveries read off the lineage index of the span stream."""

    def test_records_first_deliveries(self):
        cluster, index = indexed_cluster(n=10, seed=4)
        cluster.add_protocol(DirectMailProtocol())
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        receipts = first_receipts(index, "k")
        assert set(receipts) == set(range(1, 10))
        assert all(cycle == 1 for cycle in receipts.values())

    def test_filters_by_key(self):
        cluster, index = indexed_cluster(n=5, seed=5)
        cluster.add_protocol(DirectMailProtocol())
        cluster.inject_update(0, "a", 1)
        cluster.inject_update(1, "b", 2)
        cluster.run_cycle()
        tree = index.tree_for_key("a")
        assert all(span.key == "a" for span in tree.first_delivery.values())
        assert len(first_receipts(index, "a")) == 4

    def test_sees_anti_entropy_deliveries(self):
        """The index reads the span stream, so exchange-mediated first
        deliveries land in it exactly like targeted mail does."""
        from repro.protocols.anti_entropy import (
            AntiEntropyConfig,
            AntiEntropyProtocol,
        )

        cluster, index = indexed_cluster(n=12, seed=8)
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
        )
        cluster.inject_update(0, "k", "v", track=True)
        metrics = cluster.metrics
        cluster.run_until(lambda: metrics.infected == 12, max_cycles=60)
        receipts = first_receipts(index, "k")
        assert set(receipts) == set(range(1, 12))  # injection is not a delivery
        assert receipts == {
            site: int(t) for site, t in metrics.receipt_times.items() if site != 0
        }
