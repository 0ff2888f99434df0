"""Steady-state sim runs: report schema, curves, deletes, WAN traffic."""

import pytest

from repro.cluster.cluster import Cluster
from repro.obs.events import EventBus, EventKind
from repro.obs.metrics import MetricsRegistry
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import FullCompare
from repro.workload.driver import WorkloadDriver
from repro.workload.generators import ClientPool, WorkloadConfig
from repro.workload.geo import three_datacenters
from repro.workload.steady import (
    SCHEMA,
    SteadyStateConfig,
    build_report,
    empty_traffic_summary,
    run_steady_state,
    summary_lines,
)

REPORT_KEYS = {
    "schema", "runtime", "unit", "n", "duration", "ops", "throughput",
    "staleness", "traffic", "curves", "converged_after_quiesce",
}


def _config(**overrides):
    defaults = dict(
        workload=WorkloadConfig(
            updates_per_cycle=6.0,
            key_space=20,
            read_fraction=0.3,
            delete_fraction=0.05,
        ),
        n=12,
        cycles=20,
        window=5,
        seed=3,
    )
    defaults.update(overrides)
    return SteadyStateConfig(**defaults)


class TestConfigValidation:
    def test_window_must_fit_in_cycles(self):
        with pytest.raises(ValueError):
            SteadyStateConfig(cycles=10, window=11)

    def test_needs_two_sites_without_wan(self):
        with pytest.raises(ValueError):
            SteadyStateConfig(n=1)


class TestReport:
    def test_schema_and_top_level_keys(self):
        report = run_steady_state(_config())
        assert report["schema"] == SCHEMA
        assert set(report) == REPORT_KEYS
        assert report["runtime"] == "sim"
        assert report["unit"] == "cycles"
        assert report["n"] == 12

    def test_throughput_tracks_the_offered_rate(self):
        report = run_steady_state(_config())
        assert report["throughput"]["mean"] == pytest.approx(
            report["ops"]["total"] / 20.0
        )
        assert report["throughput"]["mean"] == pytest.approx(6.0, rel=0.3)
        assert report["throughput"]["unit"] == "ops/cycle"

    def test_op_counts_are_consistent(self):
        report = run_steady_state(_config())
        ops = report["ops"]
        assert ops["total"] == ops["writes"] + ops["reads"] + ops["deletes"]
        assert ops["deletes"] > 0
        assert ops["reads"] > 0

    def test_curves_have_one_point_per_window(self):
        report = run_steady_state(_config(cycles=20, window=5))
        curves = report["curves"]
        assert curves["window"] == 5.0
        assert len(curves["points"]) == 4
        for point in curves["points"]:
            assert set(point) == {
                "t", "ops", "throughput", "staleness_p50",
                "staleness_p99", "residue",
            }
            assert 0.0 <= point["residue"] <= 1.0
        assert [point["t"] for point in curves["points"]] == [5, 10, 15, 20]

    def test_quiesce_converges_the_cluster(self):
        report = run_steady_state(_config())
        assert report["converged_after_quiesce"] is True

    def test_uniform_topology_reports_empty_traffic(self):
        report = run_steady_state(_config())
        assert report["traffic"] == empty_traffic_summary()

    def test_deterministic_under_seed(self):
        assert run_steady_state(_config()) == run_steady_state(_config())

    def test_closed_loop_pool_caps_throughput(self):
        pool = ClientPool(
            clients=10, think_time=4.0, max_outstanding=1, service_time=1.0
        )
        report = run_steady_state(
            _config(
                workload=WorkloadConfig(key_space=20), pool=pool, cycles=40,
                window=10,
            )
        )
        assert report["throughput"]["mean"] == pytest.approx(
            pool.expected_rate, rel=0.3
        )

    def test_summary_lines_render(self):
        report = run_steady_state(_config(wan=three_datacenters((2, 2, 2))))
        text = "\n".join(summary_lines(report))
        assert "sim:" in text
        assert "wan share" in text
        assert "wan:eu-west<->us-east" in text


class TestWanRun:
    def test_wan_traffic_is_attributed(self):
        report = run_steady_state(
            _config(wan=three_datacenters((4, 4, 4)), cycles=30, window=6)
        )
        traffic = report["traffic"]
        assert report["n"] == 12
        links = {row["link"] for row in traffic["links"]}
        assert links == {
            "wan:eu-west<->us-east",
            "wan:ap-south<->eu-west",
            "wan:ap-south<->us-east",
            "intra:us-east", "intra:eu-west", "intra:ap-south",
        }
        assert traffic["wan_conversations"] > 0
        assert 0.0 < traffic["wan_share"] < 1.0
        assert traffic["busiest_wan_link"] in links
        assert report["converged_after_quiesce"] is True

    def test_useful_updates_flow_on_wan_links(self):
        report = run_steady_state(
            _config(wan=three_datacenters((4, 4, 4)), cycles=30, window=6)
        )
        useful = sum(
            row["useful_updates"] for row in report["traffic"]["links"]
        )
        assert useful > 0


class TestObservability:
    def test_events_emitted_on_an_attached_bus(self):
        bus = EventBus()
        events = []
        bus.add_sink(events.append)
        run_steady_state(_config(cycles=20, window=5), bus=bus)
        kinds = [event.kind for event in events]
        assert kinds.count(EventKind.WORKLOAD_WINDOW) == 4
        assert EventKind.READ_SAMPLED in kinds
        window = next(
            event for event in events
            if event.kind is EventKind.WORKLOAD_WINDOW
        )
        assert {"t", "ops", "throughput", "residue"} <= set(window.payload)

    def test_metrics_registry_populated(self):
        registry = MetricsRegistry()
        report = run_steady_state(_config(), metrics=registry)
        counter = registry.counter(
            "repro_workload_ops_total",
            "Client operations injected",
            labels=("kind",),
        )
        assert counter.value(kind="write") == report["ops"]["writes"]
        assert counter.value(kind="read") == report["ops"]["reads"]
        assert counter.value(kind="delete") == report["ops"]["deletes"]


class TestDeletesUnderLoad:
    def test_death_certificates_propagate_under_sustained_load(self):
        """Satellite: delete_fraction under sustained load — death
        certificates must win over concurrent writes and every store
        must converge once injection stops."""
        cluster = Cluster(n=10, seed=7)
        cluster.add_protocol(
            AntiEntropyProtocol(
                config=AntiEntropyConfig(
                    mode=ExchangeMode.PUSH_PULL, synchronous=False
                ),
                strategy=FullCompare(),
            )
        )
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(
                updates_per_cycle=8.0, key_space=12, delete_fraction=0.3
            ),
            seed=7,
        )
        driver.run(50)
        assert driver.deletes > 20
        cluster.run_until(cluster.converged, max_cycles=200)
        # Every site agrees with the oracle on every key ever written:
        # same timestamp, and tombstones where the last op was a delete.
        deletion_seen = False
        for key in driver.oracle_keys():
            latest = driver._latest[key]
            reference = cluster.sites[0].store.entry(key)
            assert reference is not None
            assert reference.timestamp == latest
            for site_id in cluster.up_site_ids()[1:]:
                entry = cluster.sites[site_id].store.entry(key)
                assert entry is not None
                assert entry.timestamp == reference.timestamp
                assert entry.is_deletion == reference.is_deletion
            deletion_seen = deletion_seen or reference.is_deletion
        assert deletion_seen


class TestBuildReport:
    def test_zero_duration_yields_zero_throughput(self):
        report = build_report(
            runtime="live", unit="seconds", n=3, duration=0.0,
            ops={"total": 0, "writes": 0, "reads": 0, "deletes": 0,
                 "read_misses": 0},
            staleness={"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0,
                       "max": 0.0},
            traffic=empty_traffic_summary(),
            curves={"window": 1.0, "points": []},
            converged_after_quiesce=True,
        )
        assert report["throughput"] == {"mean": 0.0, "unit": "ops/second"}
        assert set(report) == REPORT_KEYS
