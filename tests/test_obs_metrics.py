"""Metrics registry: counters, labels, cardinality bounds, snapshots."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_unlabeled_counting(self):
        c = Counter("repro_things_total", "Things.")
        c.inc()
        c.inc(4)
        assert c.value() == 5.0
        assert c.total() == 5.0

    def test_counters_only_go_up(self):
        c = Counter("repro_things_total")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        c = Counter("repro_frames_total", labels=("type",))
        c.inc(type="push")
        c.inc(2, type="ack")
        assert c.value(type="push") == 1.0
        assert c.value(type="ack") == 2.0
        assert c.value(type="rumor") == 0.0   # never-seen series reads 0
        assert c.total() == 3.0

    def test_wrong_label_names_raise(self):
        c = Counter("repro_frames_total", labels=("type",))
        with pytest.raises(MetricError):
            c.inc(kind="push")
        with pytest.raises(MetricError):
            c.inc()  # missing the declared label

    def test_cardinality_cap(self):
        c = Counter("repro_frames_total", labels=("type",), max_series=3)
        for i in range(3):
            c.inc(type=f"t{i}")
        with pytest.raises(MetricError) as error:
            c.inc(type="one-too-many")
        assert "cardinality" in str(error.value)
        # Existing series still work after the cap is hit.
        c.inc(type="t0")
        assert c.value(type="t0") == 2.0

    def test_invalid_names_rejected(self):
        with pytest.raises(MetricError):
            Counter("0bad")
        with pytest.raises(MetricError):
            Counter("repro_ok_total", labels=("bad-label",))


class TestHistogram:
    def test_observations_land_in_the_right_bucket(self):
        h = Histogram("repro_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 100.0):
            h.observe(value)
        cell = h.cell()
        assert cell.counts == [1, 2, 1]    # 100.0 only lands in +Inf
        assert cell.count == 5
        assert cell.sum == pytest.approx(106.05)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("repro_seconds", buckets=(1.0, 0.1))


class TestRegistry:
    def test_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_things_total", labels=("type",))
        b = registry.counter("repro_things_total", labels=("type",))
        assert a is b

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total")
        with pytest.raises(MetricError):
            registry.histogram("repro_things_total")
        with pytest.raises(MetricError):
            registry.counter("repro_things_total", labels=("type",))

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "A.", labels=("type",)).inc(type="push")
        registry.counter("repro_b_total").inc(7)
        registry.histogram("repro_c_seconds", buckets=(1.0,)).observe(0.5)
        blob = json.loads(json.dumps(registry.snapshot()))
        assert blob["repro_a_total"]["type"] == "counter"
        assert blob["repro_a_total"]["series"] == [
            {"labels": {"type": "push"}, "value": 1.0}
        ]
        assert blob["repro_b_total"]["series"][0]["value"] == 7.0
        assert blob["repro_c_seconds"]["series"][0]["counts"] == [1]
