"""Checkpoint serialization: JSON round-trips of store content."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.items import DeathCertificate, VersionedValue
from repro.core.serialize import (
    SerializeError,
    decode_entry,
    decode_timestamp,
    decode_update,
    decode_updates,
    dump_store,
    encode_entry,
    encode_timestamp,
    encode_update,
    encode_updates,
    load_store,
)
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import SequenceClock, Timestamp

from conftest import make_store, ts


class TestTimestampCodec:
    def test_round_trip(self):
        stamp = Timestamp(3.5, site=7, sequence=11)
        assert decode_timestamp(encode_timestamp(stamp)) == stamp

    def test_json_compatible(self):
        blob = json.dumps(encode_timestamp(Timestamp(1.0, 2, 3)))
        assert decode_timestamp(json.loads(blob)) == Timestamp(1.0, 2, 3)


class TestEntryCodec:
    def test_value_round_trip(self):
        entry = VersionedValue({"nested": [1, 2]}, ts(4.0, 1, 2))
        assert decode_entry(encode_entry(entry)) == entry

    def test_certificate_round_trip(self):
        cert = DeathCertificate(
            ts(1.0), ts(1.0), retention_sites=(3, 9)
        ).reactivated(now=50.0)
        decoded = decode_entry(encode_entry(cert))
        assert decoded == cert
        assert decoded.activation_timestamp.time == 50.0
        assert decoded.retention_sites == (3, 9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializeError):
            decode_entry({"kind": "mystery"})

    def test_update_round_trip(self):
        update = StoreUpdate(key="k", entry=VersionedValue("v", ts(1.0)))
        assert decode_update(encode_update(update)) == update


class TestStrictDecoding:
    """Wire hardening: malformed peer payloads raise SerializeError,
    never a bare KeyError."""

    def test_missing_kind(self):
        with pytest.raises(SerializeError, match="kind"):
            decode_entry({"timestamp": encode_timestamp(ts(1.0))})

    def test_non_dict_entry(self):
        with pytest.raises(SerializeError):
            decode_entry("not-an-object")

    def test_value_entry_missing_fields(self):
        with pytest.raises(SerializeError, match="value"):
            decode_entry({"kind": "value", "timestamp": encode_timestamp(ts(1.0))})
        with pytest.raises(SerializeError, match="timestamp"):
            decode_entry({"kind": "value", "value": 1})

    def test_value_entry_with_a_null_value(self):
        """``VersionedValue(None, …)`` is an entry no store would make:
        a null value is a deletion, and a deletion is a certificate."""
        with pytest.raises(SerializeError, match="null"):
            decode_entry({"kind": "value", "value": None, "timestamp": encode_timestamp(ts(1.0))})

    def test_certificate_missing_fields(self):
        stamp = encode_timestamp(ts(1.0))
        with pytest.raises(SerializeError, match="retention"):
            decode_entry({"kind": "certificate", "timestamp": stamp, "activation": stamp})
        with pytest.raises(SerializeError, match="activation"):
            decode_entry({"kind": "certificate", "timestamp": stamp, "retention": []})

    def test_certificate_bad_retention(self):
        stamp = encode_timestamp(ts(1.0))
        with pytest.raises(SerializeError, match="retention"):
            decode_entry(
                {"kind": "certificate", "timestamp": stamp,
                 "activation": stamp, "retention": ["site-3"]}
            )

    def test_certificate_activation_before_timestamp(self):
        with pytest.raises(SerializeError, match="activation"):
            decode_entry(
                {"kind": "certificate",
                 "timestamp": encode_timestamp(ts(5.0)),
                 "activation": encode_timestamp(ts(1.0)),
                 "retention": []}
            )

    def test_timestamp_field_types_checked(self):
        with pytest.raises(SerializeError, match="time"):
            decode_timestamp({"time": "soon", "site": 0, "seq": 0})
        with pytest.raises(SerializeError, match="site"):
            decode_timestamp({"time": 1.0, "site": 1.5, "seq": 0})
        with pytest.raises(SerializeError, match="seq"):
            decode_timestamp({"time": 1.0, "site": 0})
        with pytest.raises(SerializeError, match="site"):
            decode_timestamp({"time": 1.0, "site": True, "seq": 0})

    def test_update_missing_key(self):
        with pytest.raises(SerializeError, match="key"):
            decode_update({"entry": encode_entry(VersionedValue("v", ts(1.0)))})

    def test_update_null_key(self):
        with pytest.raises(SerializeError, match="key"):
            decode_update({"key": None, "entry": encode_entry(VersionedValue("v", ts(1.0)))})

    def test_update_list_must_be_array(self):
        with pytest.raises(SerializeError, match="array"):
            decode_updates({"not": "a list"})

    def test_update_list_round_trip(self):
        updates = [
            StoreUpdate(key="a", entry=VersionedValue(1, ts(1.0))),
            StoreUpdate(key="b", entry=DeathCertificate(ts(2.0), ts(2.0))),
        ]
        blob = json.loads(json.dumps(encode_updates(updates)))
        assert decode_updates(blob) == updates

    def test_serialize_error_is_value_error(self):
        # Callers that guarded against the old ValueError keep working.
        assert issubclass(SerializeError, ValueError)

    def test_load_store_missing_section(self):
        store = make_store(0)
        store.update("a", 1)
        payload = dump_store(store)
        del payload["dormant"]
        with pytest.raises(SerializeError, match="dormant"):
            load_store(payload, make_store(1))


# ---------------------------------------------------------------------------
# Property test: dump/load round-trips arbitrary store contents, death
# certificates with retention lists and reactivated activation
# timestamps included.
# ---------------------------------------------------------------------------

_keys = st.one_of(
    st.text(min_size=1, max_size=8),
    st.integers(-3, 3),
)

_ops = st.lists(
    st.tuples(
        _keys,
        st.one_of(
            st.integers(-5, 5),                              # update with int value
            st.text(max_size=5),                             # update with str value
            st.just(None),                                   # delete (certificate)
        ),
        st.lists(st.integers(0, 7), max_size=3),             # retention sites
        st.booleans(),                                       # reactivate after delete?
    ),
    max_size=25,
)


def _build_store(ops) -> ReplicaStore:
    store = ReplicaStore(site_id=0, clock=SequenceClock(site=0))
    for key, value, retention, reactivate in ops:
        if value is None:
            store.delete(key, retention_sites=tuple(retention))
            if reactivate:
                cert = store.entry(key)
                # Push the activation timestamp forward, as a dormant
                # certificate awakening would (Section 2.2).
                store.apply_entry(key, cert.reactivated(now=cert.timestamp.time + 50.0))
        else:
            store.update(key, value)
    return store


class TestDumpLoadProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_round_trip_reproduces_store(self, ops):
        store = _build_store(ops)
        blob = json.dumps(dump_store(store))          # must survive real JSON
        restored = make_store(1)
        load_store(json.loads(blob), restored)
        assert restored.agrees_with(store)
        assert restored.checksum == store.checksum
        # Activation timestamps and retention lists round-trip exactly
        # (agrees_with ignores them by design, so check explicitly).
        for key, entry in store.entries():
            theirs = restored.entry(key)
            if entry.is_deletion:
                assert theirs.activation_timestamp == entry.activation_timestamp
                assert theirs.retention_sites == entry.retention_sites

    @settings(max_examples=25, deadline=None)
    @given(ops=_ops)
    def test_load_is_idempotent(self, ops):
        store = _build_store(ops)
        payload = dump_store(store)
        target = make_store(2)
        load_store(payload, target)
        assert load_store(payload, target) == 0


class TestStoreDump:
    def _populated_store(self):
        store = make_store(0)
        store.update("a", 1)
        store.update("b", {"addr": "10.0.0.1"})
        store.delete("a", retention_sites=(0,))
        return store

    def test_dump_is_json_serializable(self):
        store = self._populated_store()
        blob = json.dumps(dump_store(store))
        assert "certificate" in blob

    def test_restore_into_empty_store_reproduces_content(self):
        store = self._populated_store()
        restored = make_store(1)
        applied = load_store(json.loads(json.dumps(dump_store(store))), restored)
        assert applied == 2
        assert restored.agrees_with(store)
        assert restored.checksum == store.checksum

    def test_dump_includes_dormant_certificates(self):
        store = self._populated_store()
        for __ in range(30):
            store.clock.next_timestamp()
        store.sweep_certificates(tau1=5.0, tau2=1000.0)
        assert store.dormant_count() == 1
        payload = dump_store(store)
        assert len(payload["dormant"]) == 1
        restored = make_store(0)
        load_store(payload, restored)
        # The certificate is live again in the restored store; the next
        # sweep will re-expire it into dormancy.
        assert restored.entry("a") is not None
        assert restored.entry("a").is_deletion

    def test_load_merges_by_last_writer_wins(self):
        old = make_store(0)
        old.update("k", "stale")
        payload = dump_store(old)
        target = make_store(1, start=100.0)
        target.update("k", "fresh")
        load_store(payload, target)
        assert target.get("k") == "fresh"

    def test_load_is_idempotent(self):
        store = self._populated_store()
        payload = dump_store(store)
        target = make_store(1)
        assert load_store(payload, target) > 0
        assert load_store(payload, target) == 0

    def test_version_checked(self):
        store = self._populated_store()
        payload = dump_store(store)
        payload["version"] = 99
        with pytest.raises(ValueError):
            load_store(payload, make_store(1))

    def test_crash_restore_scenario(self):
        """A site checkpoints, 'crashes', restores, and anti-entropy
        brings it fully current."""
        from repro.cluster.cluster import Cluster
        from repro.protocols.anti_entropy import (
            AntiEntropyConfig,
            AntiEntropyProtocol,
        )
        from repro.protocols.base import ExchangeMode

        cluster = Cluster(n=8, seed=1)
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
        )
        cluster.inject_update(0, "early", "e")
        cluster.run_until(cluster.converged, max_cycles=40)
        checkpoint = json.dumps(dump_store(cluster.sites[5].store))
        cluster.sites[5].up = False
        cluster.inject_update(0, "late", "l")
        cluster.run_until(
            lambda: cluster.converged(cluster.up_site_ids()), max_cycles=40
        )
        # "Restore from stable storage" (a no-op here since the store
        # survived, but prove the checkpoint alone would have sufficed).
        fresh = make_store(5)
        load_store(json.loads(checkpoint), fresh)
        assert fresh.get("early") == "e"
        cluster.sites[5].up = True
        cluster.run_until(cluster.converged, max_cycles=40)
        assert cluster.sites[5].store.get("late") == "l"
