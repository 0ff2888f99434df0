"""One gossip cycle for every pairwise epidemic in the simulator.

``GossipProtocol.pair_up`` draws partners, hunts past refusals, counts
them and times both phases for anti-entropy, rumor mongering and the
hot-list scheme; ack-GC shares its selector and partner draw.  The
fingerprints below were recorded before those protocols moved onto it
(each one had its own copy of the loop), so they pin that the move
changed no draw, no delivery and no count.  The batched engine's golden
tests pin rumor mongering and synchronous anti-entropy.
"""

import dataclasses
import hashlib
import pathlib

import pytest

import repro.protocols
from repro.cluster.cluster import Cluster
from repro.protocols.ackgc import AckBasedCertificateGC
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import ChecksumWithRecent, FullCompare
from repro.protocols.hotlist import HotListProtocol
from repro.sim.transport import ConnectionPolicy

POLICY = ConnectionPolicy(connection_limit=1, hunt_limit=2)


def live_anti_entropy(strategy):
    return AntiEntropyProtocol(
        config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, policy=POLICY, synchronous=False),
        strategy=strategy,
    )


#: name -> the protocols to attach; the last one's stats are fingerprinted.
SCENARIOS = {
    "anti-entropy-full": lambda: [live_anti_entropy(FullCompare())],
    "anti-entropy-checksum": lambda: [live_anti_entropy(ChecksumWithRecent(tau=3.0))],
    "hot-list": lambda: [HotListProtocol(batch_size=2, policy=POLICY)],
    "ack-gc": lambda: [live_anti_entropy(FullCompare()), AckBasedCertificateGC()],
}

#: Receipt cycle of the tracked update at sites 0..15.  The three
#: protocols that resolve every difference draw the same partners, so
#: they deliver it alike.
EARLY = [0.0, 2.0, 1.0, 3.0, 3.0, 4.0, 2.0, 3.0, 3.0, 2.0, 3.0, 2.0, 2.0, 4.0, 2.0, 2.0]

RECORDED = {
    "anti-entropy-full": {
        "receipts": EARLY,
        "update_sends": 134,
        "comparisons": 121,
        "rejected_connections": 20,
        "stats": {
            "exchanges": 121, "updates_shipped": 134, "entries_examined": 759,
            "full_compares": 121, "checksum_successes": 0, "bucket_rounds": 0,
            "entries_avoided": 0, "rejected": 20,
        },
        "checksums": "002e5b06d80505be",
    },
    "anti-entropy-checksum": {
        "receipts": EARLY,
        "update_sends": 134,
        "comparisons": 121,
        "rejected_connections": 20,
        "stats": {
            "exchanges": 121, "updates_shipped": 134, "entries_examined": 317,
            "full_compares": 30, "checksum_successes": 91, "bucket_rounds": 0,
            "entries_avoided": 1015, "rejected": 20,
        },
        "checksums": "002e5b06d80505be",
    },
    "hot-list": {
        "receipts": EARLY,
        "update_sends": 378,
        "comparisons": 121,
        "rejected_connections": 20,
        "stats": {
            "exchanges": 121, "checksum_rounds": 236, "batches_sent": 207,
            "updates_shipped": 378, "useful_updates": 134, "rejected": 20,
        },
        "checksums": "002e5b06d80505be",
    },
    "ack-gc": {
        "receipts": [
            0.0, 4.0, 1.0, 2.0, 3.0, 4.0, 2.0, 2.0, 3.0, 2.0, 3.0, 4.0, 2.0, 3.0, 2.0, 3.0,
        ],
        "update_sends": 139,
        "comparisons": 118,
        "rejected_connections": 23,
        "stats": {"gossips": 138, "ack_entries_sent": 866, "discarded": 12},
        "checksums": "98ab2d6214b9a662",
    },
}


def fingerprint(name):
    protocols = SCENARIOS[name]()
    cluster = Cluster(n=16, seed=11)
    for protocol in protocols:
        cluster.add_protocol(protocol)
    cluster.inject_update(0, "k", "v", track=True)
    for i in range(6):
        cluster.inject_update(2 * i + 1, f"w{i}", i)
    cluster.sites[5].up = False   # a down partner is a failed draw
    cluster.run_cycles(3)
    cluster.sites[5].up = True
    cluster.inject_delete(3, "w1")
    cluster.inject_update(9, "late", "x")
    cluster.run_cycles(6)
    metrics = cluster.metrics
    checksums = [cluster.sites[s].store.checksum for s in cluster.site_ids]
    return {
        "receipts": [metrics.receipt_times.get(s) for s in cluster.site_ids],
        "update_sends": metrics.update_sends,
        "comparisons": metrics.comparisons,
        "rejected_connections": metrics.rejected_connections,
        "stats": dataclasses.asdict(protocols[-1].stats),
        "checksums": hashlib.sha256(repr(checksums).encode()).hexdigest()[:16],
    }


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_the_shared_cycle_replays_the_recorded_runs(name):
    assert fingerprint(name) == RECORDED[name]


def test_the_cycle_is_written_once():
    sources = {
        path.name: path.read_text()
        for path in pathlib.Path(repro.protocols.__file__).parent.glob("*.py")
    }

    def modules_with(text):
        return sorted(name for name, source in sources.items() if text in source)

    assert modules_with("connect_with_hunting(") == ["base.py"]
    assert modules_with("def _choose_up_partner") == ["base.py"]
    assert sum(source.count("UniformSelector(") for source in sources.values()) == 1
    assert modules_with("_refresh_selector") == []
