"""The invariant checker, and whole-protocol property tests that use it
to fuzz the stack: random configurations must keep every structural
invariant and converge."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.invariants import InvariantChecker, InvariantViolation
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.deathcerts import CertificatePolicy, DeathCertificateManager
from repro.protocols.direct_mail import DirectMailProtocol
from repro.protocols.hotlist import HotListProtocol
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.sim.faults import RandomChurn
from repro.workload import WorkloadConfig, WorkloadDriver


class TestChecker:
    def test_clean_cluster_passes(self):
        cluster = Cluster(n=10, seed=0)
        checker = InvariantChecker()
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
        )
        cluster.add_protocol(checker)
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(10)
        assert checker.checks_run == 10

    def test_check_every(self):
        cluster = Cluster(n=5, seed=0)
        checker = InvariantChecker(check_every=3)
        cluster.add_protocol(checker)
        cluster.run_cycles(9)
        assert checker.checks_run == 3

    def test_check_every_validated(self):
        with pytest.raises(ValueError):
            InvariantChecker(check_every=0)

    def test_detects_corrupted_checksum(self):
        cluster = Cluster(n=3, seed=0)
        checker = InvariantChecker()
        cluster.add_protocol(checker)
        cluster.inject_update(0, "k", "v")
        # Corrupt the root checksum behind the store's back.
        cluster.sites[0].store.checksum_tree._nodes[1] ^= 1
        with pytest.raises(InvariantViolation, match="checksum"):
            cluster.run_cycle()

    def test_detects_corrupted_bucket_leaf(self):
        cluster = Cluster(n=3, seed=0)
        checker = InvariantChecker()
        cluster.add_protocol(checker)
        cluster.inject_update(0, "k", "v")
        store = cluster.sites[0].store
        tree = store.checksum_tree
        # Flip one occupied leaf without propagating to its ancestors:
        # the root (the whole-store checksum) still looks right, so only
        # the per-bucket check can catch this.
        bucket = store.bucket_of("k")
        tree._nodes[tree.buckets + bucket] ^= 1
        with pytest.raises(InvariantViolation, match="leaf"):
            cluster.run_cycle()

    def test_detects_internal_node_drift(self):
        cluster = Cluster(n=3, seed=0)
        checker = InvariantChecker()
        cluster.add_protocol(checker)
        cluster.inject_update(0, "k", "v")
        tree = cluster.sites[0].store.checksum_tree
        # An internal node that is not the XOR of its children would let
        # a drill-down prune a differing subtree.
        tree._nodes[tree.buckets // 2] ^= 1
        with pytest.raises(InvariantViolation, match="XOR|checksum"):
            cluster.run_cycle()

    def test_detects_backwards_timestamp(self):
        cluster = Cluster(n=3, seed=0)
        checker = InvariantChecker()
        cluster.add_protocol(checker)
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        # Force an older entry in, bypassing LWW.
        from repro.core.items import VersionedValue
        from repro.core.timestamps import Timestamp

        store = cluster.sites[0].store
        store._put("k", VersionedValue("zombie", Timestamp(-5.0, 0, 0)))
        with pytest.raises(InvariantViolation, match="backwards"):
            cluster.run_cycle()

    def test_detects_ungrounded_rumor(self):
        cluster = Cluster(n=3, seed=0)
        rumor = RumorMongeringProtocol(RumorConfig(k=2))
        checker = InvariantChecker()
        cluster.add_protocol(rumor)
        cluster.add_protocol(checker)
        from repro.core.items import VersionedValue
        from repro.core.store import StoreUpdate
        from repro.core.timestamps import Timestamp

        # A hot rumor for an entry the store never held.
        rumor.make_hot(
            1,
            StoreUpdate(key="phantom", entry=VersionedValue("x", Timestamp(5.0, 1, 0))),
        )
        with pytest.raises(InvariantViolation, match="hot rumor"):
            cluster.run_cycle()


PROTOCOL_CHOICES = st.sampled_from(
    ["mail", "rumor-push", "rumor-pull", "rumor-pushpull", "anti-entropy", "hotlist"]
)


def build_protocol(name, k):
    if name == "mail":
        return DirectMailProtocol(loss_probability=0.1)
    if name == "rumor-push":
        return RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH, k=k))
    if name == "rumor-pull":
        return RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PULL, k=k))
    if name == "rumor-pushpull":
        return RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH_PULL, k=k))
    if name == "anti-entropy":
        return AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, period=2, offset=1)
        )
    if name == "hotlist":
        return HotListProtocol(batch_size=2)
    raise AssertionError(name)


class TestProtocolFuzz:
    @given(
        protocols=st.lists(PROTOCOL_CHOICES, min_size=1, max_size=3, unique=True),
        k=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        churn=st.booleans(),
        deletes=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_stack_keeps_invariants(self, protocols, k, seed, churn, deletes):
        """Any combination of mechanisms under workload (and optional
        churn and deletes) maintains every structural invariant."""
        cluster = Cluster(n=16, seed=seed)
        if churn:
            cluster.add_protocol(RandomChurn(crash_rate=0.05, recovery_rate=0.3))
        for name in protocols:
            cluster.add_protocol(build_protocol(name, k))
        cluster.add_protocol(
            DeathCertificateManager(CertificatePolicy(tau1=15.0, tau2=100.0))
        )
        checker = InvariantChecker()
        cluster.add_protocol(checker)
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(
                updates_per_cycle=1.0,
                key_space=6,
                delete_fraction=0.25 if deletes else 0.0,
            ),
            seed=seed,
        )
        driver.run(cycles=12)   # raises InvariantViolation on any breach
        assert checker.checks_run == 12

    @given(
        protocols=st.lists(PROTOCOL_CHOICES, min_size=1, max_size=2, unique=True),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_stacks_with_a_complete_mechanism_converge(self, protocols, seed):
        """Any stack containing at least one eventually-complete
        mechanism (anti-entropy / hot-list / pushpull rumor + the
        others' help) drives replicas to agreement after quiescence."""
        if not ({"anti-entropy", "hotlist"} & set(protocols)):
            protocols = protocols + ["anti-entropy"]
        cluster = Cluster(n=12, seed=seed)
        for name in protocols:
            cluster.add_protocol(build_protocol(name, 2))
        cluster.add_protocol(InvariantChecker())
        driver = WorkloadDriver(
            cluster, WorkloadConfig(updates_per_cycle=1.0, key_space=5), seed=seed
        )
        driver.run(cycles=10)
        cluster.run_until(cluster.converged, max_cycles=200)
        assert cluster.converged()
