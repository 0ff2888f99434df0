"""Section 2 baseline comparison: acknowledgment GC vs dormant
certificates for tombstone storage.

The Sarin & Lynch approach retains each certificate until every site
is known to hold it.  With everyone up it reclaims storage quickly —
but a single down site blocks every in-flight determination, so
storage grows without bound until the site returns, and the
determination itself costs O(n^2) metadata.  The paper's
fixed-threshold + dormant scheme keeps storage bounded regardless.
"""

from conftest import run_once
from repro.cluster.cluster import Cluster
from repro.experiments.report import format_table
from repro.protocols.ackgc import AckBasedCertificateGC
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.deathcerts import CertificatePolicy, DeathCertificateManager

N = 40
DELETES = 15


def _base_cluster(seed):
    cluster = Cluster(n=N, seed=seed)
    cluster.add_protocol(
        AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
    )
    return cluster


def _run_deletion_wave(cluster, retention_count=0):
    for i in range(DELETES):
        cluster.inject_update(i % N, f"k{i}", i)
    cluster.run_until(
        lambda: cluster.converged(cluster.up_site_ids()), max_cycles=100
    )
    for i in range(DELETES):
        cluster.inject_delete(i % N, f"k{i}", retention_count=retention_count)
    cluster.run_cycles(40)


def _count_certs(cluster):
    return sum(
        1
        for s in cluster.up_site_ids()
        for __, entry in cluster.sites[s].store.entries()
        if entry.is_deletion
    )


def test_storage_comparison_with_a_down_site(benchmark):
    def run():
        rows = []
        # Acknowledgment GC, everyone up: reclaims fully.
        cluster = _base_cluster(seed=50)
        gc = AckBasedCertificateGC()
        cluster.add_protocol(gc)
        _run_deletion_wave(cluster)
        rows.append(("ack GC, all up", _count_certs(cluster), gc.metadata_size()))
        # Acknowledgment GC with one site down: blocked.
        cluster = _base_cluster(seed=51)
        gc = AckBasedCertificateGC()
        cluster.add_protocol(gc)
        cluster.sites[N - 1].up = False
        _run_deletion_wave(cluster)
        rows.append(
            ("ack GC, one site down", _count_certs(cluster), gc.metadata_size())
        )
        # Dormant scheme with the same down site: bounded.
        cluster = _base_cluster(seed=52)
        manager = DeathCertificateManager(CertificatePolicy(tau1=12.0, tau2=500.0))
        cluster.add_protocol(manager)
        cluster.sites[N - 1].up = False
        _run_deletion_wave(cluster, retention_count=3)
        dormant = sum(
            cluster.sites[s].store.dormant_count() for s in cluster.up_site_ids()
        )
        rows.append(
            ("dormant r=3, one site down", _count_certs(cluster), dormant)
        )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["scheme", "active certificates held", "metadata / dormant copies"],
            rows,
            title=f"Tombstone storage after {DELETES} deletes, n={N}, 40 cycles",
        )
    )
    all_up, blocked, dormant = rows
    # Everyone up: ack GC reclaims everything.
    assert all_up[1] == 0
    # One site down: every certificate stuck at every up site.
    assert blocked[1] == DELETES * (N - 1)
    # Dormant scheme: active certificates all expired; only the bounded
    # dormant copies remain.
    assert dormant[1] == 0
    assert dormant[2] <= DELETES * 3
