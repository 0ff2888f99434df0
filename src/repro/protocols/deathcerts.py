"""Death-certificate lifecycle management (Section 2).

Deleted items cannot simply be removed: the propagation mechanisms
would resurrect them from other replicas.  Deletions are therefore
*death certificates* that spread like ordinary data and cancel old
copies.  The question is when to discard the certificates themselves:

* **Fixed threshold** — keep every certificate ``tau1`` (e.g. 30 days)
  and then discard it; obsolete copies older than the threshold can be
  resurrected.
* **Dormant certificates** — most sites discard at ``tau1``, but the
  ``r`` retention sites named in the certificate keep a *dormant* copy
  until ``tau1 + tau2``.  A dormant certificate that meets an obsolete
  data item is *reactivated* — its activation timestamp (not its
  ordinary timestamp, so legitimate reinstatements survive) is set to
  the current time and it propagates again, like an antibody.  For
  equal space this extends the protected history by a factor O(n/r).

The :class:`ReplicaStore` implements the mechanics (sweeping,
reactivation-on-apply), and the replica's
:class:`~repro.cluster.site.Site` hands a woken certificate to every
distribution mechanism as its own write; this protocol sweeps every
site each cycle and keeps the bookkeeping the experiments report.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.core.store import StoreUpdate
from repro.protocols.base import Protocol


@dataclasses.dataclass(frozen=True, slots=True)
class CertificatePolicy:
    """Retention thresholds, in cycles.

    ``tau2 = 0`` (with ``retention_count = 0`` at delete time) gives the
    plain fixed-threshold scheme.  ``space_budget_equivalent`` computes
    the paper's equal-space comparison: ``tau2 = (tau - tau1) * n / r``.
    """

    tau1: float
    tau2: float = 0.0

    def __post_init__(self) -> None:
        if self.tau1 <= 0:
            raise ValueError("tau1 must be positive")
        if self.tau2 < 0:
            raise ValueError("tau2 must be non-negative")

    @staticmethod
    def space_budget_equivalent(tau: float, tau1: float, n: int, r: int) -> float:
        """The paper's equal-space ``tau2 = (tau - tau1) n / r``."""
        if tau <= tau1:
            raise ValueError("tau must exceed tau1 for the comparison")
        if r < 1:
            raise ValueError("need at least one retention site")
        return (tau - tau1) * n / r


@dataclasses.dataclass(slots=True)
class CertificateStats:
    expired: int = 0
    made_dormant: int = 0
    discarded_dormant: int = 0
    reactivations: int = 0


class DeathCertificateManager(Protocol):
    """Periodically sweeps certificate tables and counts reactivations."""

    name = "death-certificates"

    def __init__(self, policy: CertificatePolicy):
        super().__init__()
        self.policy = policy
        self.stats = CertificateStats()

    def attach(self, cluster) -> None:
        super().attach(cluster)
        # Let every store reject already-expired incoming certificates
        # (see ReplicaStore.certificate_ttl); without this an expired
        # certificate bounces forever between swept and unswept sites.
        for site_id in cluster.site_ids:
            cluster.sites[site_id].store.certificate_ttl = self.policy.tau1

    def on_site_added(self, site_id: int) -> None:
        self.cluster.sites[site_id].store.certificate_ttl = self.policy.tau1

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        # A certificate whose activation moved past its timestamp is one
        # this site just woke; the site spreads it (Site.absorb).
        entry = update.entry
        if entry.is_deletion and entry.activation_timestamp > entry.timestamp:
            self.stats.reactivations += 1

    def run_cycle(self, cycle: int) -> None:
        for site_id in self.cluster.site_ids:
            site = self.cluster.sites[site_id]
            if not site.up:
                continue
            sweep = site.store.sweep_certificates(self.policy.tau1, self.policy.tau2)
            self.stats.expired += sweep.expired
            self.stats.made_dormant += sweep.made_dormant
            self.stats.discarded_dormant += sweep.discarded_dormant

    def certificate_census(self) -> Dict[str, int]:
        """How many active / dormant certificates exist cluster-wide."""
        active = 0
        dormant = 0
        for site_id in self.cluster.site_ids:
            store = self.cluster.sites[site_id].store
            active += sum(1 for __, entry in store.entries() if entry.is_deletion)
            dormant += store.dormant_count()
        return {"active": active, "dormant": dormant}
