"""Acknowledgment-based death-certificate GC — the Sarin & Lynch
baseline the paper argues against (Section 2).

"One strategy is to retain each death certificate until it can be
determined that every site has received it" [Sa].  This module
implements a gossiped version of that determination: every site keeps,
per certificate, the set of sites known to hold it; ack-sets merge
whenever two sites gossip; a certificate may be discarded once its
ack-set covers the whole membership.

It works — and it exhibits exactly the failings the paper names:

* per-certificate per-site state is O(n) (the paper: "a detailed data
  structure at each server of size O(n^2) describing all other
  servers");
* a single site that is down "for hours or even days" blocks the
  determination, so certificates pile up until it returns — whereas
  the dormant-certificate scheme's storage stays bounded regardless
  (compare in ``benchmarks/test_ack_gc.py``).

The implementation gossips ack-sets over its own random pairings each
cycle (an abstraction of piggybacking them on anti-entropy traffic).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Optional, Set

from repro.core.store import ApplyResult, StoreUpdate
from repro.core.timestamps import Timestamp
from repro.protocols.base import GossipProtocol
from repro.topology.spatial import PartnerSelector

CertId = tuple  # (key, ordinary timestamp) uniquely names a certificate


@dataclasses.dataclass(slots=True)
class AckGcStats:
    gossips: int = 0
    ack_entries_sent: int = 0     # the O(n) metadata cost, in site-ids
    discarded: int = 0


class AckBasedCertificateGC(GossipProtocol):
    """Discard a certificate once every site is known to hold it.

    Only the selector and the partner draw are shared: the ack-set
    gossip is not connection-limited and counts no comparisons."""

    name = "ack-gc"

    def __init__(self, selector: Optional[PartnerSelector] = None):
        super().__init__(selector)
        # acks[site][cert] = set of sites known (by `site`) to hold cert
        self._acks: Dict[int, Dict[CertId, Set[int]]] = {}
        # Certificates a site has already determined complete and
        # purged: re-deliveries are rejected on sight.  (Note the
        # irony the paper would appreciate: the determination itself
        # needs a tombstone so the tombstone can be deleted.)
        self._completed: Dict[int, Set[CertId]] = {}
        self.stats = AckGcStats()

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self._acks = {site_id: {} for site_id in cluster.site_ids}
        self._completed = {site_id: set() for site_id in cluster.site_ids}
        # Account for certificates already present.
        for site_id in cluster.site_ids:
            for key, entry in cluster.sites[site_id].store.entries():
                if entry.is_deletion:
                    self._note_holder(site_id, (key, entry.timestamp), site_id)

    def on_site_added(self, site_id: int) -> None:
        self._acks[site_id] = {}
        self._completed[site_id] = set()
        super().on_site_added(site_id)

    def on_site_removed(self, site_id: int) -> None:
        self._acks.pop(site_id, None)
        self._completed.pop(site_id, None)
        super().on_site_removed(site_id)

    # ------------------------------------------------------------------

    def _note_holder(self, observer: int, cert_id: CertId, holder: int) -> None:
        table = self._acks[observer]
        holders = table.get(cert_id)
        if holders is None:
            holders = set()
            table[cert_id] = holders
        holders.add(holder)

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        if update.entry.is_deletion:
            self._note_holder(site_id, (update.key, update.timestamp), site_id)

    def on_news(self, site_id: int, update: StoreUpdate, result: ApplyResult) -> None:
        if not (update.entry.is_deletion and result.was_news):
            return
        cert_id = (update.key, update.timestamp)
        if cert_id in self._completed[site_id]:
            # Already determined complete here: reject the re-delivery.
            self.cluster.sites[site_id].store.purge(update.key)
            return
        self._note_holder(site_id, cert_id, site_id)

    # ------------------------------------------------------------------

    def run_cycle(self, cycle: int) -> None:
        cluster = self.cluster
        membership = set(cluster.site_ids)
        # Gossip ack-sets pairwise.
        for site_id in cluster.up_site_ids():
            partner = self._choose_up_partner(site_id)
            if partner is not None:
                self._merge_acks(site_id, partner)
        # Discard fully-acknowledged certificates.
        for site_id in cluster.site_ids:
            site = cluster.sites[site_id]
            if not site.up:
                continue
            table = self._acks[site_id]
            completed = self._completed[site_id]
            for key, entry in list(site.store.entries()):
                if not entry.is_deletion:
                    continue
                cert_id = (key, entry.timestamp)
                holders = table.get(cert_id, set())
                if membership <= holders or cert_id in completed:
                    site.store.purge(key)
                    table.pop(cert_id, None)
                    if cert_id not in completed:
                        completed.add(cert_id)
                        self.stats.discarded += 1

    def _merge_acks(self, a: int, b: int) -> None:
        self.stats.gossips += 1
        table_a = self._acks[a]
        table_b = self._acks[b]
        # The completion determination itself must spread, or the
        # knowledge dies with the ack tables of sites that already
        # purged (leaving stragglers waiting forever).
        completed_union = self._completed[a] | self._completed[b]
        self._completed[a] = set(completed_union)
        self._completed[b] = set(completed_union)
        for cert_id in set(table_a) | set(table_b):
            if cert_id in completed_union:
                table_a.pop(cert_id, None)
                table_b.pop(cert_id, None)
                continue
            holders_a = table_a.get(cert_id, set())
            holders_b = table_b.get(cert_id, set())
            merged = holders_a | holders_b
            self.stats.ack_entries_sent += len(holders_a) + len(holders_b)
            if merged:
                table_a[cert_id] = set(merged)
                table_b[cert_id] = set(merged)

    # ------------------------------------------------------------------

    def certificates_held(self) -> int:
        """Total active certificates across all sites (storage metric)."""
        return sum(
            1
            for site_id in self.cluster.site_ids
            for __, entry in self.cluster.sites[site_id].store.entries()
            if entry.is_deletion
        )

    def metadata_size(self) -> int:
        """Total ack-set entries held cluster-wide — the O(n^2) cost."""
        return sum(
            len(holders)
            for table in self._acks.values()
            for holders in table.values()
        )

    def is_blocked_on(self, cert_key: Hashable, timestamp: Timestamp) -> Set[int]:
        """Sites whose acknowledgment is still missing somewhere."""
        membership = set(self.cluster.site_ids)
        missing: Set[int] = set()
        for table in self._acks.values():
            holders = table.get((cert_key, timestamp))
            if holders is not None:
                missing |= membership - holders
        return missing
