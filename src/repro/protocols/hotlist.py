"""Peel back combined with rumor mongering (end of Section 1.5).

Each site keeps its database keys in a *local activity order* (a
doubly-linked list, front = hottest) instead of the timestamp index
peel back needs.  An exchange proceeds in batches: the two sites
compare checksums; while they disagree, each sends the next batch of
updates from the front of its list.  Updates that proved useful to the
partner move to the front of the sender's list (they are effectively
hot rumors); useless ones slip deeper.  New local updates and received
news enter at the front.

The paper's claims, which the tests verify:

* better than peel back alone — no timestamp index, and it behaves
  well when a partition heals (the missed updates are re-learned and
  immediately become hot at the frontier sites);
* better than rumor mongering alone — there is no failure probability:
  any update can become hot again, and checksum agreement is the
  termination condition, so an exchange never ends with the pair
  disagreeing.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.core.activity import ActivityOrder
from repro.core.store import ApplyResult, StoreUpdate
from repro.protocols.base import GossipProtocol
from repro.sim.transport import ConnectionPolicy, UNLIMITED
from repro.topology.spatial import PartnerSelector


@dataclasses.dataclass(slots=True)
class HotListStats:
    exchanges: int = 0
    checksum_rounds: int = 0
    batches_sent: int = 0
    updates_shipped: int = 0
    useful_updates: int = 0
    rejected: int = 0


class HotListProtocol(GossipProtocol):
    """Anti-entropy by activity-ordered batches ("peel back + rumors")."""

    name = "hot-list"

    def __init__(
        self,
        batch_size: int = 4,
        selector: Optional[PartnerSelector] = None,
        policy: ConnectionPolicy = UNLIMITED,
        max_batches_per_exchange: Optional[int] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        super().__init__(selector, policy)
        self.batch_size = batch_size
        # Bounding batches per exchange turns the scheme into an
        # incremental one: the pair may stay unequal after one cycle
        # but convergence still follows over subsequent cycles.
        self.max_batches_per_exchange = max_batches_per_exchange
        self.stats = HotListStats()
        self._orders: Dict[int, ActivityOrder] = {}

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self._orders = {site_id: ActivityOrder() for site_id in cluster.site_ids}
        # Seed the activity orders with whatever the stores already hold.
        for site_id in cluster.site_ids:
            self._seed_order(site_id)

    def _seed_order(self, site_id: int) -> None:
        order = self._orders[site_id]
        for update in self.cluster.sites[site_id].store.updates_newest_first():
            order.touch(update.key)

    def on_site_added(self, site_id: int) -> None:
        self._orders[site_id] = ActivityOrder()
        self._seed_order(site_id)
        super().on_site_added(site_id)

    def on_site_removed(self, site_id: int) -> None:
        self._orders.pop(site_id, None)
        super().on_site_removed(site_id)

    def order_of(self, site_id: int) -> ActivityOrder:
        return self._orders[site_id]

    # ------------------------------------------------------------------

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        self._orders[site_id].touch(update.key)

    def on_news(self, site_id: int, update: StoreUpdate, result: ApplyResult) -> None:
        self._orders[site_id].touch(update.key)

    @property
    def active(self) -> bool:
        """The scheme is a steady-state repair mechanism; like plain
        anti-entropy it never reports pending work of its own."""
        return False

    # ------------------------------------------------------------------

    def run_cycle(self, cycle: int) -> None:
        self.stats.exchanges += self.pair_up(self.cluster.up_site_ids(), self._exchange)

    def _exchange(self, site_id: int, partner_id: int) -> None:
        cluster = self.cluster
        store_a = cluster.sites[site_id].store
        store_b = cluster.sites[partner_id].store
        self.stats.checksum_rounds += 1
        if store_a.checksum == store_b.checksum:
            return
        # Walk a *snapshot* of each activity order: touches and
        # demotions made during the exchange reorder future exchanges,
        # not this one, so the walk provably covers every key either
        # store held when the conversation began.
        plan_a = list(self._orders[site_id].keys_front_to_back())
        plan_b = list(self._orders[partner_id].keys_front_to_back())
        useless_a: list = []
        useless_b: list = []
        position = 0
        batches = 0
        try:
            while store_a.checksum != store_b.checksum:
                if (
                    self.max_batches_per_exchange is not None
                    and batches >= self.max_batches_per_exchange
                ):
                    return  # incremental mode: finish in later cycles
                sent_a = self._send_batch(site_id, partner_id, plan_a, position, useless_a)
                sent_b = self._send_batch(partner_id, site_id, plan_b, position, useless_b)
                position += self.batch_size
                batches += 1
                self.stats.checksum_rounds += 1
                if sent_a == 0 and sent_b == 0 and position >= max(len(plan_a), len(plan_b)):
                    # Both plans exhausted: every entry has crossed the
                    # wire, so the stores must agree now.
                    if store_a.checksum != store_b.checksum:  # pragma: no cover
                        raise AssertionError(
                            "hot-list exchange exhausted both lists without agreement"
                        )
                    return
        finally:
            # Useless keys slip behind the keys this exchange never
            # reached, so repeated short (incremental) exchanges rotate
            # through the whole list instead of re-offering the same
            # cold prefix forever.
            shipped = position
            for key in useless_a:
                self._orders[site_id].demote(key, positions=shipped + 1)
            for key in useless_b:
                self._orders[partner_id].demote(key, positions=shipped + 1)

    def _send_batch(
        self, source: int, target: int, plan, position: int, useless: list
    ) -> int:
        """Ship one batch of ``plan`` (a key-order snapshot) from
        ``source``; returns the number of updates sent.  Keys that
        taught the partner nothing are appended to ``useless`` for the
        end-of-exchange demotion."""
        cluster = self.cluster
        order = self._orders[source]
        store = cluster.sites[source].store
        keys = plan[position:position + self.batch_size]
        if not keys:
            return 0
        self.stats.batches_sent += 1
        sent = 0
        for key in keys:
            entry = store.entry(key)
            if entry is None:
                order.discard(key)
                continue
            update = StoreUpdate(key=key, entry=entry)
            cluster.count_update_sends(source, target, 1)
            self.stats.updates_shipped += 1
            sent += 1
            result = cluster.sites[target].deliver(update, self, source)
            if result.was_news:
                # Useful: hot at both ends, like a rumor.
                cluster.count_useful_update_send(source, target, 1)
                self.stats.useful_updates += 1
                order.touch(key)
                self._orders[target].touch(key)
            else:
                # Already known (or the partner holds something newer,
                # which will flow back in its own batches): cold.
                useless.append(key)
        return sent
