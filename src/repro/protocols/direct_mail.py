"""Direct mail (Section 1.2).

On every client update the entry site immediately posts the new value
to every other site it knows about:

    FOR EACH s' in S DO PostMail[to: s', msg: ("Update", s.ValueOf)]

Direct mail is timely and reasonably efficient — O(n) messages per
update, each traversing the links between source and destination — but
not reliable.  ``PostMail`` "is expected to be nearly, but not
completely, reliable": it queues messages so senders are not delayed,
yet a message may still be discarded.  This protocol is that mail
service too, with the paper's failure modes:

* each letter is lost in transit with probability ``loss_probability``
  (**unreachable destination / transport loss**), drawn at post time;
* each destination queues at most ``mailbox_capacity`` letters in
  flight; a letter posted to a full queue is dropped (**overflow**),
  and each delivery frees its slot;
* the source may have an incomplete view of the site set ``S``: each
  site knows a ``known_fraction`` of the full membership.

A letter is delivered at the top of the next cycle
(:meth:`Cluster.at_next_cycle`), letters in posting order.  One that
finds its destination down, partitioned off or gone counts as
delivered and its update is lost — the failure anti-entropy must
repair.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.store import ApplyResult, StoreUpdate
from repro.protocols.base import Protocol


@dataclasses.dataclass(slots=True)
class MailStats:
    posted: int = 0
    delivered: int = 0
    dropped_overflow: int = 0
    dropped_loss: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_overflow + self.dropped_loss

    @property
    def delivery_ratio(self) -> float:
        if self.posted == 0:
            return 1.0
        return self.delivered / self.posted


class DirectMailProtocol(Protocol):
    """Mail every update to all (known) other sites as it happens."""

    name = "direct-mail"

    def __init__(
        self,
        loss_probability: float = 0.0,
        mailbox_capacity: Optional[int] = None,
        known_fraction: float = 1.0,
        remail_on_news: bool = False,
    ):
        super().__init__()
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if not 0.0 < known_fraction <= 1.0:
            raise ValueError("known_fraction must be in (0, 1]")
        self._loss_probability = loss_probability
        self._mailbox_capacity = mailbox_capacity
        self._known_fraction = known_fraction
        # The Clearinghouse's original (and abandoned) "remailing step":
        # redistribute by mail whenever news arrives from elsewhere.
        # Kept as an option so the O(n^2) blow-up can be demonstrated.
        self.remail_on_news = remail_on_news
        self._known: Dict[int, List[int]] = {}
        self.stats = MailStats()
        # destination -> letters posted to it and not yet delivered
        self._in_flight: Dict[int, int] = {}
        self._rng = None

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self._rng = cluster.rng.stream("mail")

    def _known_sites(self, site_id: int) -> List[int]:
        """The subset of S that ``site_id`` knows about (itself excluded).

        With ``known_fraction < 1`` each site has a fixed random sample
        of the membership, modeling stale site lists.
        """
        known = self._known.get(site_id)
        if known is None:
            cluster = self.cluster
            others = [s for s in cluster.site_ids if s != site_id]
            if self._known_fraction < 1.0:
                rng = cluster.rng.stream("directmail-known", site_id)
                count = max(1, round(len(others) * self._known_fraction))
                known = sorted(rng.sample(others, count))
            else:
                known = others
            self._known[site_id] = known
        return known

    def on_site_added(self, site_id: int) -> None:
        self._known.clear()   # every site's membership view changed

    def on_site_removed(self, site_id: int) -> None:
        self._known.clear()

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        self._post_to_all(site_id, update)

    def on_news(self, site_id: int, update: StoreUpdate, result: ApplyResult) -> None:
        if self.remail_on_news:
            self._post_to_all(site_id, update)

    def _post_to_all(self, site_id: int, update: StoreUpdate) -> None:
        for destination in self._known_sites(site_id):
            self.cluster.count_update_sends(site_id, destination)
            self._post(site_id, destination, update)

    def _post(self, source: int, destination: int, update: StoreUpdate) -> None:
        """Queue a letter for the next cycle (the sender is never delayed)."""
        stats = self.stats
        stats.posted += 1
        if self._rng.random() < self._loss_probability:
            stats.dropped_loss += 1
            return
        in_flight = self._in_flight.get(destination, 0)
        if self._mailbox_capacity is not None and in_flight >= self._mailbox_capacity:
            stats.dropped_overflow += 1
            return
        self._in_flight[destination] = in_flight + 1
        self.cluster.at_next_cycle(lambda: self._deliver(source, destination, update))

    def _deliver(self, source: int, destination: int, update: StoreUpdate) -> None:
        self._in_flight[destination] -= 1
        self.stats.delivered += 1
        # Down, cut off by a partition, or no longer a participant: the
        # delivery attempt is paid for and the update is simply lost.
        if self.cluster.can_communicate(source, destination):
            self.cluster.sites[destination].deliver(update, self, source)

    @property
    def active(self) -> bool:
        """Mail still in flight counts as pending work."""
        stats = self.stats
        return stats.posted > stats.delivered + stats.dropped
