"""Direct mail (Section 1.2).

On every client update the entry site immediately posts the new value
to every other site it knows about:

    FOR EACH s' in S DO PostMail[to: s', msg: ("Update", s.ValueOf)]

Direct mail is timely and reasonably efficient — O(n) messages per
update, each traversing the links between source and destination — but
not reliable: the mail service can drop messages (queue overflow,
unreachable destinations) and the source may have an incomplete view of
the site set ``S``.  Both failure modes are modeled here; the
*incomplete knowledge* failure is expressed by giving each site a
``known_fraction`` of the full membership.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.store import ApplyResult, StoreUpdate
from repro.protocols.base import Protocol
from repro.sim.mailer import Letter, MailSystem


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
        if not 0.0 < known_fraction <= 1.0:
            raise ValueError("known_fraction must be in (0, 1]")
        self._mail: Optional[MailSystem] = None
        self._loss_probability = loss_probability
        self._mailbox_capacity = mailbox_capacity
        self._known_fraction = known_fraction
        # The Clearinghouse's original (and abandoned) "remailing step":
        # redistribute by mail whenever news arrives from elsewhere.
        # Kept as an option so the O(n^2) blow-up can be demonstrated.
        self.remail_on_news = remail_on_news
        self._known: Dict[int, List[int]] = {}

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self._mail = MailSystem(
            cluster.simulator,
            cluster.rng,
            loss_probability=self._loss_probability,
            mailbox_capacity=self._mailbox_capacity,
        )
        self._mail.on_delivery(self._deliver)

    @property
    def mail(self) -> MailSystem:
        if self._mail is None:
            raise RuntimeError("protocol not attached yet")
        return self._mail

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
            self._mail.post(site_id, destination, update)

    def _deliver(self, letter: Letter) -> None:
        site = self.cluster.sites[letter.destination]
        if not site.up or not self.cluster.can_communicate(
            letter.source, letter.destination
        ):
            # An unreachable destination (down, or cut off by a
            # partition): the mail system already paid for the delivery
            # attempt; the update is simply lost here, which is exactly
            # the failure anti-entropy must repair.
            return
        site.deliver(letter.payload, self, letter.source)

    @property
    def active(self) -> bool:
        """Mail still in flight counts as pending work."""
        stats = self.mail.stats
        return stats.posted > stats.delivered + stats.dropped
