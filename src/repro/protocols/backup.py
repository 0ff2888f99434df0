"""Anti-entropy backing up a complex epidemic (Section 1.5).

Rumor mongering can fail: with nonzero probability the rumor dies while
some sites are still susceptible.  Running anti-entropy infrequently on
top guarantees every update eventually reaches every site.  An update
anti-entropy delivers is news at its target like any other, so the
rumor makes it hot there under every strategy.  Beyond that, three
responses to a discovered missing update are modeled:

* ``CONSERVATIVE`` — nothing more: the target's rumor and later
  anti-entropy rounds finish the job;
* ``REDISTRIBUTE_MAIL`` — also remail the update to all sites (the
  original Clearinghouse behavior; O(n^2) messages in the worst case,
  which is why it had to be disabled on the CIN);
* ``HOT_RUMOR`` — also make the update hot at the source, so both
  participants spread it, letting the epidemic finish cheaply (a rumor
  already known nearly everywhere dies out quickly).

Obsolete data that wakes a dormant certificate at the target is not a
missing update: the target's site spreads its certificate instead.

This module composes existing protocols rather than reimplementing
them; it is the programmatic form of the paper's deployment advice.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.store import ApplyResult, StoreUpdate
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import Protocol
from repro.protocols.direct_mail import DirectMailProtocol
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.topology.spatial import PartnerSelector


class RecoveryStrategy(enum.Enum):
    CONSERVATIVE = "conservative"
    REDISTRIBUTE_MAIL = "redistribute-mail"
    HOT_RUMOR = "hot-rumor"


class AntiEntropyBackup(Protocol):
    """Rumor mongering for distribution + periodic anti-entropy backup."""

    name = "rumor+anti-entropy"

    def __init__(
        self,
        rumor_config: RumorConfig = RumorConfig(),
        anti_entropy_period: int = 4,
        recovery: RecoveryStrategy = RecoveryStrategy.HOT_RUMOR,
        selector: Optional[PartnerSelector] = None,
    ):
        super().__init__()
        self.rumor = RumorMongeringProtocol(rumor_config, selector=selector)
        self.anti_entropy = AntiEntropyProtocol(
            selector=selector,
            config=AntiEntropyConfig(
                period=anti_entropy_period,
                offset=anti_entropy_period - 1,
            ),
        )
        self.recovery = recovery
        #: The remailing step's mail; None unless ``REDISTRIBUTE_MAIL``.
        self.mail: Optional[DirectMailProtocol] = (
            DirectMailProtocol() if recovery is RecoveryStrategy.REDISTRIBUTE_MAIL else None
        )
        self.redistributions = 0

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self.rumor.attach(cluster)
        self.anti_entropy.attach(cluster)
        if self.mail is not None:
            self.mail.attach(cluster)
        self.anti_entropy.on_transfer(self._on_anti_entropy_transfer)

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        self.rumor.on_local_update(site_id, update)

    def on_news(self, site_id: int, update: StoreUpdate, result: ApplyResult) -> None:
        self.rumor.on_news(site_id, update, result)

    def on_site_added(self, site_id: int) -> None:
        self.rumor.on_site_added(site_id)
        self.anti_entropy.on_site_added(site_id)
        if self.mail is not None:
            self.mail.on_site_added(site_id)

    def on_site_removed(self, site_id: int) -> None:
        self.rumor.on_site_removed(site_id)
        self.anti_entropy.on_site_removed(site_id)
        if self.mail is not None:
            self.mail.on_site_removed(site_id)

    def run_cycle(self, cycle: int) -> None:
        self.rumor.run_cycle(cycle)
        self.anti_entropy.run_cycle(cycle)

    def _on_anti_entropy_transfer(
        self, source: int, target: int, update: StoreUpdate, result: ApplyResult
    ) -> None:
        """Anti-entropy discovered a site missing an update."""
        if not result.was_news or result is ApplyResult.RESURRECTION_BLOCKED:
            return
        self.redistributions += 1
        if self.recovery is RecoveryStrategy.CONSERVATIVE:
            return
        if self.recovery is RecoveryStrategy.HOT_RUMOR:
            # The target's news is hot already; make it hot at the
            # source too: it evidently lives in a poorly-covered
            # neighborhood.
            self.rumor.make_hot(source, update)
            return
        if self.recovery is RecoveryStrategy.REDISTRIBUTE_MAIL:
            self.mail.on_local_update(source, update)

    @property
    def active(self) -> bool:
        """Pending work: hot rumors, in-flight mail, or global disagreement.

        Anti-entropy alone never quiesces (it runs forever), so we treat
        the composite as active until the replicas have converged.
        """
        if self.rumor.active:
            return True
        if self.mail is not None and self.mail.active:
            return True
        return not self.cluster.converged()
