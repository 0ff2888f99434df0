"""The protocol interface and shared helpers."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.core.items import DeathCertificate, Entry
from repro.core.store import ApplyResult, StoreUpdate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster


class ExchangeMode(enum.Enum):
    """Who ships data in a conversation (Section 1.3's three
    ResolveDifference designs; reused for rumor mongering)."""

    PUSH = "push"
    PULL = "pull"
    PUSH_PULL = "push-pull"

    @property
    def pushes(self) -> bool:
        return self in (ExchangeMode.PUSH, ExchangeMode.PUSH_PULL)

    @property
    def pulls(self) -> bool:
        return self in (ExchangeMode.PULL, ExchangeMode.PUSH_PULL)


class Protocol:
    """Base class: a distribution mechanism attached to a cluster.

    Lifecycle: :meth:`attach` is called once; :meth:`run_cycle` every
    cycle; :meth:`on_local_update` when a client writes at some site;
    :meth:`on_news` when *another* protocol delivered news to a site
    (so mechanisms can be composed, e.g. mail + anti-entropy backup).
    """

    name = "protocol"

    def __init__(self) -> None:
        self.cluster: Optional["Cluster"] = None

    def attach(self, cluster: "Cluster") -> None:
        if self.cluster is not None:
            raise RuntimeError(f"{self.name} is already attached to a cluster")
        self.cluster = cluster

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        """A client injected ``update`` at ``site_id``, or obsolete data
        woke the dormant certificate ``update`` there (Section 2)."""

    def on_news(self, site_id: int, update: StoreUpdate, result: ApplyResult) -> None:
        """Another protocol delivered ``update`` to ``site_id``."""

    def on_site_added(self, site_id: int) -> None:
        """A new site joined the replica set (dynamic membership)."""

    def on_site_removed(self, site_id: int) -> None:
        """A site left the replica set permanently."""

    def run_cycle(self, cycle: int) -> None:
        """Execute this protocol's per-cycle step."""

    @property
    def active(self) -> bool:
        """True while the protocol still has pending distribution work.

        Callers wait for quiescence with
        ``cluster.run_until(lambda: not protocol.active)``.  Steady-state
        mechanisms that never finish (plain anti-entropy) return False
        so they do not block it.
        """
        return False


# Imported below Protocol, not at the top: importing repro.sim (directly
# or through repro.topology) runs sim/faults.py, which imports Protocol.
from repro.sim.transport import ConnectionLedger, ConnectionPolicy, UNLIMITED  # noqa: E402
from repro.topology.spatial import PartnerSelector, UniformSelector  # noqa: E402


class GossipProtocol(Protocol):
    """A pairwise epidemic: every cycle each initiator draws an up
    partner and, if one accepts, holds one conversation with it.

    Owns what anti-entropy, rumor mongering and the hot-list scheme
    share: the partner ``selector`` (uniform by default; a rebuildable
    one follows the membership, a topology-bound one keeps its tables),
    the :class:`ConnectionLedger` enforcing Section 1.4's connection
    limit and hunting, and :meth:`pair_up`, the one loop that draws,
    counts refusals and times both phases — the in-process counterpart
    of ``GossipNode._hunt``.  Subclasses keep a ``stats`` object with a
    ``rejected`` counter.
    """

    def __init__(
        self,
        selector: Optional[PartnerSelector] = None,
        policy: ConnectionPolicy = UNLIMITED,
    ):
        super().__init__()
        self._selector = selector
        self.ledger = ConnectionLedger(policy)

    def attach(self, cluster: "Cluster") -> None:
        super().attach(cluster)
        if self._selector is None:
            self._selector = UniformSelector(cluster.site_ids)

    def on_site_added(self, site_id: int) -> None:
        self._selector.rebuild(self.cluster.site_ids)

    def on_site_removed(self, site_id: int) -> None:
        self._selector.rebuild(self.cluster.site_ids)

    @property
    def selector(self) -> PartnerSelector:
        if self._selector is None:
            raise RuntimeError("protocol not attached yet")
        return self._selector

    def _choose_up_partner(self, site_id: int) -> Optional[int]:
        """One partner draw; down partners count as failed attempts."""
        partner = self._selector.choose(site_id, self.cluster.sites[site_id].rng)
        if partner is None or not self.cluster.can_communicate(site_id, partner):
            return None
        return partner

    def pair_up(self, initiators: Iterable[int], talk: Callable[[int, int], None]) -> int:
        """One cycle's conversations: each initiator hunts for a partner
        under the ledger and, if one accepts, ``talk(site, partner)``
        runs.  Returns the number of conversations held."""
        cluster = self.cluster
        ledger = self.ledger
        phase = cluster.profiler.phase
        ledger.reset()
        held = 0
        for site_id in initiators:
            with phase("partner-selection"):
                partner_id = ledger.connect_with_hunting(self._choose_up_partner, site_id)
            if partner_id is None:
                self.stats.rejected += 1
                cluster.count_rejection()
                continue
            cluster.count_comparison(site_id, partner_id)
            held += 1
            with phase("exchange"):
                talk(site_id, partner_id)
        return held


def entry_beats(challenger: Entry | None, incumbent: Entry | None) -> bool:
    """Would shipping ``challenger`` teach a site holding ``incumbent``
    anything?

    Ordinary last-writer-wins on the timestamp, plus the Section 2.2
    subtlety: two copies of the same death certificate compare on the
    *activation* timestamp so that reactivations keep propagating.
    """
    if challenger is None:
        return False
    if incumbent is None:
        return True
    if challenger.timestamp != incumbent.timestamp:
        return challenger.timestamp > incumbent.timestamp
    if isinstance(challenger, DeathCertificate) and isinstance(incumbent, DeathCertificate):
        return challenger.activation_timestamp > incumbent.activation_timestamp
    return False
