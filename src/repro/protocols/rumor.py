"""Rumor mongering — complex epidemics (Section 1.4).

With respect to one update a site is *susceptible* (has not seen it),
*infective* (knows it and is actively sharing it as a **hot rumor**) or
*removed* (knows it but has stopped spreading it).  An infective site
periodically picks a partner and shares its hot-rumor list; sites lose
interest in a rumor after unnecessary contacts.  The design space the
paper explores, all implemented here:

* **Blind vs Feedback** — lose interest with probability 1/k per cycle
  regardless of the recipient (*blind*), or only on contacts where the
  recipient already knew the rumor (*feedback*);
* **Counter vs Coin** — lose interest after ``k`` unnecessary contacts
  (*counter*) or with probability ``1/k`` per unnecessary contact
  (*coin*); blind+counter means "stay infective exactly k cycles";
* **Push vs Pull vs Push-pull** — infective sites push rumors, or every
  site pulls from its partner (Table 3's footnote gives the pull
  counter semantics: per cycle, if *any* recipient needed the update
  the counter resets, if all did not one is added), or both at once;
* **Connection limit & hunting** — a site accepts at most ``c``
  conversations per cycle; rejected initiators may hunt for another
  partner (Section 1.4 observes a limit of 1 *helps* push and hurts
  pull);
* **Minimization** — push-pull exchanges carry the counters, and when
  both parties already knew the update only the one with the smaller
  counter increments (ties increment both).

All decisions within one cycle are based on start-of-cycle state, so a
site infected during a cycle starts spreading in the next — matching
the synchronous model underlying the paper's analysis.

This class is the *reference* engine.  For uniform partner selection
the batched core (:func:`repro.sim.batch.rumor_trial`) runs the same
design space over flat arrays, bit-for-bit identical — any change to
the cycle semantics here must be mirrored there, and the golden tests
in ``tests/test_batch_engine.py`` will catch a divergence.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.items import Entry
from repro.core.store import ApplyResult, StoreUpdate
from repro.protocols.base import ExchangeMode, Protocol, entry_beats
from repro.sim.transport import ConnectionLedger, ConnectionPolicy, UNLIMITED
from repro.topology.spatial import PartnerSelector, UniformSelector


@dataclasses.dataclass(frozen=True, slots=True)
class RumorConfig:
    """One point in the paper's complex-epidemic design space."""

    mode: ExchangeMode = ExchangeMode.PUSH
    feedback: bool = True
    counter: bool = True
    k: int = 1
    # Pull's footnote semantics: a useful contact resets the counter.
    # ``None`` = automatic (True for pull, False otherwise).
    reset_on_success: Optional[bool] = None
    minimization: bool = False
    policy: ConnectionPolicy = UNLIMITED

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.minimization:
            if self.mode is not ExchangeMode.PUSH_PULL:
                raise ValueError("minimization requires push-pull")
            if not (self.counter and self.feedback):
                raise ValueError("minimization requires feedback counters")

    @property
    def resets_on_success(self) -> bool:
        if self.reset_on_success is not None:
            return self.reset_on_success
        return self.mode is ExchangeMode.PULL

    def describe(self) -> str:
        parts = [
            self.mode.value,
            "feedback" if self.feedback else "blind",
            f"counter(k={self.k})" if self.counter else f"coin(k={self.k})",
        ]
        if self.minimization:
            parts.append("minimization")
        if not self.policy.unlimited:
            parts.append(
                f"conn<={self.policy.connection_limit},hunt={self.policy.hunt_limit}"
            )
        return ", ".join(parts)


@dataclasses.dataclass(slots=True)
class _Rumor:
    """Per-site state for one hot rumor."""

    entry: Entry
    counter: int = 0
    born_cycle: int = 0


@dataclasses.dataclass(slots=True)
class _CycleEvents:
    """Feedback gathered for one (site, rumor) during one cycle."""

    useful: int = 0
    useless: int = 0
    # Minimization: counters of partners that also knew the rumor.
    partner_counters: List[int] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(slots=True)
class RumorStats:
    conversations: int = 0
    updates_sent: int = 0
    useful_sends: int = 0
    deactivations: int = 0
    rejected: int = 0


class RumorMongeringProtocol(Protocol):
    name = "rumor-mongering"

    def __init__(
        self,
        config: RumorConfig = RumorConfig(),
        selector: Optional[PartnerSelector] = None,
    ):
        super().__init__()
        self.config = config
        self._selector = selector
        self.ledger = ConnectionLedger(config.policy)
        self.stats = RumorStats()
        self._hot: Dict[int, Dict[Hashable, _Rumor]] = {}

    def attach(self, cluster) -> None:
        super().attach(cluster)
        if self._selector is None:
            self._selector = UniformSelector(cluster.site_ids)
        self._hot = {site_id: {} for site_id in cluster.site_ids}

    def _refresh_selector(self) -> None:
        # Rebuildable selectors (uniform, auto or explicit) follow the
        # membership; topology-bound selectors keep their tables.
        if self._selector is not None:
            self._selector.rebuild(self.cluster.site_ids)

    def on_site_added(self, site_id: int) -> None:
        self._hot[site_id] = {}
        self._refresh_selector()

    def on_site_removed(self, site_id: int) -> None:
        self._hot.pop(site_id, None)
        self._refresh_selector()

    @property
    def selector(self) -> PartnerSelector:
        if self._selector is None:
            raise RuntimeError("protocol not attached yet")
        return self._selector

    # ------------------------------------------------------------------
    # Hot-rumor bookkeeping
    # ------------------------------------------------------------------

    def make_hot(self, site_id: int, update: StoreUpdate) -> None:
        """Install (or refresh) a hot rumor at a site."""
        rumors = self._hot[site_id]
        existing = rumors.get(update.key)
        if existing is not None and not entry_beats(update.entry, existing.entry):
            return
        rumors[update.key] = _Rumor(
            entry=update.entry, counter=0, born_cycle=self.cluster.cycle
        )

    def is_infective(self, site_id: int, key: Hashable | None = None) -> bool:
        rumors = self._hot.get(site_id, {})
        if key is None:
            return bool(rumors)
        return key in rumors

    def infective_count(self, key: Hashable | None = None) -> int:
        return sum(1 for s in self._hot if self.is_infective(s, key))

    def hot_rumors(self, site_id: int) -> Dict[Hashable, _Rumor]:
        return dict(self._hot.get(site_id, {}))

    @property
    def active(self) -> bool:
        return any(self._hot[s] for s in self._hot)

    def on_local_update(self, site_id: int, update: StoreUpdate) -> None:
        self.make_hot(site_id, update)

    def on_news(self, site_id: int, update: StoreUpdate, result: ApplyResult) -> None:
        """News delivered by another mechanism (mail, anti-entropy
        redistribution) becomes a hot rumor here as well."""
        self.make_hot(site_id, update)

    # ------------------------------------------------------------------
    # The per-cycle step
    # ------------------------------------------------------------------

    def run_cycle(self, cycle: int) -> None:
        cluster = self.cluster
        config = self.config
        self.ledger.reset()
        # Start-of-cycle snapshot: who is infective with what.
        snapshot: Dict[int, List[Tuple[Hashable, Entry, int]]] = {}
        for site_id in cluster.site_ids:
            if not cluster.sites[site_id].up:
                continue
            rumors = self._hot[site_id]
            if rumors:
                snapshot[site_id] = [
                    (key, rumor.entry, rumor.counter) for key, rumor in rumors.items()
                ]
        events: Dict[Tuple[int, Hashable], _CycleEvents] = {}

        if config.mode is ExchangeMode.PUSH:
            initiators = list(snapshot.keys())
        else:
            # pull and push-pull: every up site solicits each cycle.
            initiators = [s for s in cluster.site_ids if cluster.sites[s].up]

        for site_id in initiators:
            partner_id = self.ledger.connect_with_hunting(
                self._choose_up_partner, site_id
            )
            if partner_id is None:
                self.stats.rejected += 1
                cluster.count_rejection()
                continue
            self._converse(site_id, partner_id, snapshot, events)

        self._settle_cycle(snapshot, events)

    def _choose_up_partner(self, site_id: int):
        partner = self.selector.choose(site_id, self.cluster.sites[site_id].rng)
        if partner is None or not self.cluster.can_communicate(site_id, partner):
            return None
        return partner

    # ------------------------------------------------------------------

    def _converse(
        self,
        site_id: int,
        partner_id: int,
        snapshot: Dict[int, List[Tuple[Hashable, Entry, int]]],
        events: Dict[Tuple[int, Hashable], _CycleEvents],
    ) -> None:
        cluster = self.cluster
        mode = self.config.mode
        cluster.count_comparison(site_id, partner_id)
        self.stats.conversations += 1
        mine = snapshot.get(site_id, [])
        theirs = snapshot.get(partner_id, [])
        their_keys = {key: (entry, counter) for key, entry, counter in theirs}

        if mode.pushes:
            for key, entry, counter in mine:
                other = their_keys.get(key)
                if (
                    self.config.minimization
                    and other is not None
                    and other[0].timestamp == entry.timestamp
                ):
                    # Both parties hold the same hot rumor: the
                    # minimization rule replaces plain feedback.  Each
                    # side records the other's counter; no data moves.
                    _event(events, site_id, key).partner_counters.append(other[1])
                    _event(events, partner_id, key).partner_counters.append(counter)
                    continue
                self._ship(site_id, partner_id, key, entry, events)
        if mode.pulls:
            for key, entry, counter in theirs:
                if self.config.minimization:
                    other = next(
                        ((e, c) for k, e, c in mine if k == key), None
                    )
                    if other is not None and other[0].timestamp == entry.timestamp:
                        continue  # already handled in the push direction
                self._ship(partner_id, site_id, key, entry, events)

    def _ship(
        self,
        source: int,
        target: int,
        key: Hashable,
        entry: Entry,
        events: Dict[Tuple[int, Hashable], _CycleEvents],
    ) -> None:
        """Transmit one rumor and record feedback for the source."""
        cluster = self.cluster
        update = StoreUpdate(key=key, entry=entry)
        cluster.count_update_sends(source, target, 1)
        self.stats.updates_sent += 1
        result = cluster.apply_at(target, update, via=self, source=source)
        if result.was_news:
            self.stats.useful_sends += 1
            cluster.count_useful_update_send(source, target, 1)
            self.make_hot(target, update)
            _event(events, source, key).useful += 1
        else:
            _event(events, source, key).useless += 1

    # ------------------------------------------------------------------
    # End-of-cycle interest-loss decisions
    # ------------------------------------------------------------------

    def _settle_cycle(
        self,
        snapshot: Dict[int, List[Tuple[Hashable, Entry, int]]],
        events: Dict[Tuple[int, Hashable], _CycleEvents],
    ) -> None:
        for site_id, rumor_list in snapshot.items():
            rng = self.cluster.sites[site_id].rng
            for key, entry, __ in rumor_list:
                rumor = self._hot[site_id].get(key)
                if rumor is None or rumor.entry.timestamp != entry.timestamp:
                    continue  # deactivated or superseded during the cycle
                event = events.get((site_id, key))
                if self._loses_interest(rumor, event, rng):
                    del self._hot[site_id][key]
                    self.stats.deactivations += 1

    def _loses_interest(
        self, rumor: _Rumor, event: Optional[_CycleEvents], rng
    ) -> bool:
        config = self.config
        if not config.feedback:
            # Blind: independent of any recipient feedback.
            if config.counter:
                rumor.counter += 1
                return rumor.counter >= config.k
            return rng.random() < 1.0 / config.k

        # Feedback variants need contact outcomes.
        if event is None:
            return False  # no conversation touched this rumor this cycle
        if config.minimization and event.partner_counters:
            # Increment only when our counter is <= every partner's that
            # also knew the rumor (ties increment both sides).
            if all(rumor.counter <= c for c in event.partner_counters):
                rumor.counter += 1
            return rumor.counter >= config.k
        if config.counter:
            if event.useful and config.resets_on_success:
                rumor.counter = 0
                return False
            if event.useful:
                return False
            if event.useless:
                # Per-cycle aggregation (the Table 3 footnote): all
                # contacts unnecessary -> one increment.
                rumor.counter += 1
                return rumor.counter >= config.k
            return False
        # Coin: flip once per unnecessary contact.
        for __ in range(event.useless):
            if rng.random() < 1.0 / config.k:
                return True
        return False


def _event(
    events: Dict[Tuple[int, Hashable], _CycleEvents], site_id: int, key: Hashable
) -> _CycleEvents:
    event = events.get((site_id, key))
    if event is None:
        event = _CycleEvents()
        events[(site_id, key)] = event
    return event
