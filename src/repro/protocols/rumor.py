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

**Who owns what.**  As :mod:`repro.protocols.exchange` does for
anti-entropy, this module writes each conversation once, as pure
endpoints exchanging :class:`~repro.protocols.exchange.Frame` objects
(docs/live_runtime.md lists them): the initiator :func:`converse`, the
responder :func:`respond`, and one :class:`HotList` per site, whose
:meth:`~HotList.settle` ends a cycle.  :class:`RumorMongeringProtocol`
drives them in process, ``repro.net.node.GossipNode`` over TCP.

:class:`RumorMongeringProtocol` is the *reference* engine.  For uniform
partner selection the batched core (:func:`repro.sim.batch.rumor_trial`)
runs the same design space over flat arrays, bit-for-bit identical —
any change to the cycle semantics here must be mirrored there, and the
golden tests in ``tests/test_batch_engine.py`` will catch a divergence.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from itertools import compress
from operator import attrgetter, not_
from typing import Callable, Dict, Generator, Hashable, List, Optional, Tuple

from repro.core.items import Entry
from repro.core.store import ApplyResult, StoreUpdate, UpdateList
from repro.protocols.base import ExchangeMode, GossipProtocol, entry_beats
from repro.protocols.exchange import ExchangeError, Frame, _expect
from repro.sim.transport import ConnectionPolicy, UNLIMITED
from repro.topology.spatial import PartnerSelector

_WAS_NEWS = attrgetter("was_news")


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


@dataclasses.dataclass(slots=True)
class _CycleEvents:
    """Feedback gathered for one (site, rumor) during one cycle."""

    useful: int = 0
    useless: int = 0
    # Minimization: counters of partners that also knew the rumor.
    partner_counters: List[int] = dataclasses.field(default_factory=list)

    def note(self, useful: bool) -> None:
        if useful:
            self.useful += 1
        else:
            self.useless += 1


class HotList(dict):
    """One site's hot rumors, key → :class:`_Rumor`, and its cycle.

    :meth:`begin` snapshots the list as ``served`` — ``(key, entry,
    counter)`` rows, what the cycle's pulls are answered from and what
    :meth:`settle` ends it on — and ``contacts`` gathers, by key, what
    those rumors meet until then.  ``on_hot`` (optional) is called with
    each key a rumor is installed or refreshed for.
    """

    __slots__ = ("on_hot", "served", "contacts")

    def __init__(self, on_hot: Optional[Callable[[Hashable], None]] = None):
        super().__init__()
        self.on_hot = on_hot
        self.served: List[Tuple[Hashable, Entry, int]] = []
        self.contacts: Dict[Hashable, _CycleEvents] = {}

    def make_hot(self, key: Hashable, entry: Entry) -> None:
        """Install (or refresh) the rumor for ``key`` unless the one held
        is at least as new."""
        held = self.get(key)
        if held is not None and not entry_beats(entry, held.entry):
            return
        self[key] = _Rumor(entry)
        if self.on_hot is not None:
            self.on_hot(key)

    def begin(self) -> None:
        """Start a cycle from the list as it stands."""
        self.served = [(key, rumor.entry, rumor.counter) for key, rumor in self.items()]

    def settle(self, config: RumorConfig, rng) -> List[Tuple[Hashable, _Rumor]]:
        """End the cycle: ``config``'s interest-loss rule for every
        served rumor still hot (not deactivated or superseded meanwhile),
        given what it met; coin flips draw from ``rng``.  Removes the
        rumors that lost interest and returns them, final counters kept."""
        contacts, self.contacts = self.contacts, {}
        dead = []
        for key, entry, __ in self.served:
            rumor = self.get(key)
            if rumor is None or (
                rumor.entry is not entry and rumor.entry.timestamp != entry.timestamp
            ):
                continue
            if _loses_interest(config, rumor, contacts.get(key), rng):
                del self[key]
                dead.append((key, rumor))
        return dead


def _infect(hot: HotList, updates: UpdateList, results: List[ApplyResult]) -> List[bool]:
    """News makes the receiver infective too; returns the was-news flags."""
    news = list(map(_WAS_NEWS, results))
    for key, entry in zip(compress(updates.keys, news), compress(updates.entries, news)):
        hot.make_hot(key, entry)
    return news


def _column(fields: Dict, name: str, count: int, types: set) -> list:
    column = fields.get(name)
    if type(column) is not list or len(column) != count or not types.issuperset(map(type, column)):
        raise ExchangeError(f"bad {name} {column!r}: expected {count} items")
    return column


def converse(config: RumorConfig, hot: HotList, absorb) -> Generator[Frame, Frame, int]:
    """The initiator's end of one conversation, from the rumors ``hot``
    serves this cycle.  ``absorb`` merges a received :class:`UpdateList`
    and returns one :class:`ApplyResult` per update; what each delivery
    meant to its receiver goes to ``hot.contacts`` once the reply
    carrying it has been checked whole.  Returns the number pushed."""
    mode, mine, contacts = config.mode, hot.served, hot.contacts
    pushed = UpdateList()
    if mode.pushes:
        pushed = UpdateList([key for key, __, __ in mine], [entry for __, entry, __ in mine])
    request: Dict = {"updates": pushed} if mode.pushes else {}
    if mode.pulls:
        request = {"mode": mode.value, **request}
        if config.minimization:
            request["counters"] = [counter for __, __, counter in mine]
    reply = yield Frame("rumor", request)
    _expect(reply, "rumor" if mode.pulls else "ack")
    fields = reply.fields
    news = _column(fields, "news", len(pushed), {bool}) if mode.pushes else []
    joint = [None] * len(pushed)
    if config.minimization:
        joint = _column(fields, "counters", len(pushed), {int, type(None)})
    pulled = UpdateList.of(fields.get("updates", ()) if mode.pulls else ())
    for key, useful, theirs in zip(pushed.keys, news, joint):
        event = contacts.setdefault(key, _CycleEvents())
        if theirs is None:
            event.note(useful)
        else:
            event.partner_counters.append(theirs)  # both knew it: minimization
    if pulled:
        feedback = _infect(hot, pulled, absorb(pulled))
        _expect((yield Frame("rumor", {"news": feedback, "keys": list(pulled.keys)})), "ack")
    return len(pushed)


def respond(hot: HotList, request: Frame, absorb) -> Frame:
    """The responder: answer one rumor frame from the rumors ``hot``
    serves this cycle.  ``absorb`` as for :func:`converse`; the feedback
    a pull sends back goes to ``hot.contacts``.  Every field is validated
    before anything is applied (:class:`ExchangeError` otherwise)."""
    kind, fields = request
    served, contacts = hot.served, hot.contacts
    if kind != "rumor":
        raise ExchangeError(f"expected a rumor request, got {kind}")
    if "news" in fields:
        # Feedback on a batch a pull took from here; a rumor no longer
        # served (a new cycle began since) has nothing to learn from it.
        keys = fields.get("keys")
        news = _column(fields, "news", len(keys) if type(keys) is list else -1, {bool})
        mine = {key for key, __, __ in served}
        for key, useful in zip(keys, news):
            if key in mine:
                contacts.setdefault(key, _CycleEvents()).note(useful)
        return Frame("ack", {})
    try:
        mode = ExchangeMode(fields["mode"]) if "mode" in fields else ExchangeMode.PUSH
    except ValueError:
        raise ExchangeError(f"bad rumor mode {fields.get('mode')!r}") from None
    offered = UpdateList.of(fields.get("updates", ()))
    if offered and not mode.pushes:
        raise ExchangeError("a pull request carries no updates")
    minimization = "counters" in fields
    joint = [False] * len(offered)
    if minimization:
        if mode is not ExchangeMode.PUSH_PULL:
            raise ExchangeError("counters travel only in push-pull")
        theirs = _column(fields, "counters", len(offered), {int})
        # A rumor both sides hold at the same timestamp is neither
        # shipped nor applied: each side records the other's counter.
        held = {key: (entry, counter) for key, entry, counter in served}
        joint = [
            mine is not None and mine[0].timestamp == entry.timestamp
            for mine, entry in zip(map(held.get, offered.keys), offered.entries)
        ]
        for key, counter in zip(compress(offered.keys, joint), compress(theirs, joint)):
            contacts.setdefault(key, _CycleEvents()).partner_counters.append(counter)
    fresh = list(map(not_, joint))
    applied = UpdateList(
        list(compress(offered.keys, fresh)), list(compress(offered.entries, fresh))
    )
    was_news = iter(_infect(hot, applied, absorb(applied)))
    news = [not shared and next(was_news) for shared in joint]
    if not mode.pulls:
        return Frame("ack", {"news": news})
    skip = set(compress(offered.keys, joint))
    back = [(key, entry) for key, entry, __ in served if key not in skip]
    reply: Dict = {
        "updates": UpdateList([key for key, __ in back], [entry for __, entry in back])
    }
    if mode.pushes:
        reply["news"] = news
    if minimization:
        reply["counters"] = [
            held[key][1] if shared else None for key, shared in zip(offered.keys, joint)
        ]
    return Frame("rumor", reply)


def _loses_interest(
    config: RumorConfig, rumor: _Rumor, event: Optional[_CycleEvents], rng
) -> bool:
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


@dataclasses.dataclass(slots=True)
class RumorStats:
    conversations: int = 0
    updates_sent: int = 0
    useful_sends: int = 0
    deactivations: int = 0
    rejected: int = 0


class RumorMongeringProtocol(GossipProtocol):
    """The in-process driver: one cycle is every initiator's
    conversation over the start-of-cycle snapshots, then every up site's
    :meth:`HotList.settle`."""

    name = "rumor-mongering"

    def __init__(
        self,
        config: RumorConfig = RumorConfig(),
        selector: Optional[PartnerSelector] = None,
    ):
        super().__init__(selector, config.policy)
        self.config = config
        self.stats = RumorStats()
        self._hot: Dict[int, HotList] = {}

    def attach(self, cluster) -> None:
        super().attach(cluster)
        self._hot = {site_id: HotList() for site_id in cluster.site_ids}

    def on_site_added(self, site_id: int) -> None:
        self._hot[site_id] = HotList()
        super().on_site_added(site_id)

    def on_site_removed(self, site_id: int) -> None:
        self._hot.pop(site_id, None)
        super().on_site_removed(site_id)

    # ------------------------------------------------------------------
    # Hot-rumor bookkeeping
    # ------------------------------------------------------------------

    def make_hot(self, site_id: int, update: StoreUpdate) -> None:
        """Install (or refresh) a hot rumor at a site."""
        self._hot[site_id].make_hot(update.key, update.entry)

    def hot_list(self, site_id: int) -> HotList:
        """The site's hot list itself; :meth:`hot_rumors` is a copy."""
        return self._hot[site_id]

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
        # Start-of-cycle snapshots: who is infective with what.
        up = cluster.up_site_ids()
        for site_id in up:
            self._hot[site_id].begin()
        # Push: the infective sites talk; pull and push-pull: every up site.
        initiators = up if config.mode.pulls else [s for s in up if self._hot[s].served]
        self.stats.conversations += self.pair_up(initiators, self._talk)
        for site_id in up:
            dead = self._hot[site_id].settle(config, cluster.sites[site_id].rng)
            self.stats.deactivations += len(dead)

    def _talk(self, site_id: int, partner_id: int) -> None:
        """The in-process driver: each frame handed over as it is."""
        hot = self._hot
        conversation = converse(self.config, hot[site_id], self._absorber(site_id, partner_id))
        answer = partial(respond, hot[partner_id], absorb=self._absorber(partner_id, site_id))
        try:
            request = next(conversation)
            while True:
                request = conversation.send(answer(request))
        except StopIteration:
            pass

    def _absorber(self, target: int, source: int):
        """Deliveries from ``source`` merged at ``target``, counted as
        update sends (useful or not) on the way."""
        cluster = self.cluster
        site = cluster.sites[target]

        def absorb(updates: UpdateList) -> List[ApplyResult]:
            cluster.count_update_sends(source, target, len(updates))
            results = site.store.apply_updates(updates)
            site.absorb(updates, results, source, via=self)
            useful = sum(map(_WAS_NEWS, results))
            cluster.count_useful_update_send(source, target, useful)
            self.stats.updates_sent += len(results)
            self.stats.useful_sends += useful
            return results

        return absorb
