"""Anti-entropy exchange strategies (Section 1.3).

``ResolveDifference`` as written in the paper compares two complete
database copies, one of which crosses the network — far too expensive
to run often.  Section 1.3 develops three successively cheaper
strategies, all implemented here against live :class:`ReplicaStore`
objects:

* :class:`FullCompare` — the naive exchange: ship every entry the
  other side lacks, examining the whole key union;
* :class:`ChecksumWithRecent` — exchange *recent update lists* (entries
  younger than ``tau``), then compare checksums, and only fall back to
  a full comparison when the checksums still disagree;
* :class:`PeelBack` — exchange updates in reverse timestamp order,
  incrementally recomputing checksums, until the checksums agree;
  requires the store's inverted timestamp index.
* :class:`HierarchicalChecksum` — compare checksum-tree roots, walk
  down only the differing subtrees, and run the full comparison
  bucket-by-bucket over just the dirty hash buckets; cost scales with
  the *difference* between the stores, not their size.

Every strategy leaves the two stores in agreement (for push-pull) and
reports how much data had to cross the wire, which is what Tables 4 and
5 distinguish as *compare traffic* vs *update traffic*.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Tuple

from repro.core.store import ApplyResult, ReplicaStore, StoreUpdate
from repro.protocols.base import ExchangeMode, entry_beats


@dataclasses.dataclass(slots=True)
class ExchangeReport:
    """What one anti-entropy conversation cost and changed.

    ``checksum_rounds`` counts whole-database checksum comparisons;
    ``tree_comparisons`` counts checksum-tree node comparisons during a
    hierarchical drill-down; ``buckets_resolved`` counts the dirty
    buckets whose contents were exchanged.  ``full_compare`` is true
    when any phase of the conversation fell back to comparing the
    complete databases.
    """

    sent_ab: List[StoreUpdate] = dataclasses.field(default_factory=list)
    sent_ba: List[StoreUpdate] = dataclasses.field(default_factory=list)
    entries_examined: int = 0
    checksum_rounds: int = 0
    tree_comparisons: int = 0
    buckets_resolved: int = 0
    full_compare: bool = False

    @property
    def updates_shipped(self) -> int:
        return len(self.sent_ab) + len(self.sent_ba)

    @property
    def changed(self) -> bool:
        return bool(self.sent_ab or self.sent_ba)

    def merge(self, other: "ExchangeReport") -> "ExchangeReport":
        """Fold a sub-conversation's report into this one.

        Every strategy that chains phases (checksum-then-full,
        tree-then-fallback) must aggregate through here so the
        counters keep one consistent meaning: costs add, shipped lists
        concatenate, and ``full_compare`` is sticky — if any phase paid
        for a full comparison the conversation did.
        """
        self.sent_ab.extend(other.sent_ab)
        self.sent_ba.extend(other.sent_ba)
        self.entries_examined += other.entries_examined
        self.checksum_rounds += other.checksum_rounds
        self.tree_comparisons += other.tree_comparisons
        self.buckets_resolved += other.buckets_resolved
        self.full_compare = self.full_compare or other.full_compare
        return self


@dataclasses.dataclass(slots=True)
class SessionReply:
    """The responder's half of one full-compare conversation.

    ``applied_results`` is parallel to ``applied``: the
    :class:`ApplyResult` each applied update produced, so callers can
    attribute deliveries (e.g. delivery spans) without re-deriving the
    merge outcome.
    """

    applied: List[StoreUpdate] = dataclasses.field(default_factory=list)
    send_back: List[StoreUpdate] = dataclasses.field(default_factory=list)
    entries_examined: int = 0
    applied_results: List[ApplyResult] = dataclasses.field(default_factory=list)


class ExchangeSession:
    """One endpoint of an anti-entropy conversation, transport-agnostic.

    The paper's ResolveDifference is a conversation between two sites;
    this class is the difference-resolution logic of *one* side, with the
    transport left to the caller.  The in-process simulator
    (:func:`resolve_difference`) and the live TCP runtime
    (``repro.net.node``) drive the same session objects, so the
    last-writer-wins / death-certificate merge rules exist in exactly one
    place:

        initiator                                   responder
        ---------                                   ---------
        offer() ———————— full entry table ————————> respond(offered)
        absorb(updates) <——— reply.send_back ———————————┘

    ``mode`` governs which halves carry data: the responder applies the
    offer only when the mode pushes, and returns entries the initiator
    lacks only when the mode pulls.
    """

    def __init__(
        self, store: ReplicaStore, mode: ExchangeMode = ExchangeMode.PUSH_PULL
    ):
        self.store = store
        self.mode = mode

    def offer(self) -> List[StoreUpdate]:
        """The initiator's opening message: its full active table.

        Even a pull-only exchange sends the table — the responder needs
        it as a digest to know which of its entries are newer (this is
        exactly the "one full copy crosses the network" cost Section 1.3's
        cheaper strategies exist to avoid).

        Entries go out in store order, which is deterministic under the
        simulator's seeded execution; the merge below is per-key, so no
        sort is needed.
        """
        return [
            StoreUpdate(key=key, entry=entry) for key, entry in self.store.entries()
        ]

    def respond(
        self,
        offered: Iterable[StoreUpdate],
        scope: Iterable[Tuple[object, object]] | None = None,
    ) -> SessionReply:
        """Resolve the initiator's offer against the local store.

        Single pass over the offer plus one over the local-only keys,
        probing the store directly instead of materializing both tables
        and sorting their key union.  Mutations are deferred until every
        decision is made, so each key is judged against the
        pre-exchange state of the store exactly as before.

        ``scope`` restricts the local-only pass to the given
        ``(key, entry)`` pairs instead of the whole table.  A
        hierarchical exchange resolves one hash bucket at a time, so the
        responder must only send back entries from *that* bucket — the
        rest of the store is out of the conversation's scope.  The scope
        iterable is consumed before any mutation is applied.
        """
        store = self.store
        pushes = self.mode.pushes
        pulls = self.mode.pulls
        reply = SessionReply()
        offered_keys = set()
        to_apply: List[StoreUpdate] = []
        examined = 0
        # Bound-method hoists: this loop runs once per offered entry in
        # every conversation (perfbench's session_us_per_entry).
        probe = store.entry
        note_offered = offered_keys.add
        for update in offered:
            key = update.key
            note_offered(key)
            local = probe(key)
            examined += 1
            if pushes and entry_beats(update.entry, local):
                to_apply.append(update)
            elif pulls and entry_beats(local, update.entry):
                reply.send_back.append(StoreUpdate(key=key, entry=local))
        local_entries = store.entries() if scope is None else scope
        for key, entry in local_entries:
            if key in offered_keys:
                continue
            examined += 1
            if pulls:
                reply.send_back.append(StoreUpdate(key=key, entry=entry))
        reply.entries_examined = examined
        reply.applied = to_apply
        reply.applied_results = store.apply_updates(to_apply)
        return reply

    def absorb(self, updates: Iterable[StoreUpdate]) -> List[StoreUpdate]:
        """Apply the responder's reply at the initiator; returns the news."""
        updates = list(updates)
        results = self.store.apply_updates(updates)
        return [update for update, result in zip(updates, results) if result.was_news]


def resolve_difference(
    a: ReplicaStore, b: ReplicaStore, mode: ExchangeMode = ExchangeMode.PUSH_PULL
) -> ExchangeReport:
    """The paper's basic ResolveDifference over full database copies.

    push: entries where ``a`` is newer overwrite ``b``;
    pull: entries where ``b`` is newer overwrite ``a``;
    push-pull: both.

    Implemented as an in-process drive of two :class:`ExchangeSession`
    endpoints — the very objects the live TCP runtime runs over sockets.
    """
    initiator = ExchangeSession(a, mode)
    responder = ExchangeSession(b, mode)
    reply = responder.respond(initiator.offer())
    report = ExchangeReport(full_compare=True)
    report.entries_examined = reply.entries_examined
    report.sent_ab = reply.applied
    report.sent_ba = initiator.absorb(reply.send_back)
    return report


class ExchangeStrategy:
    """Interface: perform one anti-entropy conversation between stores."""

    def exchange(
        self, a: ReplicaStore, b: ReplicaStore, mode: ExchangeMode
    ) -> ExchangeReport:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class FullCompare(ExchangeStrategy):
    """Always compare the complete databases."""

    def exchange(self, a: ReplicaStore, b: ReplicaStore, mode: ExchangeMode) -> ExchangeReport:
        return resolve_difference(a, b, mode)

    def describe(self) -> str:
        return "full-compare"


class ChecksumWithRecent(ExchangeStrategy):
    """Recent-update lists first, then checksums, then full compare.

    ``tau`` must exceed the expected update-distribution time or the
    checksum comparison will usually fail and traffic rises to slightly
    above plain anti-entropy (the paper is explicit about this failure
    mode; the tests demonstrate it).
    """

    def __init__(self, tau: float):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau

    def exchange(self, a: ReplicaStore, b: ReplicaStore, mode: ExchangeMode) -> ExchangeReport:
        report = ExchangeReport()
        # Phase 1: exchange recent update lists (bounded by the number
        # of updates in the last tau, not the database size).
        recent_a = a.recent_updates(self.tau) if mode.pushes else []
        recent_b = b.recent_updates(self.tau) if mode.pulls else []
        report.entries_examined += len(recent_a) + len(recent_b)
        for update in recent_a:
            if b.apply_update(update).was_news:
                report.sent_ab.append(update)
        for update in recent_b:
            if a.apply_update(update).was_news:
                report.sent_ba.append(update)
        # Phase 2: compare checksums.
        report.checksum_rounds = 1
        if a.checksum == b.checksum:
            return report
        # Phase 3: checksums disagree -> full database comparison.  The
        # fallback's report is folded in via merge() so every counter —
        # not just the ones this strategy happened to touch — stays
        # consistent with what the conversation actually cost.
        return report.merge(resolve_difference(a, b, mode))

    def describe(self) -> str:
        return f"checksum+recent(tau={self.tau:g})"


class PeelBack(ExchangeStrategy):
    """Exchange updates in reverse timestamp order until checksums agree.

    Nearly ideal for network traffic: if the stores differ only in their
    most recent updates, only those cross the wire.  The cost is the
    inverted timestamp index each store must maintain (the paper's
    stated reservation about the scheme).

    Only meaningful for push-pull: agreement of full database checksums
    requires data to flow both ways.
    """

    def exchange(self, a: ReplicaStore, b: ReplicaStore, mode: ExchangeMode) -> ExchangeReport:
        if mode is not ExchangeMode.PUSH_PULL:
            raise ValueError("peel back requires push-pull exchanges")
        report = ExchangeReport()
        report.checksum_rounds = 1
        if a.checksum == b.checksum:
            return report
        # Merge the two newest-first streams; after shipping each batch
        # of equal-timestamp updates, re-compare checksums.  Batching
        # matters when both sides hold the same update (shared history):
        # shipping A's copy and re-comparing before B's copy has gone
        # the other way would find the checksums *still* unequal and
        # charge a useless round.  One round per distinct timestamp is
        # the granularity the docstring promises.
        stream_a = a.updates_newest_first()
        stream_b = b.updates_newest_first()
        pending_a = next(stream_a, None)
        pending_b = next(stream_b, None)
        while pending_a is not None or pending_b is not None:
            batch_ts = max(
                ts
                for ts in (
                    pending_a.timestamp if pending_a is not None else None,
                    pending_b.timestamp if pending_b is not None else None,
                )
                if ts is not None
            )
            while pending_a is not None and pending_a.timestamp == batch_ts:
                update, pending_a = pending_a, next(stream_a, None)
                report.entries_examined += 1
                if b.apply_update(update).was_news:
                    report.sent_ab.append(update)
            while pending_b is not None and pending_b.timestamp == batch_ts:
                update, pending_b = pending_b, next(stream_b, None)
                report.entries_examined += 1
                if a.apply_update(update).was_news:
                    report.sent_ba.append(update)
            report.checksum_rounds += 1
            if a.checksum == b.checksum:
                return report
        # Streams exhausted: both sides have seen everything, so the
        # stores must now agree.
        if a.checksum != b.checksum:  # pragma: no cover - invariant
            raise AssertionError("peel back exhausted both stores without agreement")
        return report

    def describe(self) -> str:
        return "peel-back"


class HierarchicalChecksum(ExchangeStrategy):
    """Drill down a checksum tree and exchange only differing buckets.

    Both stores maintain a Merkle-style tree over their hash buckets
    (``ReplicaStore.checksum_tree``) whose root equals the classic
    whole-database checksum.  The exchange compares roots, recurses into
    subtrees whose checksums differ, and then runs the ordinary
    session-based comparison restricted to each dirty bucket.  When the
    stores differ in a fraction ``d`` of buckets, the conversation
    examines ``O(d · B · bucket_size)`` entries plus ``O(d · B · log B)``
    tree-node comparisons — independent of the total database size for
    small differences, which is what makes anti-entropy affordable on
    million-key stores.

    Only meaningful for push-pull: pruning a subtree on checksum
    equality requires both sides' contributions to be present in the
    compared values, and a one-way exchange cannot certify that.

    If the peers disagree on bucket count their trees do not line up
    node-for-node; the exchange falls back to a full comparison rather
    than guessing at a mapping.
    """

    def exchange(self, a: ReplicaStore, b: ReplicaStore, mode: ExchangeMode) -> ExchangeReport:
        if mode is not ExchangeMode.PUSH_PULL:
            raise ValueError("hierarchical checksum requires push-pull exchanges")
        report = ExchangeReport()
        report.checksum_rounds = 1
        if a.checksum == b.checksum:
            return report
        if a.bucket_count != b.bucket_count:
            return report.merge(resolve_difference(a, b, mode))
        dirty, comparisons = a.checksum_tree.diff_buckets(b.checksum_tree)
        report.tree_comparisons = comparisons
        initiator = ExchangeSession(a, mode)
        responder = ExchangeSession(b, mode)
        send_back: List[StoreUpdate] = []
        for bucket in dirty:
            offered = [
                StoreUpdate(key=key, entry=entry)
                for key, entry in a.bucket_entries(bucket)
            ]
            reply = responder.respond(offered, scope=b.bucket_entries(bucket))
            report.entries_examined += reply.entries_examined
            report.sent_ab.extend(reply.applied)
            send_back.extend(reply.send_back)
            report.buckets_resolved += 1
        # One reply for the whole conversation, as on the wire: buckets
        # are disjoint, and a bucket read flushes the store's pending
        # writes, so absorbing between reads would fold ``a`` per bucket.
        report.sent_ba = initiator.absorb(send_back)
        return report

    def describe(self) -> str:
        return "hierarchical-checksum"


def strategy_for(name: str, tau: float = 100.0) -> ExchangeStrategy:
    """Factory: ``"full"``, ``"checksum"``, ``"peelback"`` or ``"hierarchical"``."""
    if name == "full":
        return FullCompare()
    if name == "checksum":
        return ChecksumWithRecent(tau)
    if name == "peelback":
        return PeelBack()
    if name == "hierarchical":
        return HierarchicalChecksum()
    raise ValueError(f"unknown exchange strategy {name!r}")
