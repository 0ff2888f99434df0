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

**Who owns what.**  This module owns each strategy's whole conversation,
written once as two pure endpoints that exchange :class:`Frame` objects
— the live runtime's frame types and field names carrying Python
values, never bytes.  The *initiator* (``strategy.converse(store,
mode)``) is a generator: it yields a request, is resumed with the
reply, applies what that carries, and returns the
:class:`ExchangeReport` once settled.  The *responder*
(:func:`respond`) maps one request to one reply plus what it applied,
validating every field before it applies anything.  A *driver* only
moves frames: :func:`drive` hands each request object to the responder
on the other store, ``repro.net.node.GossipNode`` carries them over
TCP; nothing here imports the network runtime.  :class:`PeelBack` has
no wire form and stays an in-process loop.
"""

from __future__ import annotations

import dataclasses
from itertools import chain, compress, filterfalse
from operator import attrgetter
from typing import (
    Any, Callable, Dict, Generator, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.core.checksum import ChecksumTree
from repro.core.store import ABSENT, ApplyResult, ReplicaStore, StoreUpdate, UpdateList
from repro.protocols.base import ExchangeMode, entry_beats

Conversation = Generator["Frame", "Frame", "ExchangeReport"]

_WAS_NEWS = attrgetter("was_news")


@dataclasses.dataclass(slots=True)
class ExchangeReport:
    """What one anti-entropy conversation cost and changed.

    ``sent_ab``/``sent_ba`` are the updates that were *news* at the
    responder / the initiator, as :class:`UpdateList` columns filed
    straight from what was merged; ``results_ab``/``results_ba`` what the
    receiving store made of each (parallel lists: a value that woke a
    dormant death certificate is news too, but not ``APPLIED``);
    ``wire_ab``/``wire_ba`` count every entry
    an update list carried that way, news or not (a pull-only offer is a
    digest, never applied, and not counted).  ``checksum_rounds`` counts
    whole-database checksum comparisons; ``tree_comparisons`` counts
    checksum-tree node comparisons as :meth:`ChecksumTree.diff_buckets`
    does (the root once it differs, then two per differing internal
    node); ``buckets_resolved`` counts the dirty buckets whose contents
    were exchanged.  ``full_compare`` is true when any phase fell back
    to comparing the complete databases, and ``via`` names the route:
    ``full``, ``checksum``, ``checksum+full``, ``tree`` or ``tree+full``.
    The initiator builds the report; :func:`drive` folds in what only
    the responder knows (``sent_ab``, its share of ``entries_examined``).
    """

    sent_ab: UpdateList = dataclasses.field(default_factory=UpdateList)
    sent_ba: UpdateList = dataclasses.field(default_factory=UpdateList)
    entries_examined: int = 0
    checksum_rounds: int = 0
    tree_comparisons: int = 0
    buckets_resolved: int = 0
    full_compare: bool = False
    wire_ab: int = 0
    wire_ba: int = 0
    via: str = "full"
    results_ab: List[ApplyResult] = dataclasses.field(default_factory=list)
    results_ba: List[ApplyResult] = dataclasses.field(default_factory=list)

    @property
    def updates_shipped(self) -> int:
        return len(self.sent_ab) + len(self.sent_ba)

    @property
    def changed(self) -> bool:
        return bool(self.sent_ab or self.sent_ba)

    def merge(self, other: "ExchangeReport") -> "ExchangeReport":
        """Fold another view of the same conversation into this one (in
        :func:`drive`, the responder's): costs add, shipped lists
        concatenate, ``full_compare`` is sticky, ``via`` stays."""
        self.sent_ab.extend(other.sent_ab.keys, other.sent_ab.entries)
        self.sent_ba.extend(other.sent_ba.keys, other.sent_ba.entries)
        self.results_ab.extend(other.results_ab)
        self.results_ba.extend(other.results_ba)
        self.wire_ab += other.wire_ab
        self.wire_ba += other.wire_ba
        self.entries_examined += other.entries_examined
        self.checksum_rounds += other.checksum_rounds
        self.tree_comparisons += other.tree_comparisons
        self.buckets_resolved += other.buckets_resolved
        self.full_compare = self.full_compare or other.full_compare
        return self


@dataclasses.dataclass(slots=True)
class SessionReply:
    """The responder's half of one full-compare conversation.

    ``applied`` and ``send_back`` are columns; ``applied_results`` is
    parallel to ``applied``: the :class:`ApplyResult` each applied update
    produced, so callers can attribute deliveries (e.g. delivery spans)
    without re-deriving the merge outcome.
    """

    applied: UpdateList
    send_back: UpdateList
    entries_examined: int
    applied_results: List[ApplyResult]


class ExchangeSession:
    """One side of a ResolveDifference round, transport-agnostic.

    The paper's ResolveDifference is a conversation between two sites;
    this class is the difference-resolution logic of *one* side — what
    the endpoints below run for the round every strategy ends in, so the
    last-writer-wins / death-certificate merge rules exist in exactly one
    place:

        initiator                                   responder
        ---------                                   ---------
        offer() ———————— full entry table ————————> respond(offered)
        apply_updates(send_back) <—— reply.send_back ———┘

    ``mode`` governs which halves carry data: the responder applies the
    offer only when the mode pushes, and returns entries the initiator
    lacks only when the mode pulls.
    """

    def __init__(
        self, store: ReplicaStore, mode: ExchangeMode = ExchangeMode.PUSH_PULL
    ):
        self.store = store
        self.mode = mode

    def offer(self) -> UpdateList:
        """The initiator's opening message: its full active table.

        Even a pull-only exchange sends the table — the responder needs
        it as a digest to know which of its entries are newer (this is
        exactly the "one full copy crosses the network" cost Section 1.3's
        cheaper strategies exist to avoid).

        The offer is a snapshot taken now (one dict copy; the entries
        themselves are immutable and shared), in store order, which is
        deterministic under the simulator's seeded execution; the merge
        below is per-key, so no sort is needed.  Its key column is the
        snapshot dict itself, which iterates as its keys and, when the
        responder scans for local-only keys, is its membership test (a
        keys view's ``__contains__`` is a slot wrapper, 1.7× dearer per
        call); its entry column is the dict's ``values()`` view.
        """
        table = self.store.snapshot()
        return UpdateList(table, table.values())

    def respond(
        self,
        offered: Iterable[StoreUpdate],
        scope: Iterable[Hashable] | None = None,
    ) -> SessionReply:
        """Resolve the initiator's offer against the local store.

        ``offered`` is an :class:`UpdateList` — a table offer, columns
        decoded from a wire — or a list of rows, and is read column by
        column.  First the offer is settled (:meth:`UpdateList.settle`):
        a row that neither beats nor is beaten by the entry held here is
        dropped unjudged — in process, an offered entry that *is* the
        held object (stores share the immutable entries they ship); off a
        wire, a row whose raw timestamp equals the held one's, found by a
        column comparison before any entry is built.  Only the rows left
        are built and meet the last-writer-wins / death-certificate
        judgement, each against the pre-exchange state of the store:
        mutations are deferred until every decision is made.  A last pass
        serves the local entries the offer does not name, unless the key
        counts rule one out: the offer names each key once and the store
        holds exactly the offered keys it was not found to miss.  Every
        offered row still counts as examined: the table was compared,
        only faster.  What is applied holds the offer's own entry
        objects; what is sent back, the local ones.

        ``scope`` restricts the local-only pass to the given keys instead
        of the whole table.  A hierarchical exchange resolves only the
        dirty hash buckets, so the responder must only send back entries
        from *those* buckets — the rest of the store is out of the
        conversation's scope.  The scope iterable is consumed before any
        mutation is applied.
        """
        store = self.store
        pushes = self.mode.pushes
        pulls = self.mode.pulls
        offer = UpdateList.of(offered)
        keys = offer.keys
        # A table offer's key column is its snapshot dict: the membership
        # test already.
        named = keys if isinstance(keys, dict) else set(keys)
        judged, held, unsettled = offer.settle(store)
        applied_keys, applied_entries, back_keys, back_entries = [], [], [], []
        missing = 0
        for key, entry, local in zip(judged, offer.entries_where(unsettled), held):
            if local is ABSENT:
                local = None
                missing += 1
            if pushes and entry_beats(entry, local):
                applied_keys.append(key)
                applied_entries.append(entry)
            elif pulls and entry_beats(local, entry):
                back_keys.append(key)
                back_entries.append(local)
        if scope is None and len(named) == len(keys) and len(store) == len(keys) - missing:
            # Every offered key is distinct, and as many are held here as
            # the store holds: no local key is left unnamed.
            local_only = []
        else:
            local_keys = store.keys() if scope is None else scope
            local_only = list(filterfalse(named.__contains__, local_keys))
        if pulls:
            back_keys += local_only
            back_entries += store.entries_for(local_only)
        applied = UpdateList(applied_keys, applied_entries)
        return SessionReply(
            applied=applied,
            send_back=UpdateList(back_keys, back_entries),
            entries_examined=len(keys) + len(local_only),
            applied_results=store.apply_updates(applied),
        )


class ExchangeError(ValueError):
    """A frame a conversation cannot proceed on — a request the responder
    refuses (bad mode or ``tau``, bucket or tree node out of range), a reply
    the initiator did not ask for — raised before any of it is applied."""


class Frame(NamedTuple):
    """One message of a conversation: the live runtime's frame types and
    payload field names, with Python values (``updates`` an
    :class:`UpdateList` or a list of :class:`StoreUpdate` rows,
    ``nodes``/``frontier`` lists of ``(node_id, checksum)`` pairs,
    ``dirty``/``buckets`` lists of ints)."""

    kind: str
    fields: Dict[str, Any]


class Applied:
    """What a responder merged: ``updates`` as columns and ``results``
    parallel to them.  Iterates as ``(update, result)`` pairs, which
    builds the rows; a driver that only counts reads the columns."""

    __slots__ = ("updates", "results")

    def __init__(self, updates: UpdateList, results: List[ApplyResult]):
        self.updates = updates
        self.results = results

    def __iter__(self) -> Iterator[Tuple[StoreUpdate, ApplyResult]]:
        return zip(self.updates, self.results)


def _expect(reply: Frame, kind: str) -> None:
    error = reply.fields.get("error")
    if reply.kind != kind or error is not None:
        detail = "" if error is None else f": {error}"
        raise ExchangeError(f"expected {kind} reply, got {reply.kind}{detail}")


def _file_news(
    sent: UpdateList,
    filed: List[ApplyResult],
    updates: UpdateList,
    results: List[ApplyResult],
) -> None:
    """File the news among ``updates`` (``results`` parallel) on one
    direction of a report, column by column."""
    news = list(map(_WAS_NEWS, results))
    sent.extend(compress(updates.keys, news), compress(updates.entries, news))
    filed.extend(compress(results, news))


def _take(report: ExchangeReport, reply: Frame, absorb: Callable) -> None:
    """Merge the update list a reply carries at the initiator."""
    updates = UpdateList.of(reply.fields.get("updates", ()))
    report.wire_ba += len(updates)
    _file_news(report.sent_ba, report.results_ba, updates, absorb(updates))


def _offer(
    store: ReplicaStore, mode: ExchangeMode, absorb: Callable, report: ExchangeReport, buckets=None
) -> Conversation:
    """The ResolveDifference round every strategy ends in, added to its
    ``report``: offer the table — or, after a drill-down, only
    ``buckets`` — and merge what the partner sends back."""
    fields: Dict[str, Any] = {"mode": mode.value}
    if buckets is None:
        fields["updates"] = ExchangeSession(store, mode).offer()
        report.full_compare = True
    else:
        keys = list(chain.from_iterable(map(store.bucket_keys, buckets)))
        fields["updates"] = UpdateList(keys, store.entries_for(keys))
        fields["buckets"] = buckets
        fields["bits"] = store.bucket_bits
        report.buckets_resolved = len(buckets)
    reply = yield Frame("push" if mode.pushes else "pull-request", fields)
    if mode.pushes:
        report.wire_ab += len(fields["updates"])
    if mode.pulls:
        _expect(reply, "pull-reply")
        _take(report, reply, absorb)
    else:
        _expect(reply, "ack")
    return report


def _compare(tree: ChecksumTree, nodes: List[Tuple[int, int]]):
    """:meth:`ChecksumTree.compare`, refusing a node id out of range."""
    try:
        return tree.compare(nodes)
    except ValueError as error:
        raise ExchangeError(str(error)) from None


def respond(store: ReplicaStore, request: Frame, tau: Optional[float] = None):
    """The responder: answer one request against ``store``.

    Returns ``(reply, applied, examined)`` — the reply frame, what
    answering applied here (:class:`Applied`: the updates as columns,
    with their results), and the entries it examined.  Every field is
    validated before anything is applied, and every list sent back is
    computed before the request's own updates are merged: an update the
    request just delivered is never echoed.  ``tau`` is the window for a
    CHECKSUM request naming none.
    """
    kind, fields = request
    if kind == "tree":
        if fields.get("bits") != store.bucket_bits:
            # The trees do not line up node for node: refuse, not guess.
            reply = {"bits": store.bucket_bits, "mismatch": True}
            return Frame("tree", reply), Applied(UpdateList(), []), 0
        # For each of the initiator's nodes that differs here: this
        # side's children (internal nodes) or the bucket (leaves).
        tree = store.checksum_tree
        inner, dirty = _compare(tree, fields.get("nodes", []))
        reply = {"bits": store.bucket_bits, "frontier": tree.expand(inner), "dirty": dirty}
        return Frame("tree", reply), Applied(UpdateList(), []), 0
    try:
        mode = ExchangeMode(fields.get("mode"))
    except ValueError:
        raise ExchangeError(f"bad exchange mode {fields.get('mode')!r}") from None
    updates = UpdateList.of(fields.get("updates", ()))
    if kind == "checksum":
        tau = fields.get("tau", tau)
        if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not tau > 0:
            raise ExchangeError(f"bad tau {tau!r}")
        recent = store.recent_updates(float(tau)) if mode.pulls else []
        applied = Applied(updates, store.apply_updates(updates))
        return Frame("checksum", {"checksum": store.checksum, "updates": recent}), applied, 0
    if kind == "pull-request":
        # The offer is a digest only: never apply, only serve back.
        mode = ExchangeMode.PULL
    scope = None
    if "buckets" in fields and fields.get("bits") == store.bucket_bits:
        # A bucket-scoped offer is answered from those buckets only.
        # With another bucket geometry the ids mean nothing here:
        # resolving over the full table is always correct, just dearer.
        buckets = fields["buckets"]
        if buckets and not 0 <= min(buckets) <= max(buckets) < store.bucket_count:
            raise ExchangeError(f"bucket index out of range in {buckets!r}")
        scope = list(chain.from_iterable(map(store.bucket_keys, buckets)))
    resolved = ExchangeSession(store, mode).respond(updates, scope=scope)
    if mode.pulls:
        reply = Frame("pull-reply", {"updates": resolved.send_back})
    else:
        reply = Frame("ack", {"applied": len(resolved.applied)})
    return reply, Applied(resolved.applied, resolved.applied_results), resolved.entries_examined


def drive(conversation: Conversation, b: ReplicaStore) -> ExchangeReport:
    """The in-process driver: hand each request to the responder on
    ``b`` as the object it is — nothing encoded, nothing copied."""
    theirs = ExchangeReport()  # what only the responder's side knows
    try:
        request = next(conversation)
        while True:
            reply, applied, examined = respond(b, request)
            theirs.entries_examined += examined
            _file_news(theirs.sent_ab, theirs.results_ab, applied.updates, applied.results)
            request = conversation.send(reply)
    except StopIteration as settled:
        return settled.value.merge(theirs)


def resolve_difference(
    a: ReplicaStore, b: ReplicaStore, mode: ExchangeMode = ExchangeMode.PUSH_PULL
) -> ExchangeReport:
    """The paper's basic ResolveDifference over full database copies.

    push: entries where ``a`` is newer overwrite ``b``;
    pull: entries where ``b`` is newer overwrite ``a``;
    push-pull: both.
    """
    return FullCompare().exchange(a, b, mode)


class ExchangeStrategy:
    """Interface: one anti-entropy conversation, as its initiator."""

    def converse(
        self, store: ReplicaStore, mode: ExchangeMode, absorb: Optional[Callable] = None
    ) -> Conversation:
        """The initiator's end on ``store``: yields requests, is resumed
        with their replies, returns the report.  ``absorb`` merges a
        received :class:`UpdateList` and returns one :class:`ApplyResult`
        per update, in order; the default is ``store.apply_updates``, a
        driver that accounts for every delivery (the TCP node) passes its
        own."""
        raise NotImplementedError

    def exchange(self, a: ReplicaStore, b: ReplicaStore, mode: ExchangeMode) -> ExchangeReport:
        """The whole conversation between two stores in this process."""
        return drive(self.converse(a, mode), b)

    def describe(self) -> str:
        raise NotImplementedError


class FullCompare(ExchangeStrategy):
    """Always compare the complete databases."""

    def converse(self, store, mode, absorb=None):
        absorb = absorb or store.apply_updates
        return _offer(store, mode, absorb, ExchangeReport())

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

    def converse(self, store, mode, absorb=None):
        absorb = absorb or store.apply_updates
        report = ExchangeReport(checksum_rounds=1, via="checksum")
        # Phase 1: exchange recent update lists (bounded by the number
        # of updates in the last tau, not the database size).
        recent = store.recent_updates(self.tau) if mode.pushes else []
        reply = yield Frame(
            "checksum",
            {
                "mode": mode.value,
                "checksum": store.checksum,
                "tau": self.tau,
                "updates": recent,
            },
        )
        _expect(reply, "checksum")
        report.wire_ab = len(recent)
        _take(report, reply, absorb)
        report.entries_examined = report.wire_ab + report.wire_ba
        # Phase 2: compare checksums, both lists merged on both sides.
        if reply.fields.get("checksum") == store.checksum:
            return report
        # Phase 3: checksums disagree -> full database comparison, on
        # the same report: costs add, and ``full_compare`` sticks.
        report.via = "checksum+full"
        return (yield from _offer(store, mode, absorb, report))

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
                shipped = UpdateList.of([update])
                _file_news(report.sent_ab, report.results_ab, shipped, [b.apply_update(update)])
            while pending_b is not None and pending_b.timestamp == batch_ts:
                update, pending_b = pending_b, next(stream_b, None)
                report.entries_examined += 1
                shipped = UpdateList.of([update])
                _file_news(report.sent_ba, report.results_ba, shipped, [a.apply_update(update)])
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
    than guessing at a mapping.  An initiator holding no entry skips the
    walk and offers every bucket, which the responder's scoped
    :func:`respond` answers with its whole table.
    """

    def converse(self, store, mode, absorb=None):
        if mode is not ExchangeMode.PUSH_PULL:
            raise ValueError("hierarchical checksum requires push-pull exchanges")
        absorb = absorb or store.apply_updates
        if not len(store):
            # An empty store differs wherever the partner holds anything,
            # so a walk would prune nothing: offer every bucket at once.
            buckets = list(range(store.bucket_count))
            return (yield from _offer(store, mode, absorb, ExchangeReport(via="tree"), buckets))
        report = ExchangeReport(checksum_rounds=1, via="tree")
        tree = store.checksum_tree
        # Walk down two levels per round trip: the partner compares the
        # nodes sent and answers with its children of those that differ;
        # this side compares those and sends its own children of the ones
        # that differ in turn.  Equal subtrees are pruned on both sides,
        # no node crosses the wire twice, a round's size follows the
        # difference and the number of rounds is ⌈(bucket_bits + 1) / 2⌉.
        nodes = [(1, tree.root)]
        dirty: List[int] = []
        while nodes:
            request = {"mode": mode.value, "bits": store.bucket_bits, "nodes": nodes}
            reply = yield Frame("tree", request)
            _expect(reply, "tree")
            if reply.fields.get("mismatch"):
                # Bucket counts disagree; the trees don't line up.
                report.via = "tree+full"
                return (yield from _offer(store, mode, absorb, report))
            frontier = reply.fields.get("frontier", [])
            # A frontier that does not descend could keep a walk going
            # forever: refuse it before comparing anything.
            sent = {node for node, __ in nodes}
            if not all(node >> 1 in sent for node, __ in frontier):
                raise ExchangeError("tree frontier names a node that is no child of the request's")
            dirty.extend(reply.fields.get("dirty", []))
            inner, leaves = _compare(tree, frontier)
            dirty.extend(leaves)
            nodes = tree.expand(inner)
            report.tree_comparisons += len(frontier) + len(nodes)
        if dirty:
            report.tree_comparisons += 1  # the root: it differed
            # One offer for the whole conversation: buckets are
            # disjoint, and a bucket read flushes the store's pending
            # writes, so resolving them one by one would fold per bucket.
            yield from _offer(store, mode, absorb, report, sorted(set(dirty)))
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
