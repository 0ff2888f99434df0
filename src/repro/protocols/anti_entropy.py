"""Anti-entropy (Section 1.3).

Periodically, every site chooses a partner — uniformly or with a
spatial distribution (Section 3) — and the pair resolve the differences
between their database copies in one of three ways:

* **push**: entries newer at the caller overwrite the partner;
* **pull**: entries newer at the partner overwrite the caller;
* **push-pull**: both.

Anti-entropy is a *simple epidemic*: with any distribution giving every
pair a nonzero contact probability it infects the whole population with
probability 1, in expected time O(log n).  The push/pull distinction
matters in the endgame: with few susceptibles left, pull converges
quadratically (``p_{i+1} = p_i^2``) while push only shaves a factor
``e`` per cycle — the reason the paper recommends pull or push-pull for
backing up another distribution mechanism.

Two driving modes are provided:

* ``synchronous=True`` (default, used for the paper's tables): all
  decisions in a cycle are based on database state at the start of the
  cycle, matching the epidemic recurrences and giving every site one
  exchange per cycle;
* ``synchronous=False``: exchanges operate on live stores through a
  configurable :class:`ExchangeStrategy` (full compare, checksums with
  recent-update lists, or peel back), which is how a deployment would
  actually run.  Only this mode takes a strategy.

The synchronous mode is the *reference* engine: for uniform partner
selection :func:`repro.sim.batch.anti_entropy_trial` runs the same
single-update epidemic over flat arrays, bit-for-bit identical — the
golden tests in ``tests/test_batch_engine.py`` hold the two equal.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional

from repro.core.items import Entry
from repro.core.store import ApplyResult, StoreUpdate
from repro.protocols.base import ExchangeMode, GossipProtocol, entry_beats
from repro.protocols.exchange import (
    ExchangeStrategy,
    FullCompare,
    resolve_difference as resolve_difference,  # re-exported via repro.protocols
)
from repro.sim.transport import ConnectionPolicy, UNLIMITED
from repro.topology.spatial import PartnerSelector

TransferHook = Callable[[int, int, StoreUpdate, ApplyResult], None]


@dataclasses.dataclass(frozen=True, slots=True)
class AntiEntropyConfig:
    """Parameters of the anti-entropy mechanism.

    ``period``/``offset`` let anti-entropy run every few cycles (as a
    backup mechanism) rather than every cycle; the Clearinghouse ran it
    nightly while rumor cycles were much more frequent.
    """

    mode: ExchangeMode = ExchangeMode.PUSH_PULL
    policy: ConnectionPolicy = UNLIMITED
    synchronous: bool = True
    period: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if not 0 <= self.offset < self.period:
            raise ValueError("offset must lie in [0, period)")


@dataclasses.dataclass(slots=True)
class ExchangeStats:
    """Cumulative counters across all exchanges run so far.

    ``full_compares`` and ``checksum_successes`` partition the live
    exchanges that did any comparison work: a conversation counts as a
    checksum success only if *no* phase fell back to comparing the
    complete databases (hierarchical drill-downs that resolved through
    the tree included).  ``bucket_rounds`` totals the dirty buckets
    resolved by hierarchical exchanges, and ``entries_avoided`` the
    entries those conversations did *not* have to examine relative to a
    full comparison of both tables.
    """

    exchanges: int = 0
    updates_shipped: int = 0
    entries_examined: int = 0
    full_compares: int = 0
    checksum_successes: int = 0
    bucket_rounds: int = 0
    entries_avoided: int = 0
    rejected: int = 0


class AntiEntropyProtocol(GossipProtocol):
    name = "anti-entropy"

    def __init__(
        self,
        selector: Optional[PartnerSelector] = None,
        config: AntiEntropyConfig = AntiEntropyConfig(),
        strategy: Optional[ExchangeStrategy] = None,
    ):
        if strategy is not None and config.synchronous:
            raise ValueError(
                "the synchronous engine runs its own full compare and would ignore "
                "the strategy: pass AntiEntropyConfig(synchronous=False) with it"
            )
        super().__init__(selector, config.policy)
        self.config = config
        self.strategy = strategy if strategy is not None else FullCompare()
        self.stats = ExchangeStats()
        self._transfer_hooks: List[TransferHook] = []

    def on_transfer(self, hook: TransferHook) -> None:
        """Register a callback fired for every update anti-entropy ships.

        Arguments: (source_site, target_site, update, apply_result).
        Used by the Section 1.5 backup mechanism to trigger
        redistribution when a missing update is discovered.
        """
        self._transfer_hooks.append(hook)

    # ------------------------------------------------------------------

    def run_cycle(self, cycle: int) -> None:
        config = self.config
        if (cycle - config.offset) % config.period != 0:
            return
        cluster = self.cluster
        talk = self._exchange_live
        if config.synchronous:
            snapshots = {
                site_id: cluster.sites[site_id].store.snapshot()
                for site_id in cluster.site_ids
            }
            talk = partial(self._exchange_synchronous, snapshots=snapshots)
        self.stats.exchanges += self.pair_up(cluster.up_site_ids(), talk)

    # ------------------------------------------------------------------

    def _exchange_synchronous(
        self,
        site_id: int,
        partner_id: int,
        snapshots: Dict[int, Dict[Hashable, Entry]],
    ) -> None:
        """Resolve differences decided on start-of-cycle snapshots.

        Transmissions are decided by what each party *believed* at the
        start of the cycle (that is what would cross the wire in a real
        synchronous round), while stores merge live, so a site that
        receives the same update twice in one cycle counts two
        transmissions but applies it once.
        """
        cluster = self.cluster
        mode = self.config.mode
        snap_s = snapshots[site_id]
        snap_p = snapshots[partner_id]
        keys = snap_s.keys() | snap_p.keys()
        sent_sp = 0
        sent_ps = 0
        for key in keys:
            entry_s = snap_s.get(key)
            entry_p = snap_p.get(key)
            if entry_s is entry_p:
                continue  # one immutable object: neither side beats the other
            if mode.pushes and entry_beats(entry_s, entry_p):
                update = StoreUpdate(key=key, entry=entry_s)
                result = cluster.sites[partner_id].deliver(update, self, site_id)
                sent_sp += 1
                if result.was_news:
                    cluster.count_useful_update_send(site_id, partner_id, 1)
                self._fire_transfers(site_id, partner_id, (update,), (result,))
            elif mode.pulls and entry_beats(entry_p, entry_s):
                update = StoreUpdate(key=key, entry=entry_p)
                result = cluster.sites[site_id].deliver(update, self, partner_id)
                sent_ps += 1
                if result.was_news:
                    cluster.count_useful_update_send(partner_id, site_id, 1)
                self._fire_transfers(partner_id, site_id, (update,), (result,))
        self.stats.entries_examined += len(keys)
        self.stats.updates_shipped += sent_sp + sent_ps
        cluster.count_update_sends(site_id, partner_id, sent_sp)
        cluster.count_update_sends(partner_id, site_id, sent_ps)

    def _exchange_live(self, site_id: int, partner_id: int) -> None:
        cluster = self.cluster
        store_s = cluster.sites[site_id].store
        store_p = cluster.sites[partner_id].store
        report = self.strategy.exchange(store_s, store_p, self.config.mode)
        self.stats.entries_examined += report.entries_examined
        self.stats.updates_shipped += report.updates_shipped
        if report.full_compare:
            self.stats.full_compares += 1
        else:
            self.stats.checksum_successes += 1
            self.stats.entries_avoided += max(
                0, len(store_s) + len(store_p) - report.entries_examined
            )
        self.stats.bucket_rounds += report.buckets_resolved
        cluster.sites[partner_id].absorb(report.sent_ab, report.results_ab, site_id, via=self)
        self._fire_transfers(site_id, partner_id, report.sent_ab, report.results_ab)
        cluster.sites[site_id].absorb(report.sent_ba, report.results_ba, partner_id, via=self)
        self._fire_transfers(partner_id, site_id, report.sent_ba, report.results_ba)
        cluster.count_update_sends(site_id, partner_id, len(report.sent_ab))
        cluster.count_update_sends(partner_id, site_id, len(report.sent_ba))
        # Live exchanges resolve differences against current stores, so
        # every shipped update is one the receiver lacked: all of this
        # traffic is "useful" in Table 4's sense (unlike the synchronous
        # path, where stale snapshots can ship redundant copies).
        cluster.count_useful_update_send(site_id, partner_id, len(report.sent_ab))
        cluster.count_useful_update_send(partner_id, site_id, len(report.sent_ba))

    def _fire_transfers(self, source: int, target: int, updates, results) -> None:
        """The transfer hooks, once per update shipped from ``source`` to
        ``target``; rows are read only when a hook is set."""
        if self._transfer_hooks:
            for update, result in zip(updates, results):
                for hook in self._transfer_hooks:
                    hook(source, target, update, result)
