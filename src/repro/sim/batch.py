"""Batched single-update epidemic trials — the simulator's fast path.

The experiment tables run thousands of independent trials of one
shape: inject a single tracked update into a uniformly mixed population
and drive one epidemic protocol to completion or quiescence, recording
residue / traffic / delay.  The general
:class:`~repro.cluster.cluster.Cluster` machinery pays for flexibility
on every conversation of every cycle — per-site stores, entry objects,
event-bus guards, protocol dispatch — none of which can affect the
metrics of that trial shape.

This module runs the same epidemics over dense integer site indices
and flat per-site state arrays instead.  Population-wide bookkeeping
(completing partner draws, susceptible/infective set updates) goes
through the list primitives of :mod:`repro.sim.arrays`.

**Bit-for-bit identity is the contract.**  Every random draw is taken
from the same per-site ``random.Random`` streams the cluster would
create (:func:`repro.sim.rng.site_seed`), in the same order the scalar
protocols consume them: partner selection in ascending initiator order
within a cycle, then interest-loss coin flips in ascending snapshot
order.  The golden tests (``tests/test_batch_engine.py``) hold the
resulting :class:`~repro.sim.metrics.EpidemicMetrics` equal to the
reference engine's, field for field, across the paper's table
configurations; ``engine="reference"`` in
:mod:`repro.experiments.tables` keeps the scalar path selectable.

Scope: one tracked update, every site up, no topology routing, no WAN
model.  The table trial functions dispatch here through
``engine="auto"``; anything richer stays on the cluster path.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Dict, List, Optional

try:  # the C core type seeds once; random.Random(seed) seeds twice
    from _random import Random as _CoreRandom
except ImportError:  # pragma: no cover - non-CPython interpreters
    from random import Random as _CoreRandom

from repro.sim.arrays import PythonBackend as backend
from repro.sim.metrics import EpidemicMetrics
from repro.sim.rng import SiteSeeder
from repro.sim.transport import hunt_for_partner

# Replaying a trial with a master seed seen before (golden tests, benchmark
# repetitions, bisection) skips Mersenne-Twister seeding entirely: the
# raw 32-bit words each site consumed are a pure function of
# (master_seed, site_id, draw index), so they are memoized per process.
# Seeding is the dominant per-trial cost (~6us per participating site),
# so replays run several times faster than first runs.
_WORD_CACHE: "OrderedDict[int, Dict[int, List[int]]]" = OrderedDict()
# Large enough to hold a whole table sweep (25 seeds for Tables 1-2);
# one seed's words for a 1000-site trial weigh roughly half a megabyte.
_WORD_CACHE_SEEDS = 32

_TWO53_INV = 1.0 / 9007199254740992.0  # 2**-53, the CPython random() scale
_UNPACK_BLOCK = struct.Struct("<16I").unpack  # one 16-word refill block


def clear_word_cache() -> None:
    _WORD_CACHE.clear()


def _seed_bucket(master_seed: int) -> Dict[int, List[int]]:
    """The word-list store for one master seed."""
    bucket = _WORD_CACHE.get(master_seed)
    if bucket is None:
        bucket = _WORD_CACHE[master_seed] = {}
        while len(_WORD_CACHE) > _WORD_CACHE_SEEDS:
            _WORD_CACHE.popitem(last=False)
    else:
        _WORD_CACHE.move_to_end(master_seed)
    return bucket


class SiteDraws:
    """One site's random stream, drawn as raw 32-bit words.

    CPython's ``random.Random`` builds every draw from 32-bit outputs of
    the Mersenne Twister: ``getrandbits(32)`` is one word,
    ``_randbelow(n)`` is the top ``n.bit_length()`` bits of a word with
    rejection, ``random()`` combines the top 27 and 26 bits of two
    words.  Reproducing those constructions here keeps draws bit-equal
    to the site streams the reference engine hands out
    (``RngRegistry.site_stream``) while letting consumed words be
    recorded into — and replayed from — the per-seed word cache without
    touching the underlying generator again.
    """

    __slots__ = ("seeder", "site", "words", "pos", "rng")

    def __init__(self, seeder: SiteSeeder, site: int, words: List[int]):
        self.seeder = seeder
        self.site = site
        self.words = words
        self.pos = 0
        self.rng = None

    def _refill(self) -> None:
        """Extend the word list by one generator block (cache miss).

        ``getrandbits(32 * k)`` packs ``k`` successive 32-bit outputs
        least-significant first, so a whole block costs one C call both
        to skip the already-cached prefix and to produce new words.
        """
        rng = self.rng
        if rng is None:
            rng = self.rng = _CoreRandom(self.seeder.seed(self.site))
            consumed = len(self.words)
            if consumed:  # replayed from cache; advance past the prefix
                rng.getrandbits(32 * consumed)
        self.words.extend(_UNPACK_BLOCK(rng.getrandbits(512).to_bytes(64, "little")))

    def randbelow(self, n: int, shift: int) -> int:
        """``Random._randbelow(n)``; ``shift`` is ``32 - n.bit_length()``."""
        words = self.words
        pos = self.pos
        while True:
            if pos >= len(words):
                self.pos = pos
                self._refill()
            value = words[pos] >> shift
            pos += 1
            if value < n:
                self.pos = pos
                return value

    def random(self) -> float:
        """``Random.random()``: 53 bits from two words."""
        pos = self.pos
        words = self.words
        if pos + 2 > len(words):
            self.pos = pos
            self._refill()
        a = words[pos]
        b = words[pos + 1]
        self.pos = pos + 2
        return ((a >> 5) * 67108864.0 + (b >> 6)) * _TWO53_INV


class _TrialDraws:
    """Lazy per-site :class:`SiteDraws` for one trial."""

    __slots__ = ("seeder", "bucket", "sites")

    def __init__(self, master_seed: int, n: int):
        self.seeder = SiteSeeder(master_seed)
        self.bucket = _seed_bucket(master_seed)
        self.sites: List[Optional[SiteDraws]] = [None] * n

    def site(self, i: int) -> SiteDraws:
        sd = self.sites[i]
        if sd is None:
            sd = self.sites[i] = SiteDraws(
                self.seeder, i, self.bucket.setdefault(i, [])
            )
        return sd


def _complete(max_cycles: int) -> RuntimeError:
    # Matches Cluster.run_until's bound failure exactly.
    return RuntimeError(f"predicate not reached within {max_cycles} cycles")


def rumor_trial(
    n: int,
    config,
    seed: int,
    max_cycles: int = 1000,
    injection_site: int = 0,
) -> EpidemicMetrics:
    """One rumor-mongering epidemic to quiescence, batched.

    ``config`` is a :class:`~repro.protocols.rumor.RumorConfig`; every
    point of the design space is supported — push/pull/push-pull,
    blind/feedback, counter/coin, minimization, connection limits with
    hunting.  Results are bit-identical to
    :func:`repro.experiments.tables.run_rumor_trial` with
    ``engine="reference"``.
    """
    if n < 2:
        # The reference engine's UniformSelector refuses these too.
        raise ValueError("need at least two sites")
    mode = config.mode
    pushes = mode.pushes
    pulls = mode.pulls
    feedback = config.feedback
    counter = config.counter
    k = config.k
    resets = config.resets_on_success
    minimization = config.minimization
    coin_p = 1.0 / k
    policy = config.policy
    unlimited = policy.unlimited
    limit = policy.connection_limit
    attempts = policy.hunt_limit + 1

    metrics = EpidemicMetrics(n=n, injection_time=0.0)
    metrics.record_receipt(injection_site, 0.0)
    receipts = metrics.receipt_times

    infected = bytearray(n)  # live: site's store holds the update
    infected[injection_site] = 1
    hot: Dict[int, int] = {injection_site: 0}  # live: site -> counter

    draws = _TrialDraws(seed, n)
    sites = draws.sites
    get_site = draws.site
    n1 = n - 1
    shift = 32 - n1.bit_length()
    update_sends = 0
    comparisons = 0
    rejections = 0
    cycle = 0

    # Pure push with no connection limit and no minimization (Tables 1
    # and 2) admits a fully batched cycle: every conversation ships, so
    # news/feedback reduce to a first-occurrence pass over the cycle's
    # partner vector — no per-conversation event bookkeeping at all.
    fast_push = pushes and not pulls and unlimited and not minimization

    while hot:
        if cycle >= max_cycles:
            raise _complete(max_cycles)
        cycle += 1
        cycle_f = float(cycle)

        # Start-of-cycle snapshot: the infective sites and (for
        # minimization) their counters, in ascending site order — the
        # order the scalar protocol builds its snapshot dict in.
        snap_sites = sorted(hot)

        if fast_push:
            picks = [
                (sites[s] or get_site(s)).randbelow(n1, shift) for s in snap_sites
            ]
            partners = backend.adjusted_partners_at(picks, snap_sites)
            news = backend.push_news(partners, backend.snapshot(infected))
            update_sends += len(snap_sites)
            comparisons += len(snap_sites)
            for p in backend.compress(partners, news):
                infected[p] = 1
                receipts[p] = cycle_f
                hot[p] = 0
            if feedback:
                if counter:
                    for i, s in enumerate(snap_sites):
                        if news[i]:
                            if resets:
                                hot[s] = 0
                        else:
                            c = hot[s] + 1
                            if c >= k:
                                del hot[s]
                            else:
                                hot[s] = c
                else:
                    for i, s in enumerate(snap_sites):
                        if not news[i] and sites[s].random() < coin_p:
                            del hot[s]
            elif counter:
                for s in snap_sites:
                    c = hot[s] + 1
                    if c >= k:
                        del hot[s]
                    else:
                        hot[s] = c
            else:
                for s in snap_sites:
                    if sites[s].random() < coin_p:
                        del hot[s]
            continue
        hot_flags = bytearray(n)
        for s in snap_sites:
            hot_flags[s] = 1
        snap_counter = {s: hot[s] for s in snap_sites} if minimization else None

        # Per-cycle feedback, keyed by ship *source*: [useful, useless].
        ev: Dict[int, List[int]] = {}
        pcs: Dict[int, List[int]] = {}
        accepted: Optional[Dict[int, int]] = None if unlimited else {}

        if pushes and not pulls:
            initiators = snap_sites
            partners = None
        else:
            # pull and push-pull: every site solicits each cycle.  With
            # no connection limit the whole population's partner draws
            # complete in one pass.
            initiators = range(n)
            if unlimited:
                partners = backend.adjusted_partners(
                    [
                        (sites[s] or get_site(s)).randbelow(n1, shift)
                        for s in initiators
                    ]
                )
            else:
                partners = None

        for s in initiators:
            # -- partner selection (and hunting, under a limit) --------
            if partners is not None:
                p = partners[s]
            elif unlimited:
                sd = sites[s]
                if sd is None:
                    sd = get_site(s)
                pick = sd.randbelow(n1, shift)
                p = pick + 1 if pick >= s else pick
            else:
                sd = sites[s]
                if sd is None:
                    sd = get_site(s)

                def draw(sd=sd, s=s):
                    pick = sd.randbelow(n1, shift)
                    return pick + 1 if pick >= s else pick

                p = hunt_for_partner(draw, accepted, limit, attempts)
                if p is None:
                    rejections += 1
                    continue

            # -- the conversation, on start-of-cycle state -------------
            comparisons += 1
            s_hot = hot_flags[s]
            p_hot = hot_flags[p]
            if pushes and s_hot:
                if minimization and p_hot:
                    # Both already hold the hot rumor: exchange counters,
                    # ship nothing (the minimization rule).
                    pcs.setdefault(s, []).append(snap_counter[p])
                    pcs.setdefault(p, []).append(snap_counter[s])
                else:
                    update_sends += 1
                    if infected[p]:
                        e = ev.get(s)
                        if e is None:
                            ev[s] = [0, 1]
                        else:
                            e[1] += 1
                    else:
                        infected[p] = 1
                        receipts[p] = cycle_f
                        hot[p] = 0
                        e = ev.get(s)
                        if e is None:
                            ev[s] = [1, 0]
                        else:
                            e[0] += 1
            if pulls and p_hot and not (minimization and s_hot):
                update_sends += 1
                if infected[s]:
                    e = ev.get(p)
                    if e is None:
                        ev[p] = [0, 1]
                    else:
                        e[1] += 1
                else:
                    infected[s] = 1
                    receipts[s] = cycle_f
                    hot[s] = 0
                    e = ev.get(p)
                    if e is None:
                        ev[p] = [1, 0]
                    else:
                        e[0] += 1

        # -- end-of-cycle interest loss, in snapshot order -------------
        for s in snap_sites:
            if not feedback:
                if counter:
                    c = hot[s] + 1
                    if c >= k:
                        del hot[s]
                    else:
                        hot[s] = c
                else:
                    sd = sites[s]
                    if sd is None:
                        sd = get_site(s)
                    if sd.random() < coin_p:
                        del hot[s]
                continue
            e = ev.get(s)
            p_counters = pcs.get(s) if minimization else None
            if e is None and not p_counters:
                continue  # no conversation touched this rumor
            if p_counters:
                c = hot[s]
                if all(c <= pc for pc in p_counters):
                    c += 1
                    if c >= k:
                        del hot[s]
                    else:
                        hot[s] = c
                continue
            if counter:
                if e[0]:
                    if resets:
                        hot[s] = 0
                elif e[1]:
                    c = hot[s] + 1
                    if c >= k:
                        del hot[s]
                    else:
                        hot[s] = c
            else:
                sd = sites[s]
                if sd is None:
                    sd = get_site(s)
                for __ in range(e[1]):
                    if sd.random() < coin_p:
                        del hot[s]
                        break

    metrics.update_sends = update_sends
    metrics.comparisons = comparisons
    metrics.rejected_connections = rejections
    metrics.cycles_run = cycle
    return metrics


def anti_entropy_trial(
    n: int,
    mode,
    seed: int,
    max_cycles: int = 200,
    period: int = 1,
    offset: int = 0,
    injection_site: int = 0,
) -> EpidemicMetrics:
    """One synchronous anti-entropy epidemic run to completion, batched.

    Every up site initiates one exchange per period cycle; transmission
    decisions are made on start-of-cycle state (the paper's synchronous
    model), so each cycle's susceptible/infective update batches
    fully: one partner draw per site, then set arithmetic over the
    whole population (:mod:`repro.sim.arrays`).  Bit-identical to the
    cluster run :func:`repro.experiments.tables.run_anti_entropy_trial`
    performs with ``engine="reference"``.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    pushes = mode.pushes
    pulls = mode.pulls

    metrics = EpidemicMetrics(n=n, injection_time=0.0)
    metrics.record_receipt(injection_site, 0.0)
    receipts = metrics.receipt_times
    infected = bytearray(n)
    infected[injection_site] = 1

    draws = _TrialDraws(seed, n)
    all_sites = [draws.site(i) for i in range(n)]
    n1 = n - 1
    shift = 32 - n1.bit_length()
    own_ids = list(range(n))
    update_sends = 0
    comparisons = 0
    cycle = 0

    while len(receipts) < n:
        if cycle >= max_cycles:
            raise _complete(max_cycles)
        cycle += 1
        if (cycle - offset) % period != 0:
            continue
        cycle_f = float(cycle)

        partners = backend.adjusted_partners(
            [sd.randbelow(n1, shift) for sd in all_sites]
        )
        h = backend.snapshot(infected)
        hp = backend.take(h, partners)
        comparisons += n
        if pushes:
            mask = backend.and_not(h, hp)
            update_sends += backend.count(mask)
            for site in backend.compress(partners, mask):
                if not infected[site]:
                    infected[site] = 1
                    receipts[site] = cycle_f
        if pulls:
            mask = backend.and_not(hp, h)
            update_sends += backend.count(mask)
            for site in backend.compress(own_ids, mask):
                if not infected[site]:
                    infected[site] = 1
                    receipts[site] = cycle_f

    metrics.update_sends = update_sends
    metrics.comparisons = comparisons
    metrics.cycles_run = cycle
    return metrics
