"""Client traffic generators: arrival processes, key popularity, op mix.

The paper's tables inject one update and watch it converge; the
deployment it models — the Clearinghouse serving a whole internetwork —
lived under continuous client traffic.  This module produces that
traffic for both runtimes:

* :class:`OpenLoopGenerator` — an **open-loop** (rate-driven) arrival
  process: operations arrive Poisson(``rate``) per cycle regardless of
  how the system keeps up, the way an internet full of clients behaves.
* :class:`ClosedLoopGenerator` — a **closed-loop** client pool: each of
  ``clients`` simulated clients keeps at most ``max_outstanding``
  operations in flight and *thinks* for an exponential
  ``think_time`` between completed operations, so offered load follows
  the classic closed-loop law ``clients × max_outstanding /
  (service + think)`` and backs off as latency grows.

Both draw keys from a Zipf(``zipf_s``) popularity over ``key_space``
named keys (``zipf_s=0`` is uniform) and split operations into writes,
reads and deletes by configured fractions.  Reads exist purely to
*measure*: a read at site ``s`` samples the staleness
``latest_global_ts(key) − local_ts(key)`` (see
:mod:`repro.workload.driver`).
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import math
import random
from typing import List, Sequence

#: Above this mean, :func:`poisson` switches from Knuth's exact product
#: method (O(mean) uniform draws) to a normal approximation — at that
#: scale the relative error is below 1/sqrt(256) ≈ 6% of a standard
#: deviation, invisible next to sampling noise, and the cost stays O(1)
#: however large the rate.
_POISSON_EXACT_LIMIT = 256.0


def poisson(rng: random.Random, mean: float) -> int:
    """Sample a Poisson(``mean``) count from ``rng``.

    Exact (Knuth's multiplication method) for ``mean`` up to
    :data:`_POISSON_EXACT_LIMIT`; beyond that a rounded
    Normal(mean, sqrt(mean)) clipped at zero.  Deterministic for a
    given ``rng`` state either way.
    """
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0:
        return 0
    if mean > _POISSON_EXACT_LIMIT:
        return max(0, round(rng.gauss(mean, math.sqrt(mean))))
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class ZipfKeys:
    """Zipf(``s``) popularity over ``key_space`` keys ``key-0..key-N-1``.

    Rank ``r`` (1-based) has weight ``r^-s``; ``s=0`` degenerates to
    the uniform distribution, ``key_space=1`` to a single key.  The CDF
    is precomputed once; :meth:`pick` is a binary search.
    """

    __slots__ = ("key_space", "zipf_s", "cdf")

    def __init__(self, key_space: int, zipf_s: float = 0.0):
        if key_space < 1:
            raise ValueError("key_space must be positive")
        if zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")
        self.key_space = key_space
        self.zipf_s = zipf_s
        weights = [(rank + 1) ** (-zipf_s) for rank in range(key_space)]
        total = sum(weights)
        cumulative = 0.0
        self.cdf: List[float] = []
        for weight in weights:
            cumulative += weight / total
            self.cdf.append(cumulative)

    def key(self, index: int) -> str:
        return f"key-{index}"

    def pick(self, rng: random.Random) -> str:
        index = bisect.bisect_left(self.cdf, rng.random())
        return self.key(min(index, self.key_space - 1))


class OpKind(enum.Enum):
    WRITE = "write"
    READ = "read"
    DELETE = "delete"


@dataclasses.dataclass(frozen=True, slots=True)
class Operation:
    """One client operation, bound to the site the client contacted."""

    kind: OpKind
    site: int
    key: str


@dataclasses.dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """A continuous client workload.

    ``updates_per_cycle`` is the mean of the open-loop Poisson arrival
    process.  Keys are drawn from ``key_space`` names with popularity skew
    ``zipf_s`` (0 = uniform); a ``delete_fraction`` of operations are
    deletions and a ``read_fraction`` are staleness-sampling reads (the
    remainder are writes).
    """

    updates_per_cycle: float = 2.0
    key_space: int = 100
    zipf_s: float = 0.0
    delete_fraction: float = 0.0
    read_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.updates_per_cycle < 0:
            raise ValueError("updates_per_cycle must be non-negative")
        if self.key_space < 1:
            raise ValueError("key_space must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")
        if not 0.0 <= self.delete_fraction < 1.0:
            raise ValueError("delete_fraction must be in [0, 1)")
        if not 0.0 <= self.read_fraction < 1.0:
            raise ValueError("read_fraction must be in [0, 1)")
        if self.delete_fraction + self.read_fraction >= 1.0:
            raise ValueError("delete_fraction + read_fraction must leave writes")

    @property
    def rate(self) -> float:
        """The open-loop arrival rate (operations per cycle)."""
        return self.updates_per_cycle


def _draw_kind(config: WorkloadConfig, rng: random.Random) -> OpKind:
    u = rng.random()
    if u < config.delete_fraction:
        return OpKind.DELETE
    if u < config.delete_fraction + config.read_fraction:
        return OpKind.READ
    return OpKind.WRITE


class OpenLoopGenerator:
    """Poisson arrivals at ``config.rate`` operations per cycle."""

    def __init__(self, config: WorkloadConfig, rng: random.Random):
        self.config = config
        self._rng = rng
        self._keys = ZipfKeys(config.key_space, config.zipf_s)

    def ops_for_cycle(self, cycle: int, sites: Sequence[int]) -> List[Operation]:
        """The operations arriving this cycle, bound to contact sites."""
        if not sites:
            return []
        rng = self._rng
        count = poisson(rng, self.config.rate)
        return [
            Operation(
                kind=_draw_kind(self.config, rng),
                site=rng.choice(sites),
                key=self._keys.pick(rng),
            )
            for __ in range(count)
        ]


@dataclasses.dataclass(frozen=True, slots=True)
class ClientPool:
    """The closed-loop population: who is waiting on whom.

    ``think_time`` is the mean of an exponential pause between a
    completed operation and the client's next one; ``service_time`` is
    how long an operation occupies its slot (one cycle: the contacted
    site applies a write within the cycle it arrives).
    """

    clients: int = 16
    think_time: float = 4.0
    max_outstanding: int = 1
    service_time: float = 1.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be positive")
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be positive")
        if self.service_time <= 0:
            raise ValueError("service_time must be positive")

    @property
    def expected_rate(self) -> float:
        """The closed-loop law: offered operations per cycle."""
        return (
            self.clients
            * self.max_outstanding
            / (self.service_time + self.think_time)
        )


class ClosedLoopGenerator:
    """``clients`` clients, each with bounded outstanding operations.

    Every client owns ``max_outstanding`` slots; a slot issues an
    operation, is busy for ``service_time`` cycles, then thinks for an
    exponential ``think_time`` before issuing again.  Unlike the open
    loop, a slot never has two operations in flight — the offered load
    self-limits.
    """

    def __init__(
        self,
        config: WorkloadConfig,
        pool: ClientPool,
        rng: random.Random,
    ):
        self.config = config
        self.pool = pool
        self._rng = rng
        self._keys = ZipfKeys(config.key_space, config.zipf_s)
        # Slot s becomes ready at _ready[s]; initial phases are spread
        # over one think interval so the pool does not fire in lockstep.
        self._ready: List[float] = [
            self._think(rng) for __ in range(pool.clients * pool.max_outstanding)
        ]

    def _think(self, rng: random.Random) -> float:
        if self.pool.think_time == 0:
            return 0.0
        return rng.expovariate(1.0 / self.pool.think_time)

    def ops_for_cycle(self, cycle: int, sites: Sequence[int]) -> List[Operation]:
        if not sites:
            return []
        rng = self._rng
        now = float(cycle)
        ops: List[Operation] = []
        for slot, ready_at in enumerate(self._ready):
            if ready_at > now:
                continue
            ops.append(
                Operation(
                    kind=_draw_kind(self.config, rng),
                    site=rng.choice(sites),
                    key=self._keys.pick(rng),
                )
            )
            self._ready[slot] = now + self.pool.service_time + self._think(rng)
        return ops
