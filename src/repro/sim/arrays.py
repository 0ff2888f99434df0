"""Population-wide primitives for the batched simulator core
(:mod:`repro.sim.batch`).

The batched trial engine expresses its per-cycle bookkeeping through the
small set of operations below: completing a population of uniform
partner draws, gathering infection flags at partner indices, masking,
counting and compressing.  They run over plain lists, bytes and
bytearrays and carry integers and booleans only — no floating point, no
optional library — so a trial's result cannot depend on what is
installed.  Plain lists on purpose: the engine's state lives in lists
and bytearrays, and at the paper's population sizes converting them to
numpy arrays and back costs more than the vector arithmetic saves
(measured; see docs/performance.md).
"""

from __future__ import annotations

from typing import List, Sequence


class PythonBackend:
    """The list-based implementation of the primitives."""

    name = "python"

    @staticmethod
    def adjusted_partners(picks: Sequence[int]) -> List[int]:
        """Complete one uniform draw per site: site ``i`` drew ``pick``
        in ``[0, n-1)``; a pick at or past its own index skips over
        itself (the :class:`~repro.topology.spatial.UniformSelector`
        arithmetic, applied to the whole population at once)."""
        return [pick + 1 if pick >= own else pick for own, pick in enumerate(picks)]

    @staticmethod
    def adjusted_partners_at(picks: Sequence[int], owners: Sequence[int]) -> List[int]:
        """Like :meth:`adjusted_partners` for a sparse initiator set:
        ``owners[i]`` is the site that drew ``picks[i]``."""
        return [
            pick + 1 if pick >= own else pick for pick, own in zip(picks, owners)
        ]

    @staticmethod
    def snapshot(flags: bytearray) -> Sequence[int]:
        """Freeze per-site 0/1 flags as a cycle-start snapshot."""
        return bytes(flags)

    @staticmethod
    def push_news(targets: Sequence[int], infected: Sequence[int]) -> List[bool]:
        """Which of a cycle's push conversations deliver news.

        Conversation ``i`` ships to ``targets[i]``; it is news iff the
        target was susceptible at the start of the cycle and no earlier
        conversation this cycle already reached it (conversations run
        in ascending initiator order, so first occurrence wins)."""
        seen = set()
        news = []
        for t in targets:
            if infected[t] or t in seen:
                news.append(False)
            else:
                seen.add(t)
                news.append(True)
        return news

    @staticmethod
    def take(flags: Sequence[int], idx: Sequence[int]) -> List[int]:
        """``flags`` gathered at positions ``idx``."""
        return [flags[i] for i in idx]

    @staticmethod
    def and_not(a: Sequence[int], b: Sequence[int]) -> List[bool]:
        """Elementwise ``a and not b``."""
        return [bool(x) and not y for x, y in zip(a, b)]

    @staticmethod
    def count(mask: Sequence[bool]) -> int:
        return sum(mask)

    @staticmethod
    def compress(values: Sequence[int], mask: Sequence[bool]) -> List[int]:
        """``values`` where ``mask`` holds, order preserved."""
        return [value for value, keep in zip(values, mask) if keep]


def numpy_available() -> bool:
    """Whether numpy is importable here.  A plain fact about the host
    for the benchmark's environment block; nothing in the simulator
    uses numpy."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def get_backend():
    """The primitives the batched engine runs on (``.name == "python"``);
    read by the benchmark's environment block."""
    return PythonBackend
