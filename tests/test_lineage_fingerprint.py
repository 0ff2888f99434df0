"""Pinned infection-tree analysis of seeded simulator traces.

Each case runs a seeded epidemic with a bus sink attached, replays the
span stream through :class:`LineageIndex`, and hashes both the
``to_dict()`` export and the rendered ``trace analyze`` report.  The
digests were recorded when every span still carried a wire hop count;
depth is now read off the tree alone, so a digest that moves means the
analysis changed, not just its bookkeeping.
"""

import hashlib
import json

import pytest

from repro.cluster.cluster import Cluster
from repro.obs.events import EventKind, HARNESS_NODE, RingBufferSink
from repro.obs.lineage import LineageIndex, render_analysis
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import HierarchicalChecksum
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol

N = 48
CYCLES = 30


def rumor():
    return [RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH, k=2))]


def rumor_with_backup():
    return [
        RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH, k=1)),
        AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, period=4)
        ),
    ]


def hierarchical():
    return [
        AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, synchronous=False),
            strategy=HierarchicalChecksum(),
        )
    ]


SCENARIOS = {"rumor": rumor, "rumor+backup": rumor_with_backup, "hierarchical": hierarchical}


def traced_run(scenario: str, seed: int) -> LineageIndex:
    """Three updates from different sites, the last injected while the
    first two are still spreading, traced to the end of the run."""
    cluster = Cluster(n=N, seed=seed)
    for protocol in SCENARIOS[scenario]():
        cluster.add_protocol(protocol)
    sink = cluster.bus.add_sink(RingBufferSink(capacity=1_000_000))
    cluster.bus.emit(EventKind.RUN_STARTED, node=HARNESS_NODE, n=N, key="k0")
    cluster.inject_update(0, "k0", "v0")
    cluster.inject_update(N // 2, "k1", "v1")
    cluster.run_cycles(2)
    cluster.inject_update(N - 1, "k0", "v2")
    cluster.run_cycles(CYCLES)
    return LineageIndex.from_events(sink.events)


def fingerprint(index: LineageIndex) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(index.to_dict(), sort_keys=True).encode())
    digest.update("\n".join(render_analysis(index)).encode())
    return digest.hexdigest()[:16]


#: Recorded with hop counts carried alongside every span.
GOLDEN = {
    ("rumor", 1): "6455ab5d9bb46bf5",
    ("rumor", 2): "c55131f8a2712940",
    ("rumor", 3): "dee9b2e426ae448c",
    ("rumor+backup", 1): "3756855902963ff7",
    ("rumor+backup", 2): "a1b65f02a94afa84",
    ("rumor+backup", 3): "fd689bd82822efd6",
    ("hierarchical", 1): "cf1a35cee6c03472",
    ("hierarchical", 2): "92607710c5729c34",
    ("hierarchical", 3): "b243768c3626af40",
}


@pytest.mark.parametrize("scenario,seed", sorted(GOLDEN))
def test_analysis_fingerprint_is_pinned(scenario, seed):
    assert fingerprint(traced_run(scenario, seed)) == GOLDEN[scenario, seed]


if __name__ == "__main__":
    for name in SCENARIOS:
        for seed in (1, 2, 3):
            print(f"    ({name!r}, {seed}): {fingerprint(traced_run(name, seed))!r},")
