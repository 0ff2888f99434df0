"""The cluster runtime: sites, cycles, injection and accounting.

A :class:`Cluster` owns one :class:`~repro.cluster.site.Site` per
database site of a topology, advances simulated time in the paper's
synchronous *cycles*, lets clients inject updates and deletes at any
site, and gives the distribution protocols the hooks they need:
partner-selection randomness and per-conversation traffic accounting
(routed over the topology's shortest paths when one exists).  A site
is the one account of what a replica learns, here and on a live node:
it emits the injection and delivery events and tells its listeners —
the protocols — of local updates and news (e.g. a direct-mail delivery
turning into a hot rumor).
"""

from repro.cluster.site import Site
from repro.cluster.cluster import Cluster
from repro.cluster.invariants import InvariantChecker, InvariantViolation

__all__ = ["Site", "Cluster", "InvariantChecker", "InvariantViolation"]
