"""Production traffic subsystem: generators, geo model, steady state.

The pieces, bottom-up:

* :mod:`repro.workload.generators` — open-loop Poisson arrivals and a
  closed-loop client pool with think times; Zipf key popularity;
  write/read/delete mixes.
* :mod:`repro.workload.stats` — reservoir-sampled staleness
  distributions and per-window curve series.
* :mod:`repro.workload.driver` — plays generated operations into a
  simulated :class:`~repro.cluster.cluster.Cluster`, maintaining the
  staleness oracle.
* :mod:`repro.workload.geo` — named datacenters and per-link WAN
  capacity caps, wired into the simulator's topology and per-cycle
  conversation admission.
* :mod:`repro.workload.steady` — the simulator steady-state harness
  behind ``python -m repro workload``.
* :mod:`repro.workload.live` — the live-runtime load generator
  (imported lazily here: it pulls in asyncio networking).

The Section 1.3 tau study built on :class:`WorkloadConfig` and
:class:`WorkloadDriver` is :mod:`repro.experiments.workloads`.
"""

from repro.workload.driver import WorkloadDriver
from repro.workload.generators import (
    ClientPool,
    ClosedLoopGenerator,
    OpenLoopGenerator,
    Operation,
    OpKind,
    WorkloadConfig,
    ZipfKeys,
    poisson,
)
from repro.workload.geo import (
    DatacenterSpec,
    WanConfig,
    WanLinkSpec,
    WanNetwork,
    link_name,
    three_datacenters,
)
from repro.workload.stats import (
    ReservoirSample,
    WindowPoint,
    WindowSeries,
    percentile,
)
from repro.workload.steady import (
    SCHEMA,
    SteadyStateConfig,
    run_steady_state,
    summary_lines,
)

__all__ = [
    "ClientPool",
    "ClosedLoopGenerator",
    "DatacenterSpec",
    "OpenLoopGenerator",
    "Operation",
    "OpKind",
    "ReservoirSample",
    "SCHEMA",
    "SteadyStateConfig",
    "WanConfig",
    "WanLinkSpec",
    "WanNetwork",
    "WindowPoint",
    "WindowSeries",
    "WorkloadConfig",
    "WorkloadDriver",
    "ZipfKeys",
    "link_name",
    "percentile",
    "poisson",
    "run_steady_state",
    "summary_lines",
    "three_datacenters",
]
