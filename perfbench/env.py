"""The environment block: which fast paths a number was measured on.

Two results are comparable only when these agree — a numpy run against
a pure-python run, or v4 frames against v3, is a different program.
"""

from __future__ import annotations

import asyncio
import os
import platform
import sys
from typing import Any, Dict

from perfbench.live import negotiate, parked_config


def _auto_engine() -> str:
    """Which engine ``engine="auto"`` really dispatches a Table-1 trial
    to, observed by watching which module's functions get called."""
    from repro.experiments.tables import run_rumor_trial
    from repro.protocols.rumor import RumorConfig

    called = set()

    def watch(frame, event, arg):
        if event == "call":
            called.add(frame.f_globals.get("__name__"))

    sys.setprofile(watch)
    try:
        run_rumor_trial(16, RumorConfig(k=1), seed=0)
    finally:
        sys.setprofile(None)
    return "batched" if "repro.sim.batch" in called else "reference"


async def _negotiated_wire_version() -> int:
    """What two current nodes report once they have talked both ways."""
    from repro.net.runner import LiveCluster

    cluster = await LiveCluster.launch(2, parked_config())
    try:
        return await negotiate(list(cluster.nodes.values()))
    finally:
        await cluster.stop()


def environment() -> Dict[str, Any]:
    from repro.net.binwire import msgpack_available
    from repro.sim.arrays import get_backend, numpy_available

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "numpy": numpy_available(),
        "msgpack": msgpack_available(),
        "array_backend": get_backend().name,
        "REPRO_PURE_PYTHON": os.environ.get("REPRO_PURE_PYTHON", ""),
        "REPRO_TRIAL_CACHE": os.environ.get("REPRO_TRIAL_CACHE", ""),
        "sim_engine_auto": _auto_engine(),
        "wire_version": asyncio.run(_negotiated_wire_version()),
    }
