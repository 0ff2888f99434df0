"""The five workloads.  Each module has ``run(seed, seconds, tracer,
scale) -> Result`` and ``explain(result, layer) -> model ms`` of its
heavy operation; the names are permanent."""

from perfbench.workloads import live_repair, live_rumor, sim_steady, sim_tables, store_scale

MODULES = {
    "sim-tables": sim_tables,
    "sim-steady": sim_steady,
    "live-rumor": live_rumor,
    "live-repair": live_repair,
    "store-scale": store_scale,
}
