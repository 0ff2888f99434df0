"""perfbench — the layered benchmark of the epidemic-algorithms repro.

Five workloads, five end-to-end metrics reported by every workload, and
per-layer numbers from a traced run.  ``BENCHMARK.json`` at the repo
root names this directory and the command; ``perfbench/README.md`` says
what every name means and why it was chosen.

The package measures ``repro`` from outside: it imports only public
functions and keeps its own percentile, span and comparison code, so
the yardstick does not move when the code it measures does.
"""
