"""Command-line interface: regenerate any paper table or figure, or run
the live gossip runtime.

    python -m repro table1 --runs 50
    python -m repro table4 --runs 250
    python -m repro pathologies
    python -m repro tau
    python -m repro all --runs 10

    python -m repro live-demo --nodes 8          # N asyncio nodes on localhost
    python -m repro live-demo --nodes 8 --churn  # kill + restart one mid-run
    python -m repro live-demo --json --trace-file run.jsonl
    python -m repro trace analyze run.jsonl      # infection trees from a trace
    python -m repro node --config roster.json --id 3
    python -m repro status --config roster.json --id 3

Each experiment subcommand prints the measured table next to the
paper's values (where the paper gives absolute numbers); ``live-demo``
prints measured convergence delay (t_ave, t_last) and per-site traffic
over real TCP sockets (see docs/live_runtime.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.experiments.report import format_table

RUMOR_HEADERS = ["k", "residue", "m", "t_ave", "t_last"]
SPATIAL_HEADERS = [
    "dist", "t_last", "t_ave", "cmp avg", "cmp Bushey", "upd avg", "upd Bushey",
]


def _print_rumor_table(rows, paper, title: str) -> None:
    print(format_table(RUMOR_HEADERS, [r.as_tuple() for r in rows], title))
    print(format_table(RUMOR_HEADERS, paper, title="paper"))
    print()


def _runner(args):
    """The shared TrialRunner for this invocation, built from --jobs."""
    from repro.experiments.runner import TrialRunner

    return TrialRunner(jobs=getattr(args, "jobs", None))


def cmd_table1(args) -> None:
    from repro.experiments.tables import PAPER_TABLE1, table1

    rows = table1(n=args.n, runs=args.runs, runner=_runner(args))
    _print_rumor_table(rows, PAPER_TABLE1, "Table 1: push, feedback+counter")


def cmd_table2(args) -> None:
    from repro.experiments.tables import PAPER_TABLE2, table2

    rows = table2(n=args.n, runs=args.runs, runner=_runner(args))
    _print_rumor_table(rows, PAPER_TABLE2, "Table 2: push, blind+coin")


def cmd_table3(args) -> None:
    from repro.experiments.tables import PAPER_TABLE3, table3

    rows = table3(n=args.n, runs=args.runs, runner=_runner(args))
    _print_rumor_table(rows, PAPER_TABLE3, "Table 3: pull, feedback+counter")


def cmd_tables(args) -> None:
    """Tables 1-3 in one go — the determinism acceptance target:
    the output is byte-identical whatever --jobs is."""
    cmd_table1(args)
    cmd_table2(args)
    cmd_table3(args)


def _spatial(args, policy) -> None:
    from repro.experiments.spatial import spatial_table

    rows = spatial_table(runs=args.runs, policy=policy, runner=_runner(args))
    print(
        format_table(
            SPATIAL_HEADERS,
            [r.as_tuple() for r in rows],
            title="synthetic CIN (paper values are for the real CIN; see EXPERIMENTS.md)",
        )
    )
    print()


def cmd_table4(args) -> None:
    from repro.sim.transport import UNLIMITED

    print("Table 4: push-pull anti-entropy, no connection limit")
    _spatial(args, UNLIMITED)


def cmd_table5(args) -> None:
    from repro.sim.transport import ConnectionPolicy

    print("Table 5: push-pull anti-entropy, connection limit 1, hunt 0")
    _spatial(args, ConnectionPolicy(connection_limit=1, hunt_limit=0))


def cmd_pathologies(args) -> None:
    from repro.experiments.pathologies import (
        backup_fixes_pathology,
        figure1_experiment,
        figure2_experiment,
    )

    runner = _runner(args)
    trials = args.runs * 5
    fig1 = figure1_experiment(m=20, k=2, trials=trials, runner=runner)
    fig2 = figure2_experiment(trials=trials, runner=runner)
    fixed = backup_fixes_pathology(trials=args.runs, runner=runner)
    print(
        format_table(
            ["experiment", "trials", "failures", "notes"],
            [
                ("Figure 1 push k=2", fig1.trials, fig1.failures,
                 f"{fig1.died_in_pair} died in {{s,t}}"),
                ("Figure 2 push k=2", fig2.trials, fig2.failures,
                 f"{fig2.missed_lonely} missed the lonely site"),
                ("Figure 1 + anti-entropy backup", fixed.trials, fixed.failures,
                 "backup guarantees coverage"),
            ],
            title="Section 3.2 pathologies (Q^-2 spatial rumors)",
        )
    )
    print()


def cmd_deathcerts(args) -> None:
    from repro.experiments.deathcert_scenarios import deletion_suite

    rows = [
        (
            label if label != "reinstatement" else "reinstatement cancelled?",
            (
                result.resurrected
                if label != "reinstatement"
                else not result.value_visible_everywhere
            ),
        )
        for label, result in deletion_suite(runner=_runner(args))
    ]
    print(
        format_table(
            ["scenario", "item resurrected / lost"],
            rows,
            title="Section 2: deletion scenarios",
        )
    )
    print()


def cmd_backup(args) -> None:
    from repro.experiments.backup_scenarios import compare_recovery_strategies

    results = compare_recovery_strategies(
        n=args.n if args.n <= 500 else 150, runner=_runner(args)
    )
    print(
        format_table(
            ["strategy", "update sends", "mail messages", "cycles", "complete"],
            [
                (r.strategy, r.update_sends, r.mail_messages,
                 r.cycles_to_converge, r.converged)
                for r in results
            ],
            title="Section 1.5: recovery from 50% coverage",
        )
    )
    print()


def cmd_line(args) -> None:
    from repro.experiments.spatial import line_scaling

    rows = line_scaling(runs=max(2, args.runs // 3), runner=_runner(args))
    print(
        format_table(
            ["n", "a", "link traffic/cycle", "t_last"],
            [(r.n, r.a, r.mean_link_traffic, r.t_last) for r in rows],
            title="Section 3: d^-a on a line",
        )
    )
    print()


def cmd_tau(args) -> None:
    from repro.experiments.workloads import checksum_tau_experiment

    results = checksum_tau_experiment(
        cycles=max(40, args.runs * 5), runner=_runner(args)
    )
    print(
        format_table(
            ["tau", "checksum success", "entries/exchange", "full compares"],
            [
                (r.tau, r.checksum_success_rate,
                 r.entries_examined_per_exchange, r.full_compare_rate)
                for r in results
            ],
            title="Section 1.3: choosing tau under continuous load",
        )
    )
    print()


def cmd_hierarchy(args) -> None:
    from repro.experiments.spatial import spatial_table
    from repro.topology.cin import build_cin_like_topology
    from repro.topology.distance import SiteDistances
    from repro.topology.hierarchy import HierarchicalSelector
    from repro.topology.spatial import SortedListSelector, UniformSelector

    cin = build_cin_like_topology()
    distances = SiteDistances(cin.topology)
    selectors = [
        ("uniform", UniformSelector(cin.sites)),
        ("a=2.0", SortedListSelector(distances, a=2.0)),
        ("hierarchy", HierarchicalSelector(distances, backbone_count=16)),
    ]
    rows = spatial_table(
        cin=cin, runs=args.runs, selectors=selectors, runner=_runner(args)
    )
    print(
        format_table(
            SPATIAL_HEADERS,
            [r.as_tuple() for r in rows],
            title="Section 4 extension: dynamic hierarchy",
        )
    )
    print()


def cmd_trace(args) -> None:
    """``trace analyze <trace.jsonl>``: infection trees from a trace."""
    import json

    from repro.obs.events import TraceError, read_trace
    from repro.obs.lineage import LineageIndex, render_analysis

    rest = list(args.rest)
    if len(rest) != 2 or rest[0] != "analyze":
        print("usage: repro trace analyze <trace.jsonl>", file=sys.stderr)
        raise SystemExit(2)
    path = rest[1]
    try:
        index = LineageIndex.from_events(read_trace(path))
    except (OSError, TraceError) as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    if args.json:
        print(json.dumps(index.to_dict(), indent=2, sort_keys=True))
    else:
        print("\n".join(render_analysis(index)))


def _node_config(args):
    from repro.net.node import NodeConfig
    from repro.protocols.base import ExchangeMode

    return NodeConfig(
        anti_entropy_interval=args.interval,
        rumor_interval=max(args.interval / 4.0, 0.01),
        mode=ExchangeMode(args.mode),
        strategy=args.strategy,
        tau=args.tau,
        selector=args.selector,
    )


def cmd_live_demo(args) -> None:
    import asyncio
    import json

    from repro.net.runner import live_demo

    report = asyncio.run(
        live_demo(
            nodes=args.nodes,
            config=_node_config(args),
            churn=args.churn,
            timeout=args.time_limit,
            trace_file=args.trace_file,
            metrics_file=args.metrics_json,
        )
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print("live demo: one update through a real TCP gossip cluster")
        print("\n".join(report.lines()))
    if not report.converged:
        raise SystemExit(1)


def cmd_workload(args) -> None:
    """``workload``: steady-state traffic through sim and/or live runs.

    By default runs BOTH the simulator harness (optionally with the
    3-datacenter WAN model) and a live localhost cluster under the same
    operation mix, and prints both ``repro-workload/1`` reports — the
    schemas are identical, only the time units differ (cycles vs
    seconds).  ``--rate`` is operations per cycle in the simulator and
    operations per second live.
    """
    import json

    from repro.workload.generators import ClientPool, WorkloadConfig
    from repro.workload.geo import three_datacenters
    from repro.workload.steady import (
        SteadyStateConfig,
        run_steady_state,
        summary_lines,
    )

    workload = WorkloadConfig(
        updates_per_cycle=args.rate,
        key_space=args.key_space,
        zipf_s=args.zipf,
        read_fraction=args.read_fraction,
        delete_fraction=args.delete_fraction,
    )
    pool = ClientPool() if args.closed_loop else None
    reports: Dict[str, Dict] = {}
    if args.runtime in ("sim", "both"):
        wan = None
        if args.wan:
            per_dc = max(args.nodes // 3, 1)
            extra = max(args.nodes - 3 * per_dc, 0)
            wan = three_datacenters(
                sites_per_dc=(per_dc + extra, per_dc, per_dc)
            )
        reports["sim"] = run_steady_state(
            SteadyStateConfig(
                workload=workload,
                n=args.nodes,
                wan=wan,
                cycles=args.cycles,
                window=max(1, min(args.cycles // 10, args.cycles)),
                seed=args.seed,
                pool=pool,
            )
        )
    if args.runtime in ("live", "both"):
        from repro.workload.live import (
            LiveWorkloadConfig,
            run_live_workload_sync,
        )

        reports["live"] = run_live_workload_sync(
            LiveWorkloadConfig(
                workload=workload,
                nodes=max(args.nodes, 3),
                duration=args.duration,
                window=max(args.duration / 4.0, 0.25),
                seed=args.seed,
                node_config=_node_config(args),
                quiesce_timeout=args.time_limit,
            )
        )
    if args.curves_out is not None:
        with open(args.curves_out, "w", encoding="utf-8") as handle:
            json.dump(reports, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        print("steady-state workload: generated traffic, measured curves")
        for report in reports.values():
            print("\n".join(summary_lines(report)))
    for report in reports.values():
        if not report["converged_after_quiesce"]:
            raise SystemExit(1)


def cmd_status(args) -> None:
    import asyncio
    import json

    from repro.net.runner import query_status

    if args.config is None or args.id is None:
        print("error: 'status' requires --config and --id", file=sys.stderr)
        raise SystemExit(2)
    payload = asyncio.run(query_status(args.config, args.id))
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_node(args) -> None:
    import asyncio

    from repro.net.runner import serve_node

    if args.config is None or args.id is None:
        print("error: 'node' requires --config and --id", file=sys.stderr)
        raise SystemExit(2)
    try:
        asyncio.run(serve_node(args.config, args.id, _node_config(args)))
    except KeyboardInterrupt:
        pass


#: Paper experiments: included in ``all`` and driven by --runs/--n.
COMMANDS: Dict[str, Callable] = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "table5": cmd_table5,
    "pathologies": cmd_pathologies,
    "deathcerts": cmd_deathcerts,
    "backup": cmd_backup,
    "line": cmd_line,
    "tau": cmd_tau,
    "hierarchy": cmd_hierarchy,
}

#: Live-runtime commands: not experiments, so excluded from ``all``.
LIVE_COMMANDS: Dict[str, Callable] = {
    "live-demo": cmd_live_demo,
    "node": cmd_node,
    "status": cmd_status,
    "workload": cmd_workload,
}

#: Meta commands: aggregates and tooling, also excluded from ``all``
#: ('tables' would duplicate table1-3; 'trace' analyzes an existing
#: trace file).
META_COMMANDS: Dict[str, Callable] = {
    "tables": cmd_tables,
    "trace": cmd_trace,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures from 'Epidemic Algorithms "
        "for Replicated Database Maintenance' (PODC 1987), or run the live "
        "asyncio gossip runtime (live-demo, node).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + sorted(LIVE_COMMANDS) + sorted(META_COMMANDS)
        + ["all"],
        help="which experiment to run ('all' runs every simulator one)",
    )
    parser.add_argument(
        "rest",
        nargs="*",
        default=[],
        metavar="ARG",
        help="subcommand arguments (only 'trace' takes any: "
        "trace analyze <trace.jsonl>)",
    )
    parser.add_argument(
        "--runs", type=int, default=10,
        help="trials per table row (paper used up to 250; default 10)",
    )
    parser.add_argument(
        "--n", type=int, default=1000,
        help="population for the uniform-network tables (default 1000)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for trial batches (default: all CPU cores; "
        "1 = serial; results are identical either way)",
    )
    work = parser.add_argument_group("workload (steady-state traffic)")
    work.add_argument(
        "--runtime", choices=["sim", "live", "both"], default="both",
        help="workload: which runtime(s) to drive (default both)",
    )
    work.add_argument(
        "--rate", type=float, default=8.0,
        help="workload: operation rate — per cycle in the simulator, "
        "per second live (default 8)",
    )
    work.add_argument(
        "--cycles", type=int, default=60,
        help="workload: simulated cycles of sustained injection (default 60)",
    )
    work.add_argument(
        "--duration", type=float, default=4.0,
        help="workload: live injection duration in seconds (default 4)",
    )
    work.add_argument(
        "--key-space", type=int, default=50,
        help="workload: number of distinct keys (default 50)",
    )
    work.add_argument(
        "--zipf", type=float, default=1.1,
        help="workload: Zipf skew of key popularity, 0 = uniform (default 1.1)",
    )
    work.add_argument(
        "--read-fraction", type=float, default=0.3,
        help="workload: fraction of operations that are staleness-sampling "
        "reads (default 0.3)",
    )
    work.add_argument(
        "--delete-fraction", type=float, default=0.05,
        help="workload: fraction of operations that are deletions (default 0.05)",
    )
    work.add_argument(
        "--wan", action="store_true",
        help="workload: run the simulator over the 3-datacenter WAN model "
        "(latency matrix + bandwidth caps) instead of a uniform network",
    )
    work.add_argument(
        "--closed-loop", action="store_true",
        help="workload: closed-loop client pool with think times instead of "
        "open-loop Poisson arrivals",
    )
    work.add_argument(
        "--seed", type=int, default=0,
        help="workload: master seed for the generators (default 0)",
    )
    work.add_argument(
        "--curves-out", default=None, metavar="PATH",
        help="workload: also write the full reports (curves included) as JSON",
    )
    live = parser.add_argument_group("live runtime (live-demo, node)")
    live.add_argument(
        "--nodes", type=int, default=8,
        help="cluster size for live-demo (default 8)",
    )
    live.add_argument(
        "--churn", action="store_true",
        help="live-demo: kill one node mid-run and restart it empty",
    )
    live.add_argument(
        "--interval", type=float, default=0.2,
        help="anti-entropy period in seconds (default 0.2)",
    )
    live.add_argument(
        "--mode", choices=["push", "pull", "push-pull"], default="push-pull",
        help="anti-entropy exchange mode (default push-pull)",
    )
    live.add_argument(
        "--strategy", choices=["full", "checksum", "hierarchical"], default="full",
        help="difference-resolution strategy (default full)",
    )
    live.add_argument(
        "--tau", type=float, default=30.0,
        help="recent-update window for --strategy checksum (seconds)",
    )
    live.add_argument(
        "--selector", default="uniform",
        help="partner selection: 'uniform' or 'spatial:<a>' (default uniform)",
    )
    live.add_argument(
        "--time-limit", type=float, default=30.0,
        help="live-demo convergence timeout in seconds (default 30)",
    )
    live.add_argument(
        "--json", action="store_true",
        help="live-demo: print the report as machine-readable JSON",
    )
    live.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="live-demo: stream every observability event to a JSONL trace",
    )
    live.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="live-demo: dump each node's final STATUS snapshot as JSON",
    )
    live.add_argument(
        "--config", default=None,
        help="node/status: path to the membership roster (.json or .toml)",
    )
    live.add_argument(
        "--id", type=int, default=None,
        help="node/status: the target node's id in the roster",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return 2
    if args.n < 2:
        print("error: --n must be >= 2", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.rest and args.experiment != "trace":
        print(
            f"error: unexpected arguments {args.rest!r} "
            f"(only 'trace' takes positional arguments)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.experiment == "all":
            for name in sorted(COMMANDS):
                print(f"=== {name} ===")
                COMMANDS[name](args)
        elif args.experiment in META_COMMANDS:
            META_COMMANDS[args.experiment](args)
        elif args.experiment in LIVE_COMMANDS:
            try:
                LIVE_COMMANDS[args.experiment](args)
            except ValueError as error:
                # Bad roster / cluster size / selector spec: a config
                # problem, not a crash (MembershipError is a ValueError).
                print(f"error: {error}", file=sys.stderr)
                return 2
        else:
            COMMANDS[args.experiment](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
