"""``python3 -m perfbench`` — run from the root of a checkout.

One workload, as the driver calls it (the last line of output is the
JSON result)::

    python3 -m perfbench --workload live-rumor --seed 1987 --seconds 15 --trace 0

Every workload, untraced then traced, every metric printed by name
with its unit, and ``perfbench/out/result-<seed>.json`` written::

    python3 -m perfbench --seed 1987

``--selfcheck`` runs that set twice (three untraced runs per workload,
medians kept) and exits 1 when the two sets disagree.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _find_repro() -> None:
    """The benchmark measures the ``repro`` package beside it, from source."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/repro package under {ROOT}; nothing to measure")
    sys.path.insert(0, str(source))


def main(argv=None) -> int:
    from perfbench.spec import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1987, help="every input is generated from it")
    parser.add_argument("--seconds", type=float, default=None, help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the full set twice, medians of three runs; exit 1 if the sets disagree")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 sizes; numbers are labelled smoke and never compared")
    args = parser.parse_args(argv)
    if args.selfcheck and (args.smoke or args.workload):
        parser.error("--selfcheck compares two full sets; smoke numbers are never compared")
    _find_repro()

    from perfbench import bench
    from perfbench.env import environment
    from perfbench.spec import END_TO_END, PER_LAYER

    if args.seconds is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = 0.5 if args.smoke else float(benchmark["run_seconds"])
    label = "smoke " if args.smoke else ""
    env = environment()
    print(f"{label}environment: {json.dumps(env, sort_keys=True)}")

    if args.workload is not None:
        name = args.workload
        if args.trace:
            layer, reference, traced, tracer = bench.run_traced(name, args.seed, args.seconds, args.smoke)
            human = bench.per_layer_lines(name, layer, traced, tracer)
            line = bench.driver_line(
                layer, PER_LAYER,
                reference["attempted"] + traced.attempted, reference["failed"] + traced.failed,
            )
        else:
            result = bench.run_untraced(name, args.seed, args.seconds, args.smoke)
            human = bench.end_to_end_lines(name, result)
            line = bench.driver_line(result.end_to_end(), END_TO_END, result.attempted, result.failed)
        for text in human:
            print(label + text)
        print(json.dumps(line))
        return 0

    repeats = bench.SELFCHECK_REPEATS if args.selfcheck else 1
    sets = [bench.run_suite(args.seed, args.seconds, args.smoke, repeats)]
    if args.selfcheck:
        print("selfcheck: second set")
        sets.append(bench.run_suite(args.seed, args.seconds, args.smoke, repeats))
    document = {
        "schema": "perfbench/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": env,
        "workloads": sets[0],
    }
    path = bench.OUT_DIR / f"result-{'smoke-' if args.smoke else ''}{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    failed = sum(entry["failed"] for entry in sets[0].values())
    if args.selfcheck:
        offending = bench.compare_sets(*sets)
        for text in offending:
            print(f"selfcheck: {text}")
        print(f"selfcheck: {'FAILED' if offending else 'passed'}"
              f" ({len(offending)} disagreements between the two sets)")
        return 1 if offending else 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
