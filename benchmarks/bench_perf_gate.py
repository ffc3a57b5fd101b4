"""Fast-path perf-regression gate (CI entry point).

Times the Figure-13 cluster scenario through the fast-path engine, the
fast-path engine with a Tracer attached and the reference engine, verifies
all three produced the same simulation, and checks the numbers — speedup,
absolute throughput, and ``traced_ratio`` (traced over untraced fast
wall-clock, the observer effect) — against the thresholds in
``benchmarks/BENCH_perf.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_gate.py            # measure, print
    PYTHONPATH=src python benchmarks/bench_perf_gate.py --check    # CI gate: 2 rounds,
                                                                   # exit 1 on violation
    PYTHONPATH=src python benchmarks/bench_perf_gate.py --update   # rewrite BENCH_perf.json

``--check`` runs the measurement twice: besides the speedup and absolute
throughput floors, it bounds run-to-run variance so a noisy runner fails
loudly instead of gating on a fluke sample.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.perf_gate import BENCH_JSON, run_perf_gate


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check", action="store_true",
        help="gate mode: two rounds, nonzero exit on any threshold violation",
    )
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite {BENCH_JSON.name} with the measured numbers",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="measurement rounds (default: 2 with --check, else 1)",
    )
    parser.add_argument(
        "--scenario", default=None, choices=["fig13_quick", "fig13_1m", "all"],
        help="which gate to run (default: all with --check, else fig13_quick)",
    )
    args = parser.parse_args(argv)
    rounds = args.rounds if args.rounds is not None else (2 if args.check else 1)
    scenario = args.scenario or ("all" if args.check else "fig13_quick")
    table, failures = run_perf_gate(
        seed=args.seed, rounds=rounds, write_json=args.update, scenario=scenario
    )
    print(table.render())
    if args.check and failures:
        for failure in failures:
            print(f"PERF GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
