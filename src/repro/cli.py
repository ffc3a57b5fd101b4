"""Command-line interface: regenerate any checked-in table from the shell.

One subcommand per entry of :data:`repro.bench.experiments.EXPERIMENTS`;
``--out DIR`` saves a table under the name it has in
``benchmarks/results/``.

Examples
--------
::

    python -m repro list
    python -m repro fig08
    python -m repro fig11 --requests 200
    python -m repro all --out results/
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.experiments import (
    EXPERIMENTS,
    positive_float,
    positive_int,
    unit_fraction,
    zipf_alpha,
)
from repro.bench.reporting import FigureTable

EXPERIMENTS_BY_NAME = {experiment.name: experiment for experiment in EXPERIMENTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Punica: Multi-Tenant LoRA Serving'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list every experiment")
    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--out", type=pathlib.Path, default=None,
                       help="directory to save tables into")
    for experiment in EXPERIMENTS:
        p = sub.add_parser(experiment.name, help=experiment.description)
        for flag in experiment.flags:
            p.add_argument(flag.option, type=flag.type, default=flag.default,
                           choices=flag.choices, help=flag.help)
        p.add_argument("--out", type=pathlib.Path, default=None)
    _add_adapters_parser(sub)
    _add_trace_parser(sub)
    _add_perf_parser(sub)
    _add_serve_parser(sub)
    _add_loadgen_parser(sub)
    return parser


def _add_adapters_parser(sub) -> None:
    """The adapter-lifecycle subcommand (registry + tiered cache tooling)."""
    adapters = sub.add_parser(
        "adapters", help="adapter lifecycle: registry listing, cache simulation"
    )
    asub = adapters.add_subparsers(dest="adapters_command", required=True)

    lst = asub.add_parser(
        "list", help="register a trace's adapters and list their metadata"
    )
    lst.add_argument("--requests", type=positive_int, default=500,
                     help="trace size")
    lst.add_argument("--alpha", type=zipf_alpha, default=1.1, help="Zipf skew")
    lst.add_argument("--seed", type=int, default=0)
    lst.add_argument("--out", type=pathlib.Path, default=None)

    simc = asub.add_parser(
        "simulate-cache",
        help="simulate the tiered adapter cache on a Zipf trace",
    )
    simc.add_argument(
        "--tiers", action="append", default=None, metavar="GPU[:HOST]",
        help="GPU adapter slots and host staging slots, e.g. 4:16 "
             "(omit :HOST for unbounded host RAM); repeatable",
    )
    simc.add_argument("--no-prefetch", action="store_true",
                      help="disable the popularity-driven prefetcher")
    simc.add_argument("--seed", type=int, default=0)
    simc.add_argument("--out", type=pathlib.Path, default=None)


def _add_trace_parser(sub) -> None:
    """The tracing subcommand (seeded scenarios + latency breakdowns)."""
    trace = sub.add_parser(
        "trace",
        help="run a seeded scenario, dump its JSONL trace and latency breakdown",
    )
    trace.add_argument(
        "scenario", nargs="?", default="single_gpu",
        choices=["single_gpu", "cluster_migration", "faults", "disagg",
                 "serve", "spec", "slo", "composed", "steady_dense"],
        help="which seeded scenario to run (default: single_gpu)",
    )
    trace.add_argument("--seed", type=int, default=0,
                       help="workload and injector seed")
    trace.add_argument("--out", type=pathlib.Path, default=None,
                       help="write the JSONL trace to this file")
    trace.add_argument("--metrics", action="store_true",
                       help="also print the Prometheus-text metrics snapshot")
    trace.add_argument("--limit", type=positive_int, default=None,
                       help="cap the breakdown table at N requests")


def _add_perf_parser(sub) -> None:
    """Host seconds per layer and function (``repro.obs.profile``)."""
    from repro.obs.profile import GATES, SCENARIOS

    def scenario(value: str) -> str:
        if value not in SCENARIOS:
            raise argparse.ArgumentTypeError(f"pick from {', '.join(SCENARIOS)}")
        return value

    perf = sub.add_parser(
        "perf", help="host seconds per layer and function; the perf gate"
    )
    perf.add_argument("scenarios", nargs="*", type=scenario, metavar="SCENARIO",
                      help=f"any of {', '.join(SCENARIOS)} "
                           f"(default: {' '.join(GATES)}, the gate)")
    perf.add_argument("--seed", type=int, default=0)
    perf.add_argument("--check", action="store_true",
                      help="exit 1 on a gate violation, a missing target or "
                           "a silent layer")
    perf.add_argument("--out", type=pathlib.Path, default=None)


def _add_serve_parser(sub) -> None:
    """The asyncio serving frontend (docs/serving.md)."""
    serve = sub.add_parser(
        "serve",
        help="asyncio token-streaming server with per-tenant admission control",
    )
    serve.add_argument("--backend", choices=["sim", "functional"], default="sim",
                       help="time-warped cluster simulator, or real tokens "
                            "from functional NumPy engines")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7012,
                       help="listening port (0 binds an ephemeral one)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--gpus", type=positive_int, default=2,
                       help="GPU pool size (engines behind the simulator)")
    serve.add_argument("--warp", type=positive_float, default=None,
                       help="virtual seconds per wall second "
                            "(default: unthrottled)")
    serve.add_argument("--duration", type=positive_float, default=None,
                       help="stop after this many wall seconds "
                            "(default: serve until interrupted)")


def _add_loadgen_parser(sub) -> None:
    """The async load generator (client side of docs/serving.md)."""
    loadgen = sub.add_parser(
        "loadgen",
        help="drive concurrent streaming clients against the serving frontend",
    )
    loadgen.add_argument("--host", default=None,
                         help="target server; omitted = spin up an "
                              "in-process server and load it")
    loadgen.add_argument("--port", type=int, default=7012)
    loadgen.add_argument("--backend", choices=["sim", "functional"],
                         default="sim", help="in-process backend")
    loadgen.add_argument("--clients", type=positive_int, default=100)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--cancel-fraction", type=unit_fraction, default=0.1,
                         help="clients that cancel mid-stream")
    loadgen.add_argument("--abort-fraction", type=unit_fraction, default=0.05,
                         help="clients that hard-disconnect mid-stream")
    loadgen.add_argument("--slow-fraction", type=unit_fraction, default=0.05,
                         help="slow readers (sleep between token reads)")
    loadgen.add_argument("--warp", type=positive_float, default=None,
                         help="time warp (in-process runs)")
    loadgen.add_argument("--metrics", action="store_true",
                         help="print the Prometheus snapshot after the run")


def _run_serve_cmd(args) -> int:
    import asyncio

    from repro.serve.harness import build_stack, serve_until

    stack = build_stack(
        args.backend, seed=args.seed, warp=args.warp,
        num_gpus=args.gpus, host=args.host, port=args.port,
    )
    print(f"serving backend={args.backend} on {args.host}:{args.port} "
          f"(warp={args.warp if args.warp is not None else 'unthrottled'})")
    try:
        asyncio.run(serve_until(stack, duration=args.duration))
    except KeyboardInterrupt:
        pass
    return 0


def _run_loadgen(args) -> int:
    import asyncio

    from repro.serve.client import LoadGenerator, LoadSpec, summarize
    from repro.serve.harness import build_stack, run_load

    spec = LoadSpec(
        num_clients=args.clients,
        cancel_fraction=args.cancel_fraction,
        abort_fraction=args.abort_fraction,
        slow_fraction=args.slow_fraction,
        seed=args.seed,
    )
    if args.host is not None:
        async def _against_remote():
            return await LoadGenerator(args.host, args.port, spec).run()

        results = asyncio.run(_against_remote())
        summary, stack = summarize(results), None
    else:
        stack = build_stack(args.backend, seed=args.seed, warp=args.warp)
        summary, _ = asyncio.run(run_load(stack, spec))
    print(f"# loadgen backend={args.backend if args.host is None else args.host} "
          f"clients={args.clients} seed={args.seed}")
    for key, value in summary.items():
        print(f"{key}: {value}")
    if args.metrics:
        if stack is None:
            print("(metrics are only local to in-process runs)")
        else:
            print()
            print(stack.metrics.registry.render_prometheus(), end="")
    return 0


def _run_perf(args) -> int:
    from repro.obs.profile import GATES, run

    failures: "list[str]" = []
    for name in args.scenarios or list(GATES):
        profile = run(name, seed=args.seed)
        text = profile.render()
        print(text + "\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"perf_{name}.txt").write_text(text + "\n")
        failures += profile.failures
    if args.check and failures:
        for failure in failures:
            print(f"PERF CHECK FAILURE: {failure}", file=sys.stderr)
        return 1
    return 0


def _run_trace(args) -> int:
    from repro.obs import breakdown_table, compute_breakdowns, run_scenario
    from repro.obs.analysis import breakdown_totals

    result = run_scenario(args.scenario, seed=args.seed)
    breakdowns = compute_breakdowns(result.tracer)
    print(f"# scenario={args.scenario} seed={args.seed} "
          f"requests={len(result.requests)} events={len(result.tracer)}")
    print(breakdown_table(breakdowns, limit=args.limit))
    totals = breakdown_totals(breakdowns)
    parts = "  ".join(f"{k}={v:.4f}s" for k, v in totals.items())
    print(f"totals: {parts}")
    if args.metrics:
        print()
        print(result.metrics.registry.render_prometheus(), end="")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        result.tracer.dump_jsonl(args.out)
        print(f"trace written to {args.out}")
    return 0


def _parse_tiers(spec: str) -> "tuple[int, int | None]":
    gpu, _, host = spec.partition(":")
    try:
        gpu_slots = int(gpu)
        host_slots = int(host) if host else None
    except ValueError:
        raise SystemExit(f"bad --tiers spec {spec!r}; expected GPU[:HOST]")
    if gpu_slots < 1 or (host_slots is not None and host_slots < 1):
        raise SystemExit(f"--tiers slots must be >= 1, got {spec!r}")
    return gpu_slots, host_slots


def _run_adapters(args) -> int:
    from dataclasses import replace

    from repro.adapters import AdapterRegistry, register_trace_adapters
    from repro.bench.adapter_cache import (
        QUICK,
        build_adapter_cluster,
        mean_cold_ttft,
    )
    from repro.models.config import LLAMA2_7B
    from repro.runtime.latency import LatencyStats
    from repro.utils.units import MIB, MS
    from repro.workloads.trace import generate_trace, open_loop_trace

    if args.adapters_command == "list":
        trace = generate_trace(
            args.requests, "skewed", seed=args.seed, alpha=args.alpha
        )
        registry = AdapterRegistry()
        register_trace_adapters(registry, trace, LLAMA2_7B)
        counts: "dict[str, int]" = {}
        for spec in trace:
            counts[spec.lora_id] = counts.get(spec.lora_id, 0) + 1
        table = FigureTable(
            figure_id="Adapter registry",
            title=(
                f"{len(registry)} adapters over {len(trace)} requests "
                f"(Zipf-{args.alpha})"
            ),
            headers=["lora_id", "rank", "mib", "trace_requests", "tier"],
        )
        for meta in sorted(
            registry.adapters(), key=lambda m: -counts[m.lora_id]
        ):
            table.add_row(
                meta.lora_id, meta.rank, meta.nbytes / MIB,
                counts[meta.lora_id], registry.tier(meta.lora_id).name,
            )
    else:
        scale = QUICK
        trace = open_loop_trace(
            rate=scale.rate, duration=scale.duration, distribution="skewed",
            seed=args.seed, alpha=scale.alpha,
        )
        table = FigureTable(
            figure_id="Adapter cache simulation",
            title=(
                f"{scale.num_gpus} GPUs, {trace.num_lora_models} adapters, "
                f"prefetch {'off' if args.no_prefetch else 'on'}"
            ),
            headers=[
                "tiers", "cold_ttft_ms", "mean_ttft_ms", "gpu_hits",
                "host_hits", "disk_hits", "evictions", "prefetch_acc",
            ],
        )
        for spec in args.tiers or ["4", "4:16", "2:8"]:
            gpu_slots, host_slots = _parse_tiers(spec)
            sim, _, _ = build_adapter_cluster(
                trace,
                scale=replace(scale, gpu_adapter_slots=gpu_slots),
                prefetch=not args.no_prefetch,
                host_slots=host_slots,
            )
            result = sim.run(trace)
            hits = result.metrics.adapter_hit_counts()
            table.add_row(
                spec, mean_cold_ttft(result) / MS,
                LatencyStats.from_requests(result.requests).mean_ttft / MS,
                hits["gpu"], hits["host"], hits["disk"],
                result.metrics.eviction_count(),
                result.metrics.prefetch_accuracy(),
            )
        table.add_note("tiers = GPU adapter slots[:host staging slots]")
    text = table.render()
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        name = f"adapters_{args.adapters_command.replace('-', '_')}"
        (args.out / f"{name}.txt").write_text(text + "\n")
    return 0


def _emit(table: FigureTable, out: "pathlib.Path | None") -> None:
    text = table.render()
    print(text + "\n")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / table.file_name).write_text(text + "\n")


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment in EXPERIMENTS:
            print(f"{experiment.name:14s} {experiment.description}")
        return 0
    if args.command == "all":
        for experiment in EXPERIMENTS:
            _emit(experiment.run(), args.out)
        return 0
    if args.command == "adapters":
        return _run_adapters(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "serve":
        return _run_serve_cmd(args)
    if args.command == "loadgen":
        return _run_loadgen(args)
    _emit(EXPERIMENTS_BY_NAME[args.command].run_with(args), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
