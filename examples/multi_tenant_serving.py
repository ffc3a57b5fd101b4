"""Multi-tenant serving on one simulated A100: Punica vs the baselines.

Reproduces the core of Fig 11 at small scale: 80 requests with ShareGPT
lengths, each targeting its own LoRA model (the Distinct workload), served
FCFS at max batch size 32 on a modelled A100-80G with Llama-2 7B. Baselines
can only batch same-model requests, so they collapse to batch size ~1;
Punica's SGMV keeps the batch full.

Run: ``python examples/multi_tenant_serving.py``
"""

from repro import (
    ALL_SYSTEMS,
    LLAMA2_7B,
    ClusterSimulator,
    build_engine,
    generate_trace,
)
from repro.runtime.latency import LatencyStats
from repro.utils.tables import format_table


def main() -> None:
    n_requests = 80
    rows = []
    for dist in ("distinct", "identical"):
        trace = generate_trace(n_requests, dist, seed=0)
        print(f"\n{dist}: {n_requests} requests over {trace.num_lora_models} "
              f"LoRA model(s), {trace.total_response_tokens} tokens to generate")
        for profile in ALL_SYSTEMS:
            engine = build_engine(profile, LLAMA2_7B)
            result = ClusterSimulator([engine]).run(trace)
            rows.append(
                [dist, profile.display_name, f"{result.throughput:.0f}",
                 f"{result.metrics.mean_batch_size():.1f}",
                 f"{1e3 * LatencyStats.from_requests(result.requests).mean_normalized:.0f}"]
            )
    print()
    print(format_table(
        ["workload", "system", "tok/s", "mean batch", "ms/token (e2e)"],
        rows,
        title="Single-GPU multi-tenant serving (cf. paper Fig 11)",
    ))
    punica_distinct = float(next(r[2] for r in rows if r[0] == "distinct" and "Punica" in r[1]))
    best_baseline = max(
        float(r[2]) for r in rows if r[0] == "distinct" and "Punica" not in r[1]
    )
    print(f"\nPunica speedup over best baseline on Distinct: "
          f"{punica_distinct / best_baseline:.1f}x (paper: ~12x)")


if __name__ == "__main__":
    main()
