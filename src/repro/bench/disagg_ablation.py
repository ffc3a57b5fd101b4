"""Ablation: disaggregated prefill/decode vs colocated serving.

The same decode-heavy trace is served two ways on four GPUs:

* **colocated** — the stock 4-GPU cluster: every engine runs prefills and
  decodes, so each prefill invocation (prompt-length compute) stalls the
  decodes batched with it;
* **disagg** — a 2-prefill + 2-decode split (docs/disagg.md): prefills
  never share a batch with steady decodes, at the price of one paged KV
  handoff per request over the interconnect.

The table reports the serving-level consequences: time-to-first-token
(the handoff makes it *worse* for disagg — the transfer sits on the
critical path and shows up in the `transfer` latency tile), and p50/p99
inter-token latency, read as TPOT
(:func:`~repro.obs.analysis.request_tpots`; *better* for disagg — decode
GPUs never absorb a prefill stall). That is exactly the
TTFT-vs-smoothness trade the disaggregation literature reports.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import FigureTable
from repro.cluster.disagg import INTERCONNECTS, DisaggConfig
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.hw.interconnect import InterconnectSpec
from repro.models.config import LLAMA2_7B
from repro.obs.analysis import breakdown_totals, compute_breakdowns, request_tpots
from repro.obs.tracer import Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.latency import LatencyStats
from repro.utils.units import MS
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import Trace, generate_trace

NUM_GPUS = 4
RATE = 60.0
DURATION = 20.0
MAX_BATCH = 8
DECODE_BATCH = 2 * MAX_BATCH
"""Slot parity: the colocated pool decodes in 4x8 slots, the decode pool
in 2x16 — same cluster-wide decode concurrency, so per-step batch depth
(and its latency) is comparable and the measured gap isolates prefill
interference."""
PROMPT_LEN = 384
RESPONSE_LEN = 16
"""Decode-heavy mix: ~94% of invocations are decode steps, but the long
prompts make each prefill invocation an expensive stall for the decodes
batched with it (prefill_batch_limit=1, §5: one prompt can ride along
with every step whenever the queue is non-empty). The high arrival rate
keeps a prefill in flight on every colocated GPU most of the time, which
is exactly the interference disaggregation removes."""


def _trace(seed: int) -> Trace:
    lengths = ShareGptLengths(
        max_prompt_len=PROMPT_LEN, max_response_len=RESPONSE_LEN
    )
    arrivals = PoissonArrivals(rate=constant_rate(RATE), duration=DURATION)
    return generate_trace(
        int(RATE * DURATION) + 32, "skewed", seed=seed,
        lengths=lengths, arrivals=arrivals,
    )


def _engine(
    gpu_id: str, max_batch: int = MAX_BATCH, role: str = "both"
) -> GpuEngine:
    return GpuEngine(
        gpu_id,
        SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
        EngineConfig(max_batch_size=max_batch),
        role=role,
    )


def run_colocated(seed: int = 0) -> "tuple[SimulationResult, Tracer]":
    tracer = Tracer()
    sim = ClusterSimulator(
        [_engine(f"gpu{i}") for i in range(NUM_GPUS)], tracer=tracer
    )
    return sim.run(_trace(seed)), tracer


def run_disaggregated(
    seed: int = 0, interconnect: "InterconnectSpec | None" = None
) -> "tuple[SimulationResult, Tracer, ClusterSimulator]":
    tracer = Tracer()
    sim = ClusterSimulator(
        [_engine(f"p{i}", role="prefill") for i in range(NUM_GPUS // 2)]
        + [_engine(f"d{i}", DECODE_BATCH, "decode") for i in range(NUM_GPUS // 2)],
        handoff=DisaggConfig(
            interconnect=interconnect or INTERCONNECTS["nvlink"],
            decode_queue_limit=4 * DECODE_BATCH,
        ),
        tracer=tracer,
    )
    return sim.run(_trace(seed)), tracer, sim


def _summarize(result: SimulationResult, tracer: Tracer) -> "dict[str, float]":
    tpots = request_tpots(tracer)
    totals = breakdown_totals(compute_breakdowns(tracer))
    return {
        "finished": result.finished_requests,
        "tok_s": result.throughput,
        "mean_ttft_ms": LatencyStats.from_requests(result.requests).mean_ttft / MS,
        "p50_itl_ms": float(np.percentile(tpots, 50)) / MS,
        "p99_itl_ms": float(np.percentile(tpots, 99)) / MS,
        "transfer_s": totals.get("transfer", 0.0),
    }


def run_disagg_ablation(
    seed: int = 0, interconnect_name: str = "nvlink"
) -> FigureTable:
    interconnect = INTERCONNECTS[interconnect_name]
    colo_result, colo_tracer = run_colocated(seed)
    dis_result, dis_tracer, dis_sim = run_disaggregated(seed, interconnect)
    table = FigureTable(
        figure_id="Ablation disagg",
        title=(
            f"Colocated 4-GPU vs 2-prefill+2-decode over "
            f"{interconnect.name} ({RATE:.0f} req/s, "
            f"{PROMPT_LEN}-token prompts, {RESPONSE_LEN}-token responses)"
        ),
        headers=[
            "mode", "finished", "tok_s", "mean_ttft_ms",
            "p50_itl_ms", "p99_itl_ms", "transfer_s",
        ],
    )
    for mode, stats in (
        ("colocated", _summarize(colo_result, colo_tracer)),
        ("disagg", _summarize(dis_result, dis_tracer)),
    ):
        table.add_row(
            mode, stats["finished"], stats["tok_s"], stats["mean_ttft_ms"],
            stats["p50_itl_ms"], stats["p99_itl_ms"], stats["transfer_s"],
        )
    m = dis_sim.metrics
    table.add_note(
        f"disagg: {m.kv_transfer_count()} KV handoffs "
        f"({m.kv_transfer_seconds():.4f}s on the wire), "
        f"{m.colocated_fallback_count()} colocated fallbacks"
    )
    table.add_note(
        "disagg trades TTFT (the handoff sits on the critical path) for "
        "inter-token smoothness (decode GPUs never absorb a prefill stall)"
    )
    return table


def disagg_claims(table: FigureTable) -> None:
    headers = list(table.headers)
    colo, dis = (dict(zip(headers, row)) for row in table.rows)
    assert (colo["mode"], dis["mode"]) == ("colocated", "disagg")
    # Both modes finish the same work.
    assert dis["finished"] == colo["finished"]
    # The headline claim: decode smoothness. With prefills quarantined
    # on their own GPUs, both the median and the tail of inter-token
    # latency drop.
    assert dis["p50_itl_ms"] < colo["p50_itl_ms"], (colo, dis)
    assert dis["p99_itl_ms"] < colo["p99_itl_ms"], (colo, dis)
    # The price: every request pays a KV handoff, which shows up in
    # TTFT and in the transfer latency tile.
    assert dis["transfer_s"] > 0.0
    assert dis["mean_ttft_ms"] > colo["mean_ttft_ms"]
