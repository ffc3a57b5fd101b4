"""Ablation: throughput dip and recovery after an injected GPU crash.

A 4-GPU cluster serves a constant-rate trace; halfway through, one GPU
crashes. The §5.3 evict + re-prefill path re-places its in-flight
requests on the survivors, so aggregate throughput dips (a quarter of the
compute is gone, and re-prefills burn tokens already paid for) and then
settles at the 3-GPU steady state instead of collapsing. The table puts
the healthy and crashed runs side by side per time bucket — the cluster
analogue of the paper's Fig 13 middle panel, under chaos.
"""

from __future__ import annotations

from repro.bench.reporting import FigureTable
from repro.cluster.faults import FaultInjector
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

NUM_GPUS = 4
DURATION = 120.0
RATE = 16.0
"""Chosen so the 4-GPU pool runs near its ~2000 tok/s capacity: after the
crash the 3 survivors saturate (~1570 tok/s), making the dip visible."""
CRASH_TIME = 60.0
BUCKET = 10.0
MAX_BATCH = 8


def _build_cluster(fault_injector=None) -> ClusterSimulator:
    engines = [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
            EngineConfig(max_batch_size=MAX_BATCH),
        )
        for i in range(NUM_GPUS)
    ]
    return ClusterSimulator(
        engines,
        SchedulerConfig(migration_interval=10.0),
        fault_injector=fault_injector,
    )


def _trace(seed: int):
    lengths = ShareGptLengths(max_prompt_len=128, max_response_len=128)
    arrivals = PoissonArrivals(rate=constant_rate(RATE), duration=DURATION)
    return generate_trace(
        int(DURATION * RATE) + 64, "skewed", seed=seed,
        lengths=lengths, arrivals=arrivals,
    )


def run_faults_simulation(
    seed: int = 0, crash_time: float = CRASH_TIME
) -> "tuple[SimulationResult, SimulationResult, FaultInjector]":
    """Run the healthy baseline and the crash run on the same trace."""
    healthy = _build_cluster().run(_trace(seed))
    injector = FaultInjector.crash_at(crash_time, seed=seed)
    crashed = _build_cluster(fault_injector=injector).run(_trace(seed))
    return healthy, crashed, injector


def run_faults_ablation(
    seed: int = 0, crash_time: float = CRASH_TIME
) -> FigureTable:
    healthy, crashed, injector = run_faults_simulation(seed, crash_time)
    duration = max(healthy.duration, crashed.duration)
    table = FigureTable(
        figure_id="Ablation faults",
        title=(
            f"GPU crash at t={crash_time:.0f}s on a {NUM_GPUS}-GPU pool "
            f"({RATE:.0f} req/s, re-place via §5.3 evict + re-prefill)"
        ),
        headers=["t_start_s", "healthy_tok_s", "crashed_tok_s", "ratio"],
    )
    h_series = dict(healthy.metrics.throughput_series(BUCKET, duration))
    c_series = dict(crashed.metrics.throughput_series(BUCKET, duration))
    for t in sorted(h_series):
        h, c = h_series[t], c_series.get(t, 0.0)
        table.add_row(t, h, c, c / h if h > 0 else 0.0)
    m = crashed.metrics
    table.add_note(
        f"crash run: {crashed.finished_requests}/{len(crashed.requests)} "
        f"finished, {crashed.failed_requests} shed | "
        f"{m.fault_count()} fault, {m.replacement_count()} re-placed, "
        f"recovery {m.mean_recovery_latency():.2f}s | "
        f"healthy: {healthy.finished_requests}/{len(healthy.requests)}"
    )
    table.add_note(
        "ratio < 1 right after the crash (lost GPU + re-prefill tax), "
        "then recovers toward the 3/4-capacity steady state"
    )
    return table


def faults_claims(table: FigureTable) -> None:
    # Throughput recovers: after the crash settles, the crashed cluster
    # still moves tokens at a healthy fraction of the 4-GPU baseline.
    ratios = [
        ratio for t, healthy, _, ratio in table.rows
        if t >= CRASH_TIME + 20.0 and healthy > 0
    ]
    assert ratios, "no post-crash buckets with load to compare"
    assert max(ratios) > 0.5, f"throughput never recovered: {ratios}"
