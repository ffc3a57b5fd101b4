"""Ablation: tiered adapter cache and prefetching (cold-start latency).

Punica §5.2 measures the raw cost of an on-demand LoRA load; this ablation
measures what the *adapter lifecycle subsystem* does to that cost at the
cluster level. Each GPU runs a :class:`~repro.adapters.pool.UnifiedMemoryPool`
(KvCache and adapter weights share one byte budget, S-LoRA-style) sized so
only a handful of adapters fit GPU-side at once; a Zipf-skewed open-loop
trace then exercises the DISK -> HOST -> GPU ladder. The sweep toggles the
popularity-driven prefetcher and the host staging budget and reports mean
time-to-first-token next to the hit-tier breakdown — the headline row pair
is prefetch-off vs prefetch-on, where staging hot adapters ahead of demand
moves the disk leg (and often the PCIe leg) off the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adapters import (
    AdapterRegistry,
    HostTierSpec,
    PrefetchConfig,
    Prefetcher,
    UnifiedMemoryPool,
    register_trace_adapters,
)
from repro.bench.fig11_textgen import paper_scale
from repro.bench.reporting import FigureTable
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.models.config import LLAMA2_7B, LlamaConfig
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.latency import LatencyStats
from repro.runtime.request import Request, RequestState
from repro.utils.units import MS
from repro.workloads.trace import Trace, open_loop_trace


@dataclass(frozen=True)
class AdapterCacheScale:
    """Workload + memory sizing for one ablation run."""

    num_gpus: int = 2
    rate: float = 6.0
    duration: float = 90.0
    kv_budget_tokens: int = 20_000
    """KvCache tokens the unified budget is sized for (beyond adapter slots)."""
    gpu_adapter_slots: int = 4
    """Adapters the unified budget fits alongside a full KvCache."""
    rank: int = 16
    max_batch_size: int = 32
    alpha: float = 1.1
    """Zipf decay; 1.1 gives a long adapter tail (~10x the adapters of the
    paper's 1.5 at this trace size), which is what a cold-start study needs."""


QUICK = AdapterCacheScale()
PAPER = AdapterCacheScale(num_gpus=4, rate=12.0, duration=600.0)

DEFAULT_PREFETCH = PrefetchConfig(interval=0.25, host_topk=32, gpu_topk=2)
"""Bench default: stage aggressively (host RAM is cheap), promote gently."""


def build_adapter_cluster(
    trace: Trace,
    scale: AdapterCacheScale | None = None,
    config: LlamaConfig = LLAMA2_7B,
    prefetch: bool = True,
    host_slots: "int | None" = None,
    prefetch_config: "PrefetchConfig | None" = None,
    scheduler_config: "SchedulerConfig | None" = None,
) -> "tuple[ClusterSimulator, AdapterRegistry, Prefetcher | None]":
    """A cluster of unified-pool engines sharing one adapter registry.

    The per-GPU budget is ``kv_budget_tokens`` of KvCache plus
    ``gpu_adapter_slots`` adapters' worth of bytes — enough KvCache that the
    batch is never starved, few enough adapter slots that the Zipf tail
    forces evictions. ``host_slots`` bounds the host staging tier (``None``
    = unbounded host RAM). The trace's per-adapter counts seed the registry
    popularity priors, so the prefetcher has a signal from t=0.
    """
    scale = scale or QUICK
    adapter_bytes = float(config.lora_bytes(scale.rank))
    host = HostTierSpec(
        capacity_bytes=host_slots * adapter_bytes if host_slots else None
    )
    registry = AdapterRegistry(host=host)
    register_trace_adapters(registry, trace, config, rank=scale.rank)
    bytes_per_token = config.kv_bytes_per_token()
    capacity = (
        scale.kv_budget_tokens * bytes_per_token
        + scale.gpu_adapter_slots * adapter_bytes
    )
    engines = []
    for i in range(scale.num_gpus):
        gpu_id = f"gpu{i:02d}"
        pool = UnifiedMemoryPool(
            capacity_bytes=capacity,
            page_size=16,
            bytes_per_token=bytes_per_token,
            registry=registry,
            gpu_id=gpu_id,
        )
        backend = SimulatedBackend(
            config, lora_rank=scale.rank, unified_pool=pool
        )
        engines.append(
            GpuEngine(
                gpu_id,
                backend,
                EngineConfig(max_batch_size=scale.max_batch_size),
            )
        )
    prefetcher = (
        Prefetcher(registry, prefetch_config or DEFAULT_PREFETCH)
        if prefetch
        else None
    )
    sim = ClusterSimulator(
        engines, scheduler_config, registry=registry, prefetcher=prefetcher
    )
    return sim, registry, prefetcher


def mean_cold_ttft(result: SimulationResult) -> float:
    """Mean TTFT of each adapter's *first* request — the cold-start cost the
    prefetcher attacks; later requests mostly hit warm tiers either way."""
    first: "dict[str, Request]" = {}
    for r in sorted(result.requests, key=lambda r: r.spec.arrival_time):
        if r.state is RequestState.FINISHED:
            first.setdefault(r.lora_id, r)
    return LatencyStats.from_requests(first.values()).mean_ttft if first else 0.0


def run_adapter_cache_ablation(
    scale: AdapterCacheScale | None = None,
    config: LlamaConfig = LLAMA2_7B,
    seed: int = 0,
) -> FigureTable:
    """Sweep prefetch on/off and the host staging budget on one trace."""
    scale = scale or (PAPER if paper_scale() else QUICK)
    trace = open_loop_trace(
        rate=scale.rate, duration=scale.duration, distribution="skewed",
        seed=seed, alpha=scale.alpha,
    )
    variants = [
        ("no-prefetch", False, None),
        ("prefetch", True, None),
        ("prefetch+small-host", True, max(2, scale.gpu_adapter_slots * 2)),
    ]
    table = FigureTable(
        figure_id="Ablation adapter-cache",
        title=(
            f"Tiered adapter cache: {scale.num_gpus} GPUs, "
            f"{scale.gpu_adapter_slots} GPU adapter slots, {config.name}, "
            f"Zipf-{scale.alpha}, {trace.num_lora_models} adapters"
        ),
        headers=[
            "variant", "cold_ttft_ms", "mean_ttft_ms", "gpu_hits", "host_hits",
            "disk_hits", "evictions", "prefetch_acc", "pcie_busy_s",
        ],
    )
    for label, prefetch, host_slots in variants:
        sim, _, _ = build_adapter_cluster(
            trace, scale=scale, config=config,
            prefetch=prefetch, host_slots=host_slots,
        )
        result = sim.run(trace)
        hits = result.metrics.adapter_hit_counts()
        table.add_row(
            label,
            mean_cold_ttft(result) / MS,
            LatencyStats.from_requests(result.requests).mean_ttft / MS,
            hits["gpu"], hits["host"], hits["disk"],
            result.metrics.eviction_count(),
            result.metrics.prefetch_accuracy(),
            result.metrics.pcie_busy_seconds(),
        )
    table.add_note(
        "unified pool: KvCache and adapter weights share one per-GPU byte "
        "budget (S-LoRA); prefetcher stages hot adapters host-side and "
        "promotes over idle PCIe (CaraServe)"
    )
    table.add_note(
        "disk hits pay staging + PCIe; host hits only PCIe; gpu hits are free"
    )
    return table


def adapter_cache_claims(table: FigureTable) -> None:
    rows = {row[0]: row for row in table.rows}
    cold = {v: rows[v][table.headers.index("cold_ttft_ms")] for v in rows}
    disk = {v: rows[v][table.headers.index("disk_hits")] for v in rows}
    acc = {v: rows[v][table.headers.index("prefetch_acc")] for v in rows}
    # The headline claim: prefetching cuts simulated cold-start latency.
    assert cold["prefetch"] < cold["no-prefetch"]
    # Mechanism check: the saving comes from demand loads skipping the disk
    # tier, and promotions are not wasted speculation.
    assert disk["prefetch"] < disk["no-prefetch"]
    assert acc["no-prefetch"] == 0.0
    assert acc["prefetch"] > 0.25
    # Shrinking the host staging tier erodes the benefit — the tiers matter.
    assert cold["prefetch"] <= cold["prefetch+small-host"]
