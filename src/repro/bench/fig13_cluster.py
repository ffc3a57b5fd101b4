"""Figure 13: cluster deployment — 16 GPUs, ramp-up/ramp-down Poisson load.

The paper runs one hour on 16 A100-40G GPUs serving 7B with Zipf-1.5 LoRA
popularity: request rate ramps up then down (upper panel), aggregate token
throughput follows it (middle panel), and per-GPU batch-size timelines
(lower panel) show GPUs running at the max batch size when busy and
draining to idle as load falls — the consolidation property.

Default scale is shortened (fewer GPUs, minutes not an hour) so the bench
runs in seconds; ``REPRO_PAPER_SCALE=1`` restores 16 GPUs / 1 hour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.fig11_textgen import paper_scale
from repro.bench.reporting import FigureTable
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.hw.spec import A100_40G, GpuSpec
from repro.models.config import LLAMA2_7B, LlamaConfig
from repro.obs.tracer import Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.workloads.arrivals import PoissonArrivals, RampProfile
from repro.workloads.trace import generate_trace


@dataclass(frozen=True)
class Fig13Scale:
    num_gpus: int
    duration: float
    peak_rate: float
    bucket: float


QUICK = Fig13Scale(num_gpus=6, duration=240.0, peak_rate=10.0, bucket=20.0)
PAPER = Fig13Scale(num_gpus=16, duration=3600.0, peak_rate=16.0, bucket=120.0)


def build_cluster(
    num_gpus: int,
    config: LlamaConfig = LLAMA2_7B,
    gpu: GpuSpec = A100_40G,
    max_batch_size: int = 32,
    scheduler_config: SchedulerConfig | None = None,
    fast_path: bool | None = None,
    tracer: "Tracer | None" = None,
) -> ClusterSimulator:
    engines = [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(config, gpu=gpu, fast_path=fast_path),
            EngineConfig(max_batch_size=max_batch_size),
            fast_path=fast_path,
        )
        for i in range(num_gpus)
    ]
    return ClusterSimulator(
        engines, scheduler_config, tracer=tracer, fast_path=fast_path
    )


def run_fig13_simulation(
    scale: Fig13Scale | None = None,
    config: LlamaConfig = LLAMA2_7B,
    gpu: GpuSpec = A100_40G,
    seed: int = 0,
    scheduler_config: SchedulerConfig | None = None,
    fast_path: bool | None = None,
    tracer: "Tracer | None" = None,
) -> "tuple[SimulationResult, Fig13Scale]":
    scale = scale or (PAPER if paper_scale() else QUICK)
    arrivals = PoissonArrivals(
        rate=RampProfile(duration=scale.duration, peak_rate=scale.peak_rate,
                         hold_fraction=0.2),
        duration=scale.duration,
    )
    # Provision enough specs for the Poisson draw.
    n_specs = int(scale.duration * scale.peak_rate) + 64
    trace = generate_trace(n_specs, "skewed", seed=seed, arrivals=arrivals)
    sim = build_cluster(
        scale.num_gpus, config=config, gpu=gpu, scheduler_config=scheduler_config,
        fast_path=fast_path, tracer=tracer,
    )
    result = sim.run(trace)
    return result, scale


def run_fig13(
    scale: Fig13Scale | None = None,
    config: LlamaConfig = LLAMA2_7B,
    seed: int = 0,
) -> FigureTable:
    result, scale = run_fig13_simulation(scale=scale, config=config, seed=seed)
    table = FigureTable(
        figure_id="Figure 13",
        title=(
            f"Cluster deployment: {scale.num_gpus} GPUs, {scale.duration:.0f}s ramp, "
            f"{config.name}, Zipf-1.5"
        ),
        headers=["t_start_s", "req_per_s", "tok_per_s", "active_gpus", "mean_active_batch"],
    )
    duration = result.duration
    rate = dict(result.metrics.request_rate_series(scale.bucket, duration))
    tput = dict(result.metrics.throughput_series(scale.bucket, duration))
    per_gpu = {
        gid: dict(result.metrics.batch_size_series(gid, scale.bucket, duration))
        for gid in result.metrics.gpu_batch_size
    }
    for t in sorted(rate):
        batches = [per_gpu[g].get(t, 0.0) for g in per_gpu]
        active = [b for b in batches if b > 0]
        table.add_row(
            t, rate[t], tput.get(t, 0.0), len(active),
            sum(active) / len(active) if active else 0.0,
        )
    table.add_note(f"migrations performed: {result.num_migrations}")
    table.add_note(f"requests finished: {result.finished_requests}")
    table.add_note(
        "paper shape: busy GPUs run at max batch size; idle GPUs stay idle "
        "(releasable); throughput tracks the request-rate ramp"
    )
    return table
