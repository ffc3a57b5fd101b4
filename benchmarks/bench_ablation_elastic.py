"""Ablation (§5.1): elastic GPU pool vs a statically provisioned cluster.

The paper's scheduler is designed so "a busy GPU is likely to stay busy
... an idle GPU is likely to stay idle", enabling the cloud allocations of
§5.1. This bench runs the Fig 13 ramp on (a) a static max-size pool and
(b) an elastic pool that provisions on scale-up hints and releases GPUs
idle past a grace period — and reports the GPU-seconds each pays.
"""

from repro.bench.reporting import FigureTable
from repro.cluster.elastic import ElasticConfig, ElasticPool
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.workloads.arrivals import PoissonArrivals, RampProfile
from repro.workloads.trace import generate_trace

NUM_GPUS = 6
DURATION = 240.0
PEAK_RATE = 10.0


def _engine_factory(gpu_id: str) -> GpuEngine:
    return GpuEngine(
        gpu_id, SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=32)
    )


def _ramp_trace(seed: int = 0):
    arrivals = PoissonArrivals(
        rate=RampProfile(duration=DURATION, peak_rate=PEAK_RATE, hold_fraction=0.2),
        duration=DURATION,
    )
    return generate_trace(
        int(DURATION * PEAK_RATE) + 64, "skewed", seed=seed, arrivals=arrivals
    )


def run_ablation(seed: int = 0) -> FigureTable:
    trace = _ramp_trace(seed)
    sched_cfg = SchedulerConfig(migration_interval=10.0)

    static = ClusterSimulator(
        [_engine_factory(f"s{i:02d}") for i in range(NUM_GPUS)], sched_cfg
    ).run(trace)

    elastic = ClusterSimulator(
        scheduler_config=sched_cfg,
        pool=ElasticPool(
            _engine_factory,
            ElasticConfig(
                min_gpus=1, max_gpus=NUM_GPUS, provision_delay=15.0,
                release_idle_after=20.0, check_interval=5.0,
            ),
        ),
    ).run(trace)

    table = FigureTable(
        figure_id="Ablation elastic",
        title=f"Static {NUM_GPUS}-GPU pool vs elastic pool (§5.1 cloud allocation)",
        headers=["pool", "gpu_seconds", "finished", "duration_s",
                 "mean_latency_s_per_tok"],
    )
    table.add_row(
        "static", NUM_GPUS * static.duration, static.finished_requests,
        static.duration, static.mean_normalized_latency(),
    )
    table.add_row(
        "elastic", elastic.gpu_seconds(), elastic.finished_requests,
        elastic.duration, elastic.mean_normalized_latency(),
    )
    table.add_note(
        f"elastic: {elastic.scale_ups} scale-ups, {elastic.releases} releases, "
        f"peak pool {elastic.peak_pool_size()}"
    )
    return table


def test_elastic_pool_saves_gpu_seconds(benchmark, emit):
    table = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1, warmup_rounds=0
    )
    emit(table)
    rows = {r[0]: r for r in table.rows}
    # Same work completed...
    assert rows["elastic"][2] == rows["static"][2]
    # ...for substantially fewer GPU-seconds...
    assert rows["elastic"][1] < 0.7 * rows["static"][1]
    # ...at a bounded latency penalty (provisioning lag + queueing).
    assert rows["elastic"][4] < 6.0 * max(rows["static"][4], 1e-9)
