"""Elastic autoscaling: pay for GPUs only while the load needs them (§5.1).

Runs the same ramping workload on (a) a statically provisioned 6-GPU
cluster and (b) an elastic pool that starts at one GPU, requests more when
no lightly loaded GPU remains, and releases GPUs once they drain to idle.
Punica's pack-to-busiest routing plus consolidation migration is what
makes GPUs actually reach idle so they can be released.

Run: ``python examples/elastic_autoscaling.py``
"""

from repro import LLAMA2_7B, EngineConfig, GpuEngine, SchedulerConfig, SimulatedBackend
from repro.cluster.elastic import ElasticConfig, ElasticPool
from repro.cluster.simulator import ClusterSimulator
from repro.runtime.latency import LatencyStats
from repro.utils.tables import format_table
from repro.workloads.arrivals import PoissonArrivals, RampProfile
from repro.workloads.trace import generate_trace

NUM_GPUS = 6
DURATION = 240.0
PEAK_RATE = 10.0


def engine_factory(gpu_id: str) -> GpuEngine:
    return GpuEngine(gpu_id, SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=32))


def main() -> None:
    arrivals = PoissonArrivals(
        rate=RampProfile(duration=DURATION, peak_rate=PEAK_RATE, hold_fraction=0.2),
        duration=DURATION,
    )
    trace = generate_trace(
        int(DURATION * PEAK_RATE) + 64, "skewed", seed=0, arrivals=arrivals
    )
    print(f"workload: {len(trace)} requests over {DURATION:.0f}s "
          f"(rate ramps 0 -> {PEAK_RATE:.0f} -> 0 req/s)")

    sched = SchedulerConfig(migration_interval=10.0)
    static = ClusterSimulator(
        [engine_factory(f"s{i:02d}") for i in range(NUM_GPUS)], sched
    ).run(trace)

    elastic = ClusterSimulator(
        scheduler_config=sched,
        pool=ElasticPool(
            engine_factory,
            ElasticConfig(min_gpus=1, max_gpus=NUM_GPUS, provision_delay=15.0,
                          release_idle_after=20.0, check_interval=5.0),
        ),
    ).run(trace)

    static_ms, elastic_ms = (
        LatencyStats.from_requests(r.requests).mean_normalized * 1e3
        for r in (static, elastic)
    )
    rows = [
        ["static", f"{static.gpu_seconds():.0f}", static.finished_requests,
         f"{static_ms:.0f}", "-", "-"],
        ["elastic", f"{elastic.gpu_seconds():.0f}", elastic.finished_requests,
         f"{elastic_ms:.0f}",
         elastic.scale_ups, elastic.releases],
    ]
    print(format_table(
        ["pool", "GPU-seconds", "finished", "ms/token", "scale-ups", "releases"],
        rows, title="\nStatic vs elastic provisioning",
    ))
    saving = 1 - elastic.gpu_seconds() / static.gpu_seconds()
    print(f"\nGPU-seconds saved by elasticity: {saving:.0%} "
          f"(peak elastic pool: {elastic.peak_pool_size()} GPUs)")


if __name__ == "__main__":
    main()
