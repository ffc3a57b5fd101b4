"""Extensions beyond the paper's figures: load-latency knees, a hardware
projection and a 70B tensor-parallel cluster.

* **Load-latency**: a standard serving-systems curve the paper's cluster
  experiment implies but does not plot. As the offered request rate
  approaches one GPU's capacity, normalized latency blows up past the
  knee; swept for Punica and vLLM on the Distinct workload, Punica's knee
  sits ~12x further right — the throughput headline restated as latency.
* **HW projection**: "what if the testbed were H100s?" is one GpuSpec and a
  rerun of Fig 11. The multi-LoRA gap comes from batching, not from the
  device, so it should be invariant, while absolute tok/s scales with HBM
  bandwidth (decode is memory-bound).
* **Cluster 70B**: Testbed #2's 16 A100-40G GPUs host two 8-way
  tensor-parallel Llama-2 70B replicas (Fig 12's parallel scheme), and
  the Punica scheduler treats each TP group as one schedulable unit under
  the Fig 13 ramp: consolidation and the throughput-tracks-load shape
  should survive when the schedulable unit is a whole TP group.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.framework import PUNICA, VLLM, build_engine
from repro.bench.reporting import FigureTable
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.hw.interconnect import NVLINK_A100
from repro.hw.spec import A100_40G, A100_80G, GpuSpec
from repro.models.config import LLAMA2_7B, LLAMA2_70B
from repro.models.tp import TensorParallelConfig
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.latency import LatencyStats
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace, serve_requests
from repro.utils.units import GB, GIB, TB
from repro.workloads.arrivals import PoissonArrivals, RampProfile, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

LOAD_DURATION = 30.0
LOAD_LENGTHS = ShareGptLengths(max_prompt_len=256, max_response_len=256)

#: H100 SXM: 989 TFLOP/s dense fp16, 3.35 TB/s HBM3. Kernel-level
#: calibration constants (launch overheads etc.) are kept at A100 values —
#: a conservative projection.
H100_80G = GpuSpec(
    name="H100-SXM5-80GB",
    peak_fp16_flops=989 * TB,
    hbm_bandwidth=3_350 * GB,
    hbm_capacity=80 * GIB,
    num_sms=132,
)

TP_GROUPS = 2
TP_DEGREE = 8
TP_DURATION = 180.0
TP_PEAK_RATE = 4.0
TP_BUCKET = 15.0


def _open_loop_trace(rate: float, seed: int = 0):
    arrivals = PoissonArrivals(rate=constant_rate(rate), duration=LOAD_DURATION)
    return generate_trace(
        int(rate * LOAD_DURATION * 1.5) + 16, "distinct", seed=seed,
        lengths=LOAD_LENGTHS, arrivals=arrivals,
    )


def run_load_latency(seed: int = 0) -> FigureTable:
    table = FigureTable(
        figure_id="Load-latency",
        title="Open-loop rate sweep, Distinct workload, one A100 (7B)",
        headers=["system", "req_per_s", "p50_s_per_tok", "p99_s_per_tok", "tok_per_s"],
    )
    sweeps = {"punica": (0.5, 1.0, 2.0, 4.0), "vllm": (0.1, 0.2, 0.4, 0.8)}
    for profile in (PUNICA, VLLM):
        for rate in sweeps[profile.name]:
            engine = build_engine(profile, LLAMA2_7B)
            reqs = requests_from_trace(_open_loop_trace(rate, seed))
            result = serve_requests(engine, reqs, keep_steps=False)
            finished = [r for r in reqs if r.state is RequestState.FINISHED]
            stats = LatencyStats.from_requests(finished)
            table.add_row(
                profile.name, rate, stats.p50_normalized, stats.p99_normalized,
                result.throughput,
            )
    return table


def load_latency_claims(table: FigureTable) -> None:
    punica = [(rate, p50) for sys, rate, p50, *_ in table.rows if sys == "punica"]
    vllm = [(rate, p50) for sys, rate, p50, *_ in table.rows if sys == "vllm"]
    # Latency is nondecreasing-ish in offered load for both systems.
    assert punica[-1][1] > punica[0][1] * 0.8
    # Punica sustains 4 req/s at latency comparable to vLLM at ~0.2 req/s:
    # the multi-LoRA batching capacity gap.
    assert dict(punica)[4.0] < dict(vllm)[0.8]


def run_hardware_projection(n_requests: int = 96, seed: int = 0) -> FigureTable:
    table = FigureTable(
        figure_id="HW projection",
        title="Fig 11 Distinct workload projected across GPU generations (7B)",
        headers=["gpu", "system", "tok_per_s", "punica_over_vllm"],
    )
    trace = generate_trace(n_requests, "distinct", seed=seed)
    for gpu in (A100_80G, H100_80G):
        tput = {}
        for profile in (VLLM, PUNICA):
            engine = build_engine(profile, LLAMA2_7B, gpu=gpu)
            result = serve_requests(engine, requests_from_trace(trace), keep_steps=False)
            tput[profile.name] = result.throughput
        ratio = tput["punica"] / tput["vllm"]
        for name, v in tput.items():
            table.add_row(gpu.name, name, v, ratio if name == "punica" else "")
    table.add_note("H100 keeps A100 launch-overhead calibration (conservative)")
    return table


def hardware_projection_claims(table: FigureTable) -> None:
    tput = {(r[0], r[1]): r[2] for r in table.rows}
    # Faster memory -> faster decode, for both systems.
    assert tput[("H100-SXM5-80GB", "punica")] > 1.2 * tput[("A100-SXM4-80GB", "punica")]
    assert tput[("H100-SXM5-80GB", "vllm")] > 1.2 * tput[("A100-SXM4-80GB", "vllm")]
    # The multi-LoRA gap survives the hardware generation (within 2x).
    ratios = [r[3] for r in table.rows if r[3] != ""]
    assert len(ratios) == 2
    assert 0.5 < ratios[1] / ratios[0] < 2.0
    assert min(ratios) > 5.0


def run_cluster_70b(seed: int = 0) -> FigureTable:
    tp = TensorParallelConfig(world_size=TP_DEGREE, interconnect=NVLINK_A100)
    engines = [
        GpuEngine(
            f"tpgroup{i}",
            SimulatedBackend(LLAMA2_70B, gpu=A100_40G, tp=tp),
            EngineConfig(max_batch_size=32),
        )
        for i in range(TP_GROUPS)
    ]
    arrivals = PoissonArrivals(
        rate=RampProfile(duration=TP_DURATION, peak_rate=TP_PEAK_RATE, hold_fraction=0.2),
        duration=TP_DURATION,
    )
    trace = generate_trace(
        int(TP_DURATION * TP_PEAK_RATE) + 32, "skewed", seed=seed, arrivals=arrivals
    )
    sim = ClusterSimulator(engines, SchedulerConfig(migration_interval=15.0))
    result = sim.run(trace)

    table = FigureTable(
        figure_id="Cluster 70B",
        title=f"{TP_GROUPS}x TP-{TP_DEGREE} llama2-70b replicas, ramp load "
              f"({TP_GROUPS * TP_DEGREE} GPUs total)",
        headers=["t_start_s", "req_per_s", "tok_per_s", "bs_group0", "bs_group1"],
    )
    rate = dict(result.metrics.request_rate_series(TP_BUCKET, result.duration))
    tput = dict(result.metrics.throughput_series(TP_BUCKET, result.duration))
    per_group = {
        gid: dict(result.metrics.batch_size_series(gid, TP_BUCKET, result.duration))
        for gid in ("tpgroup0", "tpgroup1")
    }
    for t in sorted(rate):
        table.add_row(
            t, rate[t], tput.get(t, 0.0),
            per_group["tpgroup0"].get(t, 0.0), per_group["tpgroup1"].get(t, 0.0),
        )
    table.add_note(f"requests finished: {result.finished_requests}/{len(trace)}")
    table.add_note(f"migrations between TP groups: {result.num_migrations}")
    return table


def cluster_70b_claims(table: FigureTable) -> None:
    rates = table.column("req_per_s")
    tputs = table.column("tok_per_s")
    # Throughput tracks the ramp.
    assert np.corrcoef(rates, tputs)[0, 1] > 0.8
    # Consolidation: group1 (higher UUID) carries load first; group0 only
    # joins when group1 saturates near the peak.
    assert sum(table.column("bs_group1")) > sum(table.column("bs_group0"))
    # Peak throughput lands in the hundreds of tok/s (cf. Fig 12's ~440/GPU
    # group — two groups, minus ramp/queueing effects).
    assert 300 < max(tputs) < 2000
