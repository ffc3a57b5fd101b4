"""Seeded serving scenarios shared by the golden-trace harness and CLI.

Each scenario builds a workload + serving stack from nothing but a seed,
runs it with a fresh :class:`~repro.obs.tracer.Tracer`, and returns the
trace plus the run's metrics. The scenarios cover the stack's regimes:

* ``single_gpu`` — mixed prefill/decode continuous batching on one engine
  (the Fig 11 path: a one-engine :class:`ClusterSimulator`);
* ``cluster_migration`` — a 4-GPU cluster under load with consolidation
  migration enabled (the Fig 13 / §5.3 path);
* ``faults`` — the same cluster under a scripted fault plan (crash,
  slowdown, PCIe stall) exercising the recovery machinery;
* ``disagg`` — a role-split 2-prefill/2-decode pool with paged KV
  handoffs over NvLink, sized so backpressure forces some colocated
  fallbacks (the docs/disagg.md path);
* ``serve`` — the async serving frontend's admission + lifecycle layer
  driven deterministically on the simulator's own event loop: client
  connections open through the :class:`~repro.serve.gateway.ServeGateway`
  (tight per-tenant limits so 429-style sheds fire), a seeded subset
  disconnects mid-stream (the cancel-propagation path), and the trace
  carries the CONNECT/DISCONNECT lifecycle (docs/serving.md);
* ``spec`` — a single engine with the speculative decoding lane armed,
  so the trace carries SPEC_DRAFT/SPEC_VERIFY/SPEC_ROLLBACK rounds and
  multi-token decode bursts (docs/speculative.md);
* ``slo`` — the full control plane on a heterogeneous elastic fleet:
  the SLO router admits by deadline headroom (SLO_ADMIT / SLO_SHED) and
  the predictive autoscaler grows and drains the pool (SCALE_UP /
  SCALE_DOWN) under a burst that outruns the initial capacity
  (docs/slo.md);
* ``composed`` — every collaborator of the one ``ClusterSimulator`` on
  one event loop: SLO control over a role-split pool with KV handoffs,
  grown by the predictive autoscaler (the factory assigns roles), with a
  scripted decode-GPU crash mid-burst;
* ``steady_dense`` — four full-speed engines in long, interleaving
  pure-decode runs: the bulk-commit lanes of the fast path (and the
  tracer's run blocks) against a fixture emitted event by event on the
  reference path (docs/performance.md).

``tests/test_trace_golden.py`` replays these against checked-in JSONL
fixtures; ``repro trace`` runs them from the shell. Keep them small —
golden diffs should be reviewable — and above all *deterministic*: no
wall-clock, no unseeded randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.cluster.control import ControlConfig, PredictiveConfig, SloPolicy
from repro.cluster.disagg import DisaggConfig
from repro.cluster.elastic import ElasticConfig, ElasticPool
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.hw.spec import A100_80G, GpuSpec, HwSpec
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request
from repro.runtime.spec import SpecConfig
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import Trace, generate_trace


@dataclass
class ScenarioResult:
    """One scenario run: the trace, the workload and the metrics."""

    name: str
    tracer: Tracer
    requests: "list[Request]"
    metrics: ClusterMetrics

    @property
    def duration(self) -> float:
        """How long the run lasted, read as ``SimulationResult.duration``
        reads it — ``serve`` too, which drives the loop itself."""
        return self.metrics.last_step_end()


def _scenario(name: str, tracer: Tracer, result: SimulationResult) -> ScenarioResult:
    return ScenarioResult(name, tracer, result.requests, result.metrics)


def _short_lengths() -> ShareGptLengths:
    return ShareGptLengths(max_prompt_len=48, max_response_len=8)


def _open_loop(seed: int, rate: float, duration: float) -> Trace:
    arrivals = PoissonArrivals(rate=constant_rate(rate), duration=duration)
    return generate_trace(
        int(rate * duration) + 16, "skewed", seed=seed,
        lengths=_short_lengths(), arrivals=arrivals,
    )


def _engine(
    gpu_id: str,
    max_batch_size: int,
    step_overhead: float = 0.0,
    fast_path: "bool | None" = None,
    role: str = "both",
    gpu: GpuSpec = A100_80G,
) -> GpuEngine:
    # The inflated step overhead slows "GPUs" down so a few-second trace
    # saturates the pool — queueing and consolidation migration fire
    # without thousands of decode events bloating the golden fixtures.
    return GpuEngine(
        gpu_id,
        SimulatedBackend(LLAMA2_7B, gpu=gpu, step_overhead=step_overhead,
                         fast_path=fast_path),
        EngineConfig(max_batch_size=max_batch_size),
        fast_path=fast_path,
        role=role,
    )


def run_single_gpu(seed: int = 0, fast_path: "bool | None" = None) -> ScenarioResult:
    """Mixed prefill/decode on one engine: arrivals stagger so prefills
    join live decode batches (the §5 continuous-batching property)."""
    tracer = Tracer()
    result = ClusterSimulator(
        [_engine("gpu00", max_batch_size=8, fast_path=fast_path)],
        tracer=tracer, fast_path=fast_path,
    ).run(_open_loop(seed, rate=2.0, duration=8.0))
    return _scenario("single_gpu", tracer, result)


def _cluster(
    tracer: Tracer, fault_injector=None, fast_path: "bool | None" = None
) -> ClusterSimulator:
    return ClusterSimulator(
        [
            _engine(f"gpu{i:02d}", max_batch_size=4, step_overhead=0.1,
                    fast_path=fast_path)
            for i in range(4)
        ],
        SchedulerConfig(migration_interval=1.0, light_load_fraction=0.5),
        fault_injector=fault_injector,
        tracer=tracer,
        fast_path=fast_path,
    )


def run_cluster_migration(
    seed: int = 0, fast_path: "bool | None" = None
) -> ScenarioResult:
    """4-GPU cluster loaded past its capacity: requests queue FCFS, and
    the tail drains unevenly enough for consolidation migration to fire
    (§5.3)."""
    trace = _open_loop(seed, rate=16.0, duration=4.0)
    tracer = Tracer()
    result = _cluster(tracer, fast_path=fast_path).run(trace)
    return _scenario("cluster_migration", tracer, result)


def run_faults(seed: int = 0, fast_path: "bool | None" = None) -> ScenarioResult:
    """The cluster under a scripted fault plan: a slowdown window, a PCIe
    stall, then a mid-run GPU crash recovered via §5.3 re-placement."""
    trace = _open_loop(seed, rate=12.0, duration=4.0)
    injector = FaultInjector(
        [
            FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=1.0, duration=1.0,
                      factor=4.0),
            FaultSpec(kind=FaultKind.PCIE_STALL, time=1.5, duration=0.5),
            FaultSpec(kind=FaultKind.GPU_CRASH, time=2.0),
        ],
        seed=seed,
    )
    tracer = Tracer()
    result = _cluster(tracer, fault_injector=injector,
                      fast_path=fast_path).run(trace)
    return _scenario("faults", tracer, result)


def run_disagg(seed: int = 0, fast_path: "bool | None" = None) -> ScenarioResult:
    """Disaggregated 2-prefill/2-decode pool: every request prefills on
    the prefill pool, hands its KV pages off over NvLink, and decodes on
    the decode GPU with the best adapter locality. The tight decode queue
    bound forces some colocated fallbacks under the load spike."""
    trace = _open_loop(seed, rate=12.0, duration=4.0)
    tracer = Tracer()
    sim = ClusterSimulator(
        [_engine(f"gpu{i:02d}", max_batch_size=4, step_overhead=0.1,
                 fast_path=fast_path, role="prefill" if i < 2 else "decode")
         for i in range(4)],
        handoff=DisaggConfig(decode_queue_limit=2),
        tracer=tracer,
        fast_path=fast_path,
    )
    result = sim.run(trace)
    return _scenario("disagg", tracer, result)


def run_serve(seed: int = 0, fast_path: "bool | None" = None) -> ScenarioResult:
    """The serving frontend's deterministic half: connections arrive on
    the simulator's event loop, pass per-tenant admission (rate + bounded
    in-flight, tight enough that some shed), and a fixed subset of
    clients disconnects mid-stream — CANCEL ``reason="disconnect"``
    reaches the engine. No asyncio anywhere: the same gateway the TCP
    server drives, clocked entirely by virtual time."""
    from repro.cluster.frontend import Frontend
    from repro.serve.gateway import ServeGateway
    from repro.serve.limits import AdmissionController, TenantPolicy
    from repro.serve.metrics import ServeMetrics

    trace = _open_loop(seed, rate=10.0, duration=4.0)
    tracer = Tracer()
    sim = _cluster(tracer, fast_path=fast_path)
    frontend = Frontend(sim)
    gateway = ServeGateway(
        frontend,
        AdmissionController(
            default_policy=TenantPolicy(rate=3.0, burst=2.0, max_inflight=5),
            max_total_inflight=24,
        ),
        metrics=ServeMetrics(),
        tracer=tracer,
    )

    def make_open(spec, index: int):
        def action(now: float) -> None:
            stream, _ = gateway.open(
                tenant=spec.lora_id, lora_id=spec.lora_id,
                prompt_len=spec.prompt_len, response_len=spec.response_len,
                now=now, request_id=spec.request_id,
            )
            if stream is not None and index % 7 == 3:
                # Every 7th admitted arrival slot walks away mid-stream.
                sim.loop.schedule(
                    now + 0.6,
                    lambda t, rid=spec.request_id: gateway.client_close(rid, t),
                )

        return action

    for i, spec in enumerate(trace):
        sim.loop.schedule(spec.arrival_time, make_open(spec, i))

    def poll_tick(now: float) -> None:
        gateway.poll(now)
        if sim.work_remaining() or gateway.open_streams():
            sim.loop.schedule(now + 0.25, poll_tick)

    sim.loop.schedule(0.25, poll_tick)
    sim.loop.run()
    gateway.poll(sim.now)
    return ScenarioResult("serve", tracer, list(sim._requests.values()), sim.metrics)


def run_spec(seed: int = 0, fast_path: "bool | None" = None) -> ScenarioResult:
    """Single engine with the speculative lane armed: once the staggered
    prompt mix has prefilled, every pure-decode invocation becomes a
    draft/verify round — SPEC_DRAFT per round, SPEC_VERIFY and a
    multi-token DECODE_STEP burst per request, and SPEC_ROLLBACK whenever
    the geometric acceptance model rejects draft tokens and their KV
    slots roll back (docs/speculative.md)."""
    tracer = Tracer()
    engine = GpuEngine(
        "gpu00",
        SimulatedBackend(LLAMA2_7B, fast_path=fast_path),
        EngineConfig(
            max_batch_size=8,
            spec=SpecConfig(draft_len=4, acceptance_rate=0.7, seed=seed),
        ),
        fast_path=fast_path,
    )
    result = ClusterSimulator([engine], tracer=tracer, fast_path=fast_path).run(
        _open_loop(seed, rate=2.0, duration=8.0)
    )
    return _scenario("spec", tracer, result)


def run_slo(seed: int = 0, fast_path: "bool | None" = None) -> ScenarioResult:
    """The SLO control plane on a heterogeneous elastic fleet: the pool
    starts at one (slowed-down) A100 and the burst outruns it, so the
    EWMA autoscaler provisions L4/A100 capacity (SCALE_UP), the router
    places by deadline headroom (SLO_ADMIT), requests whose remaining
    budget drops below the optimistic floor are refused (SLO_SHED +
    SHED), and the drain tail releases the pool back to its floor
    (SCALE_DOWN)."""
    presets = ("a100-80g", "l4", "a100-80g")

    def factory(gpu_id: str) -> GpuEngine:
        spec = HwSpec.preset(presets[int(gpu_id[3:]) % len(presets)])
        return _engine(gpu_id, max_batch_size=4, step_overhead=0.1,
                       fast_path=fast_path, gpu=spec)

    trace = _open_loop(seed, rate=10.0, duration=3.0)
    tracer = Tracer()
    sim = ClusterSimulator(
        pool=ElasticPool(
            factory,
            ElasticConfig(
                min_gpus=1, max_gpus=3, provision_delay=0.8,
                release_idle_after=0.5, check_interval=0.25,
            ),
            predictive=PredictiveConfig(service_rate_per_gpu=4.0),
        ),
        control=ControlConfig(
            default_policy=SloPolicy(ttft_deadline=0.6, itl_deadline=0.25),
        ),
        tracer=tracer,
        fast_path=fast_path,
    )
    result = sim.run(trace)
    return _scenario("slo", tracer, result)


def run_composed(seed: int = 0, fast_path: "bool | None" = None) -> ScenarioResult:
    """SLO control + KV handoff + predictive pool + a fault, composed: the
    pool starts at one prefill and one decode GPU (the factory alternates
    roles by GPU index), the burst grows it (SCALE_UP), prefills hand off
    to the decode side (KV_TRANSFER_*) and admit by ITL headroom, the
    first decode GPU crashes mid-burst (FAULT; its lease closes, its
    requests re-prefill), and the drain tail shrinks the pool
    (SCALE_DOWN)."""

    def factory(gpu_id: str) -> GpuEngine:
        role = "prefill" if int(gpu_id[3:]) % 2 == 0 else "decode"
        return _engine(gpu_id, max_batch_size=4, step_overhead=0.1,
                       fast_path=fast_path, role=role)

    trace = _open_loop(seed, rate=10.0, duration=3.0)
    tracer = Tracer()
    sim = ClusterSimulator(
        pool=ElasticPool(
            factory,
            ElasticConfig(
                min_gpus=2, max_gpus=6, provision_delay=0.8,
                release_idle_after=0.5, check_interval=0.25,
            ),
            predictive=PredictiveConfig(service_rate_per_gpu=3.0),
        ),
        handoff=DisaggConfig(decode_queue_limit=2),
        control=ControlConfig(
            default_policy=SloPolicy(ttft_deadline=1.2, itl_deadline=0.3),
        ),
        fault_injector=FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_CRASH, time=2.0, gpu_id="gpu01")],
            seed=seed,
        ),
        tracer=tracer,
        fast_path=fast_path,
    )
    result = sim.run(trace)
    return _scenario("composed", tracer, result)


def run_steady_dense(
    seed: int = 0, fast_path: "bool | None" = None
) -> ScenarioResult:
    """Dense steady decode: two dozen requests with 48-96-token responses
    land within a fifth of a second on four full-speed A100s, so every
    engine sits in a long pure-decode run and their step ticks interleave
    — the regime where the fast path commits multi-step windows in bulk
    (merges of one or several engines' runs) and the trace records them
    as run blocks. The fixture is generated on the reference path,
    one emitted event per token."""
    lengths = ShareGptLengths(
        min_len=48, max_prompt_len=64,
        response_mu=4.25, response_sigma=0.3, max_response_len=96,
    )
    trace = generate_trace(
        48, "skewed", seed=seed, lengths=lengths,
        arrivals=PoissonArrivals(rate=constant_rate(150.0), duration=0.2),
    )
    tracer = Tracer()
    sim = ClusterSimulator(
        [_engine(f"gpu{i:02d}", max_batch_size=6, fast_path=fast_path)
         for i in range(4)],
        tracer=tracer,
        fast_path=fast_path,
    )
    result = sim.run(trace)
    return _scenario("steady_dense", tracer, result)


SCENARIOS: "dict[str, Callable[..., ScenarioResult]]" = {
    "single_gpu": run_single_gpu,
    "cluster_migration": run_cluster_migration,
    "faults": run_faults,
    "disagg": run_disagg,
    "serve": run_serve,
    "spec": run_spec,
    "slo": run_slo,
    "composed": run_composed,
    "steady_dense": run_steady_dense,
}


def run_scenario(
    name: str, seed: int = 0, fast_path: "bool | None" = None
) -> ScenarioResult:
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; pick one of {sorted(SCENARIOS)}"
        ) from None
    return runner(seed, fast_path=fast_path)
