"""Property tests: trace invariants hold on *any* seeded workload.

The golden harness pins a few specific runs; these tests let hypothesis
pick the workload (seed, rate, batch size, fault plan, colocated vs
disaggregated pool) and check the structural invariants every trace must
satisfy:

* per-request event times are monotone in ``(time, seq)`` order and the
  lifecycle is ordered: SUBMIT <= PLACE <= first decode <= terminal;
* every submitted request reaches exactly one terminal event
  (FINISH / SHED / CANCEL) — none lost, none double-finished;
* the latency breakdown's phase components sum to the end-to-end latency
  exactly (the analysis walk tiles the timeline by construction).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.disagg import DisaggConfig
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.obs import Tracer, compute_breakdowns
from repro.obs.tracer import EventKind, TERMINAL_KINDS
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _engine(i: int, max_batch_size: int, role: str = "both") -> GpuEngine:
    return GpuEngine(
        f"gpu{i:02d}",
        SimulatedBackend(LLAMA2_7B, step_overhead=0.05),
        EngineConfig(max_batch_size=max_batch_size),
        role=role,
    )


def _run(
    seed: int, rate: float, max_batch_size: int, crash: bool, disagg: bool
) -> Tracer:
    duration = 2.0
    trace = generate_trace(
        int(rate * duration) + 8, "skewed", seed=seed,
        lengths=ShareGptLengths(max_prompt_len=32, max_response_len=6),
        arrivals=PoissonArrivals(rate=constant_rate(rate), duration=duration),
    )
    injector = None
    if crash:
        specs = [FaultSpec(kind=FaultKind.GPU_CRASH, time=0.8)]
        if disagg:
            specs.append(
                FaultSpec(kind=FaultKind.KV_TRANSFER_FAIL, time=0.4)
            )
        injector = FaultInjector(specs, seed=seed)
    tracer = Tracer()
    if disagg:
        # 2 prefill + 2 decode: a crash can kill either role's GPU
        # without emptying its pool, so the handoff machinery keeps
        # running (and re-routing) after the fault.
        sim = ClusterSimulator(
            [_engine(i, max_batch_size, role="prefill") for i in range(2)]
            + [_engine(i, max_batch_size, role="decode") for i in range(2, 4)],
            handoff=DisaggConfig(decode_queue_limit=2),
            fault_injector=injector,
            tracer=tracer,
        )
    else:
        sim = ClusterSimulator(
            [_engine(i, max_batch_size) for i in range(2)],
            SchedulerConfig(migration_interval=0.5, light_load_fraction=0.5),
            fault_injector=injector,
            tracer=tracer,
        )
    sim.run(trace)
    return tracer


workloads = st.tuples(
    st.integers(min_value=0, max_value=10_000),   # seed
    st.sampled_from([4.0, 8.0, 16.0]),            # rate (req/s)
    st.integers(min_value=2, max_value=6),        # max batch size
    st.booleans(),                                # crash a GPU mid-run?
    st.booleans(),                                # disaggregated pool?
)


def _per_request(tracer: Tracer):
    per: "dict[str, list]" = {}
    for event in tracer.sorted_events():
        if event.request_id is not None:
            per.setdefault(event.request_id, []).append(event)
    return per


@given(workloads)
@SETTINGS
def test_request_lifecycle_is_ordered(params):
    tracer = _run(*params)
    for rid, timeline in _per_request(tracer).items():
        assert timeline[0].kind is EventKind.SUBMIT, rid
        times = [e.time for e in timeline]
        assert times == sorted(times), f"{rid}: unsorted event times {times}"

        submit_t = timeline[0].time
        place_t = next(
            (e.time for e in timeline if e.kind is EventKind.PLACE), None
        )
        first_decode_t = next(
            (e.time for e in timeline if e.kind is EventKind.DECODE_STEP), None
        )
        terminal_t = next(
            e.time for e in timeline if e.kind in TERMINAL_KINDS
        )
        if place_t is not None:
            assert submit_t <= place_t <= terminal_t, rid
        if first_decode_t is not None:
            assert place_t is not None and place_t <= first_decode_t, rid
            assert first_decode_t <= terminal_t, rid


@given(workloads)
@SETTINGS
def test_exactly_one_terminal_per_request(params):
    tracer = _run(*params)
    for rid, timeline in _per_request(tracer).items():
        terminals = [e for e in timeline if e.kind in TERMINAL_KINDS]
        assert len(terminals) == 1, (
            f"{rid}: {len(terminals)} terminal events "
            f"{[e.kind.value for e in terminals]}"
        )
        assert terminals[0] is timeline[-1], (
            f"{rid}: events after terminal "
            f"{[e.kind.value for e in timeline]}"
        )


@given(workloads)
@SETTINGS
def test_breakdown_components_sum_to_latency(params):
    tracer = _run(*params)
    breakdowns = compute_breakdowns(tracer)
    assert breakdowns
    for rid, bd in breakdowns.items():
        delta = abs(bd.components_sum() - bd.total)
        assert delta <= 1e-9, (
            f"{rid}: phases {bd.phases} sum to {bd.components_sum()}, "
            f"end-to-end is {bd.total} (delta {delta})"
        )
        for name, value in bd.phases.items():
            assert value >= 0.0, f"{rid}: negative {name} component {value}"
