"""Differential equivalence: the fast-path engine vs the reference path.

The fast path (``fast_path=``, default on) layers optimisations over the
simulation engine — kernel-cost memoisation, the shape-keyed latency-term
memo, the armed-batch shortcut inside ``GpuEngine.step`` and the bulk
decode-run merge lane. The contract for every one of them is *bit
identity*: the optimised run must produce byte-identical traces and equal
results, not merely statistically similar ones.

This suite enforces the contract two ways:

* the golden scenarios are run through both paths and compared on
  canonical JSONL bytes, per-request latency breakdowns, terminal request
  state, the unified metrics registry and — where a frontend streams —
  each request's ``(token, time)`` stream;
* Hypothesis generates randomized cluster workloads — mixed LoRA ranks and
  popularity, staggered arrivals, mid-run cancellations, scripted faults,
  1–3 GPUs, small batch limits — and replays each through both paths.

Tracing is part of the contract, not an exemption from it: a traced fast
run commits the same bulk windows as an untraced one (the trace records
ride the commit as run blocks), and its JSONL must still match the
reference path, which emits one event per token.

Final canaries assert the fast lanes actually engage — traced and
untraced — so a silent guard regression cannot reduce this suite to
comparing the slow path to itself.
"""

from __future__ import annotations

import dataclasses
import pathlib
import weakref
from functools import partial
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cluster.simulator as simulator_module
import repro.runtime.engine as engine_module
from repro.adapters.pool import UnifiedMemoryPool
from repro.baselines import framework
from repro.baselines.framework import ALL_SYSTEMS
from repro.bench.adapter_cache import AdapterCacheScale, build_adapter_cluster
from repro.cluster.control import ControlConfig, SloPolicy
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.frontend import Frontend
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.vector import VectorDecodeLane
from repro.hw.spec import A100_40G, HwSpec
from repro.models.config import LLAMA2_7B
from repro.obs.analysis import compute_breakdowns
from repro.obs.scenarios import SCENARIOS, run_scenario
from repro.obs.tracer import TERMINAL_KINDS, EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.pricing import StepPricer
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.runtime.spec import SpecConfig
from repro.workloads.arrivals import PoissonArrivals, RampProfile, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.scale import FIG13_1M, scale_trace
from repro.workloads.trace import (
    RequestSpec, Trace, generate_trace, open_loop_trace,
)


def _request_states(requests):
    return [
        (
            r.request_id,
            r.state,
            r.num_generated,
            r.kv_len,
            r.first_admitted_time,
            r.first_token_time,
            r.finish_time,
            r.num_migrations,
            r.failure_reason,
            tuple(r.generated_tokens),
        )
        for r in sorted(requests, key=lambda r: r.request_id)
    ]


def _assert_equivalent(fast, ref):
    """Full observable-state comparison of two ScenarioResult-likes."""
    assert fast.tracer.dumps_jsonl() == ref.tracer.dumps_jsonl()
    assert compute_breakdowns(fast.tracer) == compute_breakdowns(ref.tracer)
    assert _request_states(fast.requests) == _request_states(ref.requests)
    assert fast.duration == ref.duration
    _assert_metrics_equal(fast.metrics, ref.metrics)


def _assert_metrics_equal(fast, ref):
    assert fast.registry.to_json() == ref.registry.to_json()
    assert fast.arrivals == ref.arrivals
    assert fast.slo_admits == ref.slo_admits
    assert fast.tokens == ref.tokens
    assert fast.gpu_batch_size == ref.gpu_batch_size
    assert fast.gpu_step_spans == ref.gpu_step_spans


def _streams(frontend):
    """Each request's streamed ``(token, time)`` pairs. Only per-request
    order is part of the contract, not the interleaving across requests
    within one ``loop.run``."""
    return {rid: list(h.streamed) for rid, h in frontend._handles.items()}


@pytest.fixture
def frontends(monkeypatch):
    """Every :class:`Frontend` built during the test, in build order."""
    built = []
    init = Frontend.__init__

    def record(self, simulator):
        init(self, simulator)
        built.append(self)

    monkeypatch.setattr(Frontend, "__init__", record)
    return built


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [0, 7])
def test_scenario_differential(name, seed, frontends):
    """Golden scenarios produce byte-identical traces through both paths,
    and the ``serve`` scenario's frontend streams every request the same
    ``(token, time)`` pairs — through the merge lane's bulk-committed
    chunks on the fast path, one step at a time on the reference."""
    fast = run_scenario(name, seed=seed, fast_path=True)
    ref = run_scenario(name, seed=seed, fast_path=False)
    _assert_equivalent(fast, ref)
    if name == "serve":
        fast_fe, ref_fe = frontends
        assert fast_fe.simulator._vector.merges > 0
        streams = _streams(fast_fe)
        assert any(streams.values())
        assert streams == _streams(ref_fe)
    else:
        assert frontends == []


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_lasts_until_its_last_token(name, fast_path):
    """A run lasts until its last token, and no longer: the loop's last
    event is the last step's *start* (a bulk decode run commits stamps
    past it), and a periodic tick may fire after the last step ends."""
    result = run_scenario(name, seed=0, fast_path=fast_path)
    finishes = [r.finish_time for r in result.requests if r.finish_time is not None]
    assert finishes
    assert result.duration == max(finishes)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
@pytest.mark.parametrize("profile", ALL_SYSTEMS, ids=lambda p: p.name)
def test_one_engine_system_differential(profile, seed):
    """Every Fig 11 system, static baselines included, serves a staggered
    multi-adapter load on a one-engine pool identically on both paths."""
    trace = generate_trace(
        24, "skewed", seed=seed, lengths=_short_lengths(),
        arrivals=PoissonArrivals(rate=constant_rate(8.0), duration=3.0),
    )
    results = []
    for fast_path in (True, False):
        # build_engine takes no fast_path: pin the GpuEngine it builds.
        with mock.patch.object(
            framework, "GpuEngine", partial(GpuEngine, fast_path=fast_path)
        ):
            engine = framework.build_engine(profile, LLAMA2_7B, max_batch_size=6)
        assert engine.fast_path is (fast_path and profile.batching != "static")
        sim = ClusterSimulator([engine], fast_path=fast_path)
        results.append(sim.run(trace))
    fast, ref = results
    assert fast.finished_requests == len(trace)
    assert _request_states(fast.requests) == _request_states(ref.requests)
    assert fast.duration == ref.duration
    assert fast.events_processed <= ref.events_processed
    _assert_metrics_equal(fast.metrics, ref.metrics)


# ---------------------------------------------------------------------------
# Randomized workloads
# ---------------------------------------------------------------------------
def _short_lengths():
    return ShareGptLengths(max_prompt_len=40, max_response_len=8)


def _build_and_run(
    *,
    seed,
    num_gpus,
    max_batch,
    rate,
    duration,
    lora_rank,
    cancel_picks,
    fault_plan,
    fast_path,
    spec=None,
):
    trace = generate_trace(
        int(rate * duration) + 8,
        "skewed",
        seed=seed,
        lengths=_short_lengths(),
        arrivals=PoissonArrivals(rate=constant_rate(rate), duration=duration),
    )
    tracer = Tracer()
    injector = (
        FaultInjector(fault_plan, seed=seed) if fault_plan else None
    )
    sim = ClusterSimulator(
        [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(
                    LLAMA2_7B, step_overhead=0.05, lora_rank=lora_rank,
                    fast_path=fast_path,
                ),
                EngineConfig(max_batch_size=max_batch, spec=spec),
                fast_path=fast_path,
            )
            for i in range(num_gpus)
        ],
        SchedulerConfig(migration_interval=1.0, light_load_fraction=0.5),
        fault_injector=injector,
        tracer=tracer,
        fast_path=fast_path,
    )
    # Mid-run cancellations: each pick is (spec index, delay after its
    # arrival). The callback consults live request state, so both paths
    # issue exactly the same cancels iff their state evolution matches —
    # a divergence surfaces as differing CANCEL events in the trace.
    for idx, delay in cancel_picks:
        spec = trace.requests[idx % len(trace.requests)]
        when = spec.arrival_time + delay

        def _cancel(now, rid=spec.request_id):
            req = sim._requests.get(rid)
            if req is not None and req.state in (
                RequestState.QUEUED, RequestState.RUNNING
            ):
                sim.cancel(req, now)

        sim.loop.schedule(when, _cancel)
    result = sim.run(trace)
    summary = (
        result.events_processed,
        result.finished_requests,
        result.failed_requests,
        result.tokens_generated,
        result.num_migrations,
        result.duration,
    )
    return tracer, result, summary, sim


_FAULT_MENU = (
    FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=1.0, duration=1.0, factor=3.0),
    FaultSpec(kind=FaultKind.PCIE_STALL, time=1.5, duration=0.5),
    FaultSpec(kind=FaultKind.GPU_CRASH, time=2.0),
)

# The speculative lane menu: disarmed, a rejection-heavy low-acceptance
# draft (maximum rollback traffic), and a burst-heavy high-acceptance one.
_SPEC_MENU = (
    None,
    SpecConfig(draft_len=2, acceptance_rate=0.2, seed=1),
    SpecConfig(draft_len=4, acceptance_rate=0.9, seed=2),
)


class _Run:
    def __init__(self, tracer, result, summary):
        self.tracer = tracer
        self.requests = result.requests
        self.metrics = result.metrics
        self.duration = result.duration
        self.summary = summary


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_gpus=st.integers(min_value=1, max_value=3),
    max_batch=st.integers(min_value=2, max_value=6),
    rate=st.sampled_from([4.0, 8.0, 14.0]),
    duration=st.sampled_from([2.0, 3.5]),
    lora_rank=st.sampled_from([8, 16, 32]),
    cancel_picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.floats(min_value=0.05, max_value=1.5),
        ),
        max_size=3,
    ),
    fault_subset=st.sets(st.integers(min_value=0, max_value=2), max_size=3),
    spec=st.sampled_from(_SPEC_MENU),
)
def test_random_workload_differential(
    seed, num_gpus, max_batch, rate, duration, lora_rank, cancel_picks,
    fault_subset, spec,
):
    """Any generated workload replays byte-identically through both paths."""
    fault_plan = [_FAULT_MENU[i] for i in sorted(fault_subset)]
    if num_gpus == 1:
        # A crash with no survivor leaves nothing to compare recovery on.
        fault_plan = [f for f in fault_plan if f.kind is not FaultKind.GPU_CRASH]
    kwargs = dict(
        seed=seed, num_gpus=num_gpus, max_batch=max_batch, rate=rate,
        duration=duration, lora_rank=lora_rank, cancel_picks=cancel_picks,
        fault_plan=fault_plan, spec=spec,
    )
    ftracer, fresult, fsummary, fsim = _build_and_run(fast_path=True, **kwargs)
    rtracer, rresult, rsummary, rsim = _build_and_run(fast_path=False, **kwargs)
    assert fsummary == rsummary
    _assert_equivalent(
        _Run(ftracer, fresult, fsummary), _Run(rtracer, rresult, rsummary)
    )
    # Page accounting returns to baseline on both paths: rejected drafts,
    # cancels and crashes may not leak a single KvCache page — and no
    # engine still holds per-request state once every request is done.
    for sim in (fsim, rsim):
        for engine in sim.scheduler.engines.values():
            assert engine.backend.kv.allocator.used_pages == 0
            assert not engine._entry_cache
            assert not engine._working and not engine._pending


def _watch_terms_memo(monkeypatch, limit):
    """Bound the latency-term memo at ``limit`` shapes and record its size
    after every lookup, per pricer. The price-list registry is swapped
    for an empty one, so a pricer still alive from an earlier test cannot
    hand its shapes to this one's memos."""
    monkeypatch.setattr("repro.runtime.pricing._TERMS_MEMO_LIMIT", limit)
    monkeypatch.setattr(
        "repro.runtime.pricing._PRICE_LISTS", weakref.WeakValueDictionary()
    )
    sizes: dict[int, list[int]] = {}
    lookup = StepPricer._terms

    def watched(self, *shape):
        terms = lookup(self, *shape)
        sizes.setdefault(id(self), []).append(len(self._terms_memo))
        return terms

    monkeypatch.setattr(StepPricer, "_terms", watched)
    return sizes


def test_bounded_shape_memo_differential(monkeypatch):
    """With the latency-term memo's bound down to a handful of shapes the
    fast path clears and refills it all run long: still byte-identical to
    the reference, and never past the bound."""
    limit = 3
    sizes = _watch_terms_memo(monkeypatch, limit)
    kwargs = dict(
        seed=5, num_gpus=2, max_batch=6, rate=14.0, duration=3.5,
        lora_rank=16, cancel_picks=[], fault_plan=[], spec=None,
    )
    ftracer, fresult, fsummary, _ = _build_and_run(fast_path=True, **kwargs)
    rtracer, rresult, rsummary, _ = _build_and_run(fast_path=False, **kwargs)
    assert fsummary == rsummary
    _assert_equivalent(
        _Run(ftracer, fresult, fsummary), _Run(rtracer, rresult, rsummary)
    )
    assert sizes and all(max(seen) == limit for seen in sizes.values())
    # A shrinking memo is a clear: the bound was hit, not merely unreached.
    assert all(
        any(b < a for a, b in zip(seen, seen[1:])) for seen in sizes.values()
    )


def test_bounded_shape_memo_under_slo_quotes(monkeypatch):
    """The router's placement quotes live in the same bounded memo as the
    engine's steps: with the bound at 3 the ``slo`` scenario still writes
    its golden trace byte for byte (``ttft`` / ``headroom`` to nine
    decimals), never holds more than 3 shapes, and clears."""
    limit = 3
    sizes = _watch_terms_memo(monkeypatch, limit)
    golden = (
        pathlib.Path(__file__).parent / "golden" / "slo.jsonl"
    ).read_text()
    assert run_scenario("slo", seed=0).tracer.dumps_jsonl() == golden
    assert sizes and all(max(seen) == limit for seen in sizes.values())
    assert all(
        any(b < a for a, b in zip(seen, seen[1:])) for seen in sizes.values()
    )


# ---------------------------------------------------------------------------
# Composed workloads: the cross-engine vector lane under load
# ---------------------------------------------------------------------------
# Workloads *compose* the features the per-feature suites cover in
# isolation: disagg pools, scripted faults, cancellation storms, and the
# serve gateway's admission + disconnect path. Hypothesis also draws
# whether a Tracer is attached: the merge lane takes the same windows
# either way (trace records ride the bulk commit as run blocks), so a
# traced example additionally compares the JSONL bytes, an untraced one
# everything else that remains observable — terminal request state, the
# unified metrics registry, the metrics time-series, the summary tuple.


def _serve_drive(sim, trace, storm_picks, tracer=None):
    """Drive ``trace`` through the ServeGateway on the sim's event loop;
    returns the requests and their streams (:func:`_streams`).

    ``storm_picks`` schedules mid-stream client disconnects (the
    cancellation storm, expressed the way the serving frontend causes
    it: ``client_close`` -> CANCEL ``reason="disconnect"``).
    """
    from repro.serve.gateway import ServeGateway
    from repro.serve.limits import AdmissionController, TenantPolicy
    from repro.serve.metrics import ServeMetrics

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
    storm = {idx % len(trace.requests): delay for idx, delay in storm_picks}

    def make_open(spec, index: int):
        def action(now: float) -> None:
            stream, _ = gateway.open(
                tenant=spec.lora_id, lora_id=spec.lora_id,
                prompt_len=spec.prompt_len, response_len=spec.response_len,
                now=now, request_id=spec.request_id,
            )
            delay = storm.get(index)
            if stream is not None and delay is not None:
                sim.loop.schedule(
                    now + delay,
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
    return list(sim._requests.values()), _streams(frontend)


def _build_composed(
    *,
    seed,
    topology,
    num_gpus,
    max_batch,
    rate,
    duration,
    lora_rank,
    storm_picks,
    fault_plan,
    serve_frontend,
    fast_path,
    spec=None,
    traced=False,
):
    from repro.cluster.disagg import DisaggConfig

    trace = generate_trace(
        int(rate * duration) + 8,
        "skewed",
        seed=seed,
        lengths=_short_lengths(),
        arrivals=PoissonArrivals(rate=constant_rate(rate), duration=duration),
    )
    injector = FaultInjector(fault_plan, seed=seed) if fault_plan else None
    tracer = Tracer() if traced else None

    def engines(ids, role="both"):
        return [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(
                    LLAMA2_7B, step_overhead=0.05, lora_rank=lora_rank,
                    fast_path=fast_path,
                ),
                EngineConfig(max_batch_size=max_batch, spec=spec),
                fast_path=fast_path,
                role=role,
            )
            for i in ids
        ]

    if topology == "disagg":
        n_prefill = max(1, num_gpus // 2)
        sim = ClusterSimulator(
            engines(range(n_prefill), "prefill")
            + engines(range(n_prefill, num_gpus), "decode"),
            handoff=DisaggConfig(decode_queue_limit=2),
            fault_injector=injector,
            tracer=tracer,
            fast_path=fast_path,
        )
    else:
        sim = ClusterSimulator(
            engines(range(num_gpus)),
            SchedulerConfig(migration_interval=1.0, light_load_fraction=0.5),
            fault_injector=injector,
            tracer=tracer,
            fast_path=fast_path,
        )

    if serve_frontend:
        requests, streams = _serve_drive(sim, trace, storm_picks, tracer)
        by_state = {}
        for r in requests:
            by_state[r.state.name] = by_state.get(r.state.name, 0) + 1
        summary = (
            sim.loop.processed,
            tuple(sorted(by_state.items())),
            sum(r.num_generated for r in requests),
            sim.now,
            streams,
        )
        return requests, sim.metrics, summary, sim

    # Direct cancellation storm: same mechanism as the suite above, but
    # storm-sized.
    for idx, delay in storm_picks:
        spec = trace.requests[idx % len(trace.requests)]

        def _cancel(now, rid=spec.request_id):
            req = sim._requests.get(rid)
            if req is not None and req.state in (
                RequestState.QUEUED, RequestState.RUNNING
            ):
                sim.cancel(req, now)

        sim.loop.schedule(spec.arrival_time + delay, _cancel)
    result = sim.run(trace)
    summary = (
        result.events_processed,
        result.finished_requests,
        result.failed_requests,
        result.tokens_generated,
        result.num_migrations,
        result.duration,
    )
    return result.requests, result.metrics, summary, sim


def _assert_composed_equivalent(fast, ref):
    frequests, fmetrics, fsummary, fsim = fast
    rrequests, rmetrics, rsummary, rsim = ref
    assert fsummary == rsummary
    if fsim.tracer is not None:
        assert fsim.tracer.dumps_jsonl() == rsim.tracer.dumps_jsonl()
    assert _request_states(frequests) == _request_states(rrequests)
    assert fmetrics.registry.to_json() == rmetrics.registry.to_json()
    assert fmetrics.tokens == rmetrics.tokens
    assert fmetrics.gpu_batch_size == rmetrics.gpu_batch_size


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    topology=st.sampled_from(["cluster", "disagg"]),
    serve_frontend=st.booleans(),
    num_gpus=st.integers(min_value=2, max_value=4),
    max_batch=st.integers(min_value=2, max_value=6),
    rate=st.sampled_from([6.0, 10.0, 14.0]),
    duration=st.sampled_from([2.0, 3.5]),
    lora_rank=st.sampled_from([8, 16]),
    storm_picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.floats(min_value=0.05, max_value=1.5),
        ),
        max_size=10,
    ),
    fault_subset=st.sets(st.integers(min_value=0, max_value=2), max_size=3),
    spec=st.sampled_from(_SPEC_MENU),
    traced=st.booleans(),
)
def test_composed_differential(
    seed, topology, serve_frontend, num_gpus, max_batch, rate, duration,
    lora_rank, storm_picks, fault_subset, spec, traced,
):
    """Disagg pools x faults x cancellation storms x serve admission,
    traced or not, with the cross-engine vector merge lane armed: both
    paths must agree on every observable the run leaves behind — under
    the serve gateway, every request's streamed ``(token, time)`` pairs
    included."""
    fault_plan = [_FAULT_MENU[i] for i in sorted(fault_subset)]
    if num_gpus <= 2:
        # Disagg's decode pool (or a 2-GPU cluster) may not survive a
        # crash with work to compare afterwards.
        fault_plan = [f for f in fault_plan if f.kind is not FaultKind.GPU_CRASH]
    if serve_frontend and topology == "disagg":
        # The serve gateway drives the plain cluster scheduler; disagg
        # exercises its own handoff frontend instead.
        topology = "cluster"
    kwargs = dict(
        seed=seed, topology=topology, num_gpus=num_gpus, max_batch=max_batch,
        rate=rate, duration=duration, lora_rank=lora_rank,
        storm_picks=storm_picks, fault_plan=fault_plan,
        serve_frontend=serve_frontend, spec=spec, traced=traced,
    )
    fast = _build_composed(fast_path=True, **kwargs)
    ref = _build_composed(fast_path=False, **kwargs)
    _assert_composed_equivalent(fast, ref)


def test_vector_merge_lane_engages_untraced():
    """The canary for the composed suite: an untraced decode-heavy
    multi-GPU run must actually commit cross-engine merges — otherwise
    the suite above is comparing the per-step lane to itself."""
    trace = generate_trace(
        60, "skewed", seed=5,
        lengths=ShareGptLengths(max_prompt_len=32, max_response_len=24),
        arrivals=PoissonArrivals(rate=constant_rate(12.0), duration=5.0),
    )
    engines = [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, fast_path=True),
            EngineConfig(max_batch_size=8),
            fast_path=True,
        )
        for i in range(2)
    ]
    sim = ClusterSimulator(engines, fast_path=True)
    chunk_times = []
    sim.token_sink = lambda rid, tokens, times: chunk_times.append(times)
    sim.run(trace)
    assert sim._vector.merges > 0
    assert sim._vector.merged_steps > sim._vector.merges
    # A merged run reaches the token sink as one chunk per request that
    # spans several steps' ends.
    assert any(len(set(times)) > 1 for times in chunk_times)


@pytest.mark.parametrize("until", [1.5, 3.0, 4.5])
def test_run_cut_mid_decode_writes_back_the_armed_batches(until):
    """A run cut short (``until=``) returns with every staged run's popped
    steps applied and the armed batches written back: each request's
    state, KV length and tokens, and each allocator's lengths and pages,
    equal the reference path's at the same cut."""
    trace = generate_trace(
        60, "skewed", seed=5,
        lengths=ShareGptLengths(max_prompt_len=32, max_response_len=24),
        arrivals=PoissonArrivals(rate=constant_rate(12.0), duration=5.0),
    )

    def cut(fast_path):
        engines = [
            GpuEngine(
                f"gpu{i:02d}", SimulatedBackend(LLAMA2_7B),
                EngineConfig(max_batch_size=8), fast_path=fast_path,
            )
            for i in range(2)
        ]
        sim = ClusterSimulator(engines, fast_path=fast_path)
        result = sim.run(trace, until=until)
        allocators = [e.backend.kv.allocator for e in engines]
        return sim, (
            _request_states(result.requests),
            [r.generated_tokens for r in result.requests],
            [(dict(a.lengths), a._pages, a._free) for a in allocators],
        )

    fast, fast_state = cut(True)
    _, ref_state = cut(False)
    assert fast._vector.merged_steps > 0
    assert any(r.state is RequestState.RUNNING for r in fast._requests.values())
    assert fast_state == ref_state


# ---------------------------------------------------------------------------
# Tracing at untraced speed: a Tracer must not disarm a lane
# ---------------------------------------------------------------------------
def _dense_run(trace, *, traced, fast_path, num_gpus=8):
    sim = ClusterSimulator(
        [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(LLAMA2_7B, gpu=A100_40G, fast_path=fast_path),
                EngineConfig(max_batch_size=32),
                fast_path=fast_path,
            )
            for i in range(num_gpus)
        ],
        tracer=Tracer() if traced else None,
        fast_path=fast_path,
    )
    return sim, sim.run(trace)


def _assert_breakdowns_tile(tracer):
    breakdowns = compute_breakdowns(tracer)
    assert breakdowns
    for rid, bd in breakdowns.items():
        assert bd.components_sum() == pytest.approx(bd.total, abs=1e-9), rid
        assert bd.terminal in ("FINISH", "SHED", "CANCEL"), rid


def test_dense_traced_run_keeps_every_lane_armed():
    """The ledger's ``sim_steady`` shape (8 engines, batch 32, ShareGPT
    decodes on a ramp): the traced fast run commits exactly the windows
    the untraced one does — the same merges, the same inline steps, and
    per engine the same split between bulk-committed decode steps
    (``fast_steps``) and ``step()`` invocations (``slow_steps``) — the
    engagement canary that fails if tracing ever disarms a lane again —
    and its JSONL is byte-identical to the reference path's
    one-emit-per-token stream."""
    duration = 30.0
    trace = generate_trace(
        int(duration * 12.0) + 64, "skewed", seed=0,
        arrivals=PoissonArrivals(
            rate=RampProfile(duration=duration, peak_rate=12.0,
                             hold_fraction=0.2),
            duration=duration,
        ),
    )
    assert len(trace) >= 200
    traced_sim, traced = _dense_run(trace, traced=True, fast_path=True)
    plain_sim, plain = _dense_run(trace, traced=False, fast_path=True)
    ref_sim, ref = _dense_run(trace, traced=True, fast_path=False)

    assert traced_sim._vector.merges > 0
    assert traced_sim._vector.merges == plain_sim._vector.merges
    assert traced_sim._vector.merged_steps == plain_sim._vector.merged_steps
    assert traced_sim.inline_steps == plain_sim.inline_steps > 0
    for a, b in zip(traced_sim.scheduler.engines.values(),
                    plain_sim.scheduler.engines.values()):
        assert (a.fast_steps, a.slow_steps) == (b.fast_steps, b.slow_steps)
    assert ref_sim.inline_steps == 0 and ref_sim._vector.merges == 0

    # Most of the trace was never materialised as events while running.
    assert len(traced_sim.tracer) == len(ref_sim.tracer)
    assert len(traced_sim.tracer._log) < len(traced_sim.tracer) // 3
    assert traced_sim.tracer.dumps_jsonl() == ref_sim.tracer.dumps_jsonl()
    assert _request_states(traced.requests) == _request_states(ref.requests)
    assert _request_states(traced.requests) == _request_states(plain.requests)
    assert (
        traced.metrics.registry.to_json() == plain.metrics.registry.to_json()
    )
    _assert_breakdowns_tile(traced_sim.tracer)


@pytest.mark.parametrize("seed", [0, 1])
def test_churn_slice_differential(seed):
    """The ledger's whole ``sim_churn`` rep (0.4 % of ``fig13_1m``: 4 000
    short requests over 256 Zipf adapters on the 8-engine fleet), not just
    its first 200 requests: batch membership changes on almost every step,
    so nearly every step plans a mixed batch from ``_entry_cache`` entries
    and every arrival is a first-fit placement. Fast == fast-traced ==
    reference on every request's stamps and tokens, and the two traces
    agree byte for byte (every PLACE names the same GPU); the reference
    run is what checks the un-armed ``step`` reading the entry cache on
    the path that plans every step."""
    trace = scale_trace(FIG13_1M, fraction=0.004, seed=seed)
    fast_sim, fast = _dense_run(trace, traced=False, fast_path=True)
    traced_sim, traced = _dense_run(trace, traced=True, fast_path=True)
    ref_sim, ref = _dense_run(trace, traced=True, fast_path=False)
    assert fast.finished_requests == len(trace)
    for other in (traced, ref):
        assert (fast.duration, fast.finished_requests, fast.tokens_generated) == (
            other.duration, other.finished_requests, other.tokens_generated
        )
        assert _request_states(fast.requests) == _request_states(other.requests)
    assert traced_sim.tracer.dumps_jsonl() == ref_sim.tracer.dumps_jsonl()

    # Canaries that this run is churn: most steps go through ``step`` (not
    # the bulk lane) and build a plan.
    engines = list(fast_sim.scheduler.engines.values())
    assert sum(e.slow_steps for e in engines) > sum(e.fast_steps for e in engines)
    assert sum(e._steady.misses for e in engines) >= 3500
    ref_engines = list(ref_sim.scheduler.engines.values())
    assert all(e._steady.hits == 0 for e in ref_engines)  # plans every step
    assert sum(e._steady.misses for e in ref_engines) >= 3500
    assert all(not e._entry_cache for e in engines + ref_engines)


def test_one_engine_run_is_a_one_lane_merge():
    """A lone engine's bulk decode run goes through the same merge lane,
    as a merge with one lane: a traced 1-GPU run must commit merges and
    still match the reference path's bytes, request state and event
    count."""
    trace = generate_trace(
        12, "skewed", seed=4,
        lengths=ShareGptLengths(max_prompt_len=64, max_response_len=200),
        arrivals=PoissonArrivals(rate=constant_rate(2.0), duration=6.0),
    )
    fsim, fast = _dense_run(trace, traced=True, fast_path=True, num_gpus=1)
    rsim, ref = _dense_run(trace, traced=True, fast_path=False, num_gpus=1)
    assert fsim._vector.merges > 0
    assert fsim._vector.merged_steps > fsim._vector.merges
    assert rsim._vector.merges == 0
    assert fsim.tracer.dumps_jsonl() == rsim.tracer.dumps_jsonl()
    assert _request_states(fast.requests) == _request_states(ref.requests)
    assert fast.events_processed == ref.events_processed


def _interrupted_dense_run(fast_path):
    """Long interleaving decode runs cut short every way a run can be:
    user cancels mid-decode, a GPU crash, and consolidation migration as
    the tail drains."""
    trace = generate_trace(
        48, "skewed", seed=11,
        lengths=ShareGptLengths(
            min_len=48, max_prompt_len=64, response_mu=4.25,
            response_sigma=0.3, max_response_len=96,
        ),
        arrivals=PoissonArrivals(rate=constant_rate(150.0), duration=0.2),
    )
    tracer = Tracer()
    sim = ClusterSimulator(
        [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(LLAMA2_7B, fast_path=fast_path),
                EngineConfig(max_batch_size=6),
                fast_path=fast_path,
            )
            for i in range(4)
        ],
        SchedulerConfig(migration_interval=0.25, light_load_fraction=0.5),
        fault_injector=FaultInjector(
            [FaultSpec(kind=FaultKind.GPU_CRASH, time=0.9, gpu_id="gpu02")],
            seed=11,
        ),
        tracer=tracer,
        fast_path=fast_path,
    )
    for idx, when in ((1, 0.6), (8, 0.75), (15, 1.1), (20, 1.3)):
        rid = trace.requests[idx].request_id

        def _cancel(now, rid=rid):
            req = sim._requests.get(rid)
            if req is not None and req.state is RequestState.RUNNING:
                sim.cancel(req, now)

        sim.loop.schedule(when, _cancel)
    return sim, sim.run(trace)


def test_interrupted_merge_windows_leave_no_stray_decode_steps():
    """A request cancelled, migrated or crashed right after a bulk-commit
    window: the window stopped short of the interruption, so the trace
    holds no DECODE_STEP emitted (or started) past the request's terminal
    event, none from a GPU the request had already left, and the latency
    tiling still closes exactly."""
    fsim, fast = _interrupted_dense_run(True)
    rsim, ref = _interrupted_dense_run(False)
    assert fsim._vector.merges > 0 and fsim.inline_steps > 0
    tracer = fsim.tracer
    assert tracer.dumps_jsonl() == rsim.tracer.dumps_jsonl()
    assert _request_states(fast.requests) == _request_states(ref.requests)
    for kind in (EventKind.CANCEL, EventKind.FAULT, EventKind.MIGRATE):
        assert tracer.by_kind(kind), f"scenario no longer exercises {kind}"
    _assert_breakdowns_tile(tracer)

    # Walk each timeline in emission order: a step is recorded when it is
    # issued, stamped with its end time, so a token in flight at a cancel
    # sorts after the CANCEL by time but was emitted (and started) before.
    per_request: dict = {}
    for event in tracer.events:
        if event.request_id is not None:
            per_request.setdefault(event.request_id, []).append(event)
    interrupted = 0
    for rid, timeline in per_request.items():
        gpu = None
        last_index = -1
        last_start = 0.0
        done = None
        for event in timeline:
            kind = event.kind
            if kind is EventKind.PLACE:
                gpu = event.gpu_id
            elif kind in (EventKind.QUEUE, EventKind.MIGRATE):
                gpu = None  # displaced: no decode until the next PLACE
                interrupted += 1
            elif kind is EventKind.DECODE_STEP:
                assert done is None, f"{rid}: DECODE_STEP after {done.kind}"
                assert event.gpu_id == gpu, (
                    f"{rid}: decode on {event.gpu_id} while placed on {gpu}"
                )
                assert event.attrs["token_index"] > last_index
                last_index = event.attrs["token_index"]
                last_start = event.attrs["start"]
            elif kind in TERMINAL_KINDS:
                assert last_start <= event.time, (
                    f"{rid}: a step started after its {kind.value}"
                )
                done = event
                interrupted += kind is not EventKind.FINISH
        assert done is not None, f"{rid} never terminated"
    assert interrupted >= 4


# ---------------------------------------------------------------------------
# Staged runs between other events: finishes, scalar steps, arrivals, drains
# ---------------------------------------------------------------------------
def _staggered_trace(n, *, spacing, response_lens):
    """``n`` requests ``spacing`` seconds apart whose response lengths
    cycle through ``response_lens``, so their finishes fall at scattered
    steps of their engines' decode runs."""
    return Trace(tuple(
        RequestSpec(
            request_id=f"req-{i:03d}", lora_id=f"lora-{i % 3}",
            arrival_time=i * spacing, prompt_len=16 + 4 * (i % 5),
            response_len=response_lens[i % len(response_lens)],
        )
        for i in range(n)
    ))


def _finish_run(
    trace, *, max_batch, traced, fast_path, sink, num_gpus=None,
    kv_tokens=None, presets=None, control=None, quantum=None, cancels=(),
):
    """One run of ``trace``; with ``sink`` each request's ``(token,
    time)`` stream as the token sink delivered it. ``kv_tokens`` sizes
    each engine's KvCache pool (default: the GPU's); ``presets`` names
    one GPU preset per engine (default: ``num_gpus`` of the backend's
    default GPU); ``control`` routes through the SLO router; ``quantum``
    pumps the loop in ``run(until=)`` quanta, the way the serving bridge
    drives it; ``cancels`` are ``(request index, delay after its
    arrival)`` picks, cancelled then if still queued or running."""
    kv_bytes = (
        None if kv_tokens is None
        else kv_tokens * LLAMA2_7B.kv_bytes_per_token()
    )
    gpus = (
        [{}] * num_gpus if presets is None
        else [{"gpu": HwSpec.preset(p)} for p in presets]
    )
    sim = ClusterSimulator(
        [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(
                    LLAMA2_7B, kv_capacity_bytes=kv_bytes,
                    fast_path=fast_path, **gpu,
                ),
                EngineConfig(max_batch_size=max_batch),
                fast_path=fast_path,
            )
            for i, gpu in enumerate(gpus)
        ],
        tracer=Tracer() if traced else None,
        fast_path=fast_path,
        control=control,
    )
    for idx, delay in cancels:
        spec = trace.requests[idx % len(trace.requests)]

        def _cancel(now, rid=spec.request_id):
            req = sim._requests.get(rid)
            if req is not None and req.state in (
                RequestState.QUEUED, RequestState.RUNNING
            ):
                sim.cancel(req, now)

        sim.loop.schedule(spec.arrival_time + delay, _cancel)
    streams: dict = {}
    if sink:
        sim.token_sink = lambda rid, tokens, times: streams.setdefault(
            rid, []
        ).extend(zip(tokens, times))
    if quantum is None:
        return sim, sim.run(trace), streams
    until = quantum
    result = sim.run(trace, until=until)
    while sim.loop.pending:
        until += quantum
        sim.loop.run(until=until)
    result = dataclasses.replace(result, events_processed=sim.loop.processed)
    return sim, result, streams


def _lane_counts(sim):
    lane = sim._vector
    engines = sim.scheduler.engines.values()
    return (
        lane.merges, lane.merged_steps, lane.finishes, sim.inline_steps,
        [(e.fast_steps, e.slow_steps) for e in engines],
    )


def _assert_finish_runs_identical(trace, **kwargs):
    """Fast traced, fast untraced and fast with a token sink against the
    traced reference path: bytes, request state, metrics, event count,
    the loop's seq counter and streams equal, and the lane commits the
    same windows whether or not a tracer watches. Returns the untraced
    fast simulator."""
    ref_sim, ref, ref_streams = _finish_run(
        trace, traced=True, fast_path=False, sink=True, **kwargs
    )
    assert ref_sim._vector.merges == 0 and ref_sim.inline_steps == 0
    runs = {
        (traced, sink): _finish_run(
            trace, traced=traced, fast_path=True, sink=sink, **kwargs
        )
        for traced, sink in ((True, False), (False, False), (False, True))
    }
    for (traced, sink), (sim, result, streams) in runs.items():
        assert _request_states(result.requests) == _request_states(ref.requests)
        _assert_metrics_equal(result.metrics, ref.metrics)
        assert result.events_processed == ref.events_processed
        assert result.duration == ref.duration
        assert sim.loop.pending == 0
        # Every event took the seq the reference loop gave it.
        assert sim.loop.reserve(0) == ref_sim.loop.reserve(0)
        if traced:
            assert sim.tracer.dumps_jsonl() == ref_sim.tracer.dumps_jsonl()
        if sink:
            assert streams == ref_streams
        assert _lane_counts(sim) == _lane_counts(runs[(False, False)][0])
    return runs[(False, False)][0]


def _open_runs(sim, but=None):
    """``[(run, steps popped)]`` for every staged run (other than GPU
    ``but``'s) that still has steps for the loop to pop."""
    return [
        (run, run.popped) for run in sim._vector._runs.values()
        if run.popped < run.steps and run.gpu_id != but
    ]


def _went_on(seen):
    """Whether some run open at a recorded event popped steps after it:
    it ticked on past the event instead of being restaged."""
    return any(run.popped > popped for _, runs in seen for run, popped in runs)


@pytest.fixture
def arrivals_between_ticks(monkeypatch):
    """``(request id, open runs)`` for every arrival that ran while some
    engine's staged run had steps left, over every run the test makes
    (see :func:`_open_runs`)."""
    seen = []
    arrive = ClusterSimulator._arrive

    def arriving(self, req, now):
        runs = _open_runs(self)
        if runs:
            seen.append((req.request_id, runs))
        arrive(self, req, now)

    monkeypatch.setattr(ClusterSimulator, "_arrive", arriving)
    return seen


@pytest.fixture
def scalar_steps_between_ticks(monkeypatch):
    """``(gpu id, open runs)`` for every scalar step that ran while
    another engine's staged run had steps left."""
    seen = []
    after = ClusterSimulator._after_step

    def after_step(self, gpu_id, engine, report):
        runs = _open_runs(self, but=gpu_id)
        if runs:
            seen.append((gpu_id, runs))
        return after(self, gpu_id, engine, report)

    monkeypatch.setattr(ClusterSimulator, "_after_step", after_step)
    return seen


@pytest.fixture
def drains_with_waiters(monkeypatch):
    """``(source, settled)`` for every queue drain that ran with requests
    waiting: ``"tick"`` inside the lane's step action (a run's finishing
    step), ``"scalar"`` after a scalar step, ``None`` elsewhere; and
    whether every popped tick was applied first, as placement needs."""
    drains = []
    source = []

    def within(name, method):
        def wrapped(*args):
            source.append(name)
            try:
                return method(*args)
            finally:
                source.pop()

        return wrapped

    monkeypatch.setattr(
        VectorDecodeLane, "try_merge", within("tick", VectorDecodeLane.try_merge)
    )
    monkeypatch.setattr(
        ClusterSimulator, "_after_step",
        within("scalar", ClusterSimulator._after_step),
    )
    drain = ClusterSimulator._drain_queue

    def draining(self, now):
        if self.scheduler.queue_depth:
            settled = all(
                run.popped == run.done for run in self._vector._runs.values()
            )
            drains.append((source[-1] if source else None, settled))
        drain(self, now)

    monkeypatch.setattr(ClusterSimulator, "_drain_queue", draining)
    return drains


def test_finishes_commit_inside_merges():
    """Four engines decode staggered response lengths with nobody waiting:
    each run's finishing step commits at its pop — its FINISH events
    between two run blocks, its requests released, the engine re-armed
    and restaged at its next pop — and the run stays byte-identical to
    the reference."""
    trace = _staggered_trace(
        30, spacing=0.004, response_lens=(23, 57, 9, 88, 41, 70, 15, 33)
    )
    sim = _assert_finish_runs_identical(trace, num_gpus=4, max_batch=8)
    lane = sim._vector
    assert lane.finishes > 0
    assert lane.merges > 0


@pytest.fixture
def block_shapes(monkeypatch):
    """Record each trace block's lane count and each staging's engine and
    whether its plan was already laid (a restage on an unchanged plan)."""
    seen = {"lanes": [], "restaged": 0}
    record, stage = Tracer.decode_run, GpuEngine.steady_run_stage

    def decode_run(self, lanes, order=None):
        seen["lanes"].append(len(lanes))
        return record(self, lanes, order)

    def steady_run_stage(self, start):
        laid = self._steady.decode_plan is not None
        staged = stage(self, start)
        seen["restaged"] += staged is not None and laid
        return staged

    monkeypatch.setattr(Tracer, "decode_run", decode_run)
    monkeypatch.setattr(GpuEngine, "steady_run_stage", steady_run_stage)
    return seen


def test_headroom_capped_runs_trace_like_the_reference(block_shapes):
    """A KvCache pool too small for its runs: KV headroom, not a finish,
    caps most stagings, so an engine restages on its unchanged plan
    again and again, one staged run spans several trace blocks, blocks
    hold several engines' lanes and finishing ticks close blocks — and
    every block, read off the armed batches' token offsets, expands to
    the reference path's bytes."""
    trace = _staggered_trace(24, spacing=0.01, response_lens=(40, 77, 55, 120))
    sim = _assert_finish_runs_identical(
        trace, num_gpus=3, max_batch=6, kv_tokens=512, cancels=((5, 0.3),)
    )
    assert sim._vector.finishes > 0
    assert block_shapes["restaged"] > 0
    assert any(n > 1 for n in block_shapes["lanes"])


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    num_gpus=st.integers(min_value=2, max_value=4),
    max_batch=st.integers(min_value=2, max_value=8),
    kv_tokens=st.sampled_from([384, 512, 768]),
    response_lens=st.lists(
        st.integers(min_value=40, max_value=120), min_size=2, max_size=5
    ),
    spacing=st.sampled_from([0.002, 0.01, 0.05]),
    cancels=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=23),
            st.floats(min_value=0.05, max_value=2.0),
        ),
        max_size=3,
    ),
)
def test_random_headroom_capped_runs_trace_like_the_reference(
    num_gpus, max_batch, kv_tokens, response_lens, spacing, cancels,
):
    """Long responses on 2–4 engines whose KvCache headroom caps their
    runs, with cancels: multi-engine blocks, finishing ticks inside them
    and restages on an unchanged plan. The traced fast run's JSONL equals
    the traced reference run's, byte for byte."""
    trace = _staggered_trace(24, spacing=spacing, response_lens=response_lens)
    _assert_finish_runs_identical(
        trace, num_gpus=num_gpus, max_batch=max_batch, kv_tokens=kv_tokens,
        cancels=cancels,
    )


def test_finish_with_requests_waiting_replays_the_drain(drains_with_waiters):
    """A batch-limited run whose queue is non-empty at its finishes: a
    run's finishing step settles every engine — each one's popped ticks
    applied — and drains the queue at its pop, admitting the waiter
    there."""
    trace = _staggered_trace(
        16, spacing=0.001, response_lens=(30, 12, 45, 21, 38)
    )
    sim = _assert_finish_runs_identical(trace, num_gpus=2, max_batch=2)
    assert sim._vector.finishes > 0
    assert ("tick", True) in drains_with_waiters
    assert all(settled for _, settled in drains_with_waiters)


def test_scalar_steps_run_between_ticks(scalar_steps_between_ticks):
    """Staggered arrivals land on one engine while the others decode: its
    mixed prefill step is one scalar ``GpuEngine.step`` at its pop, an
    ordinary event between the other engines' ticks, and their staged
    runs tick on past it — byte-identical to the reference."""
    trace = _staggered_trace(12, spacing=0.04, response_lens=(150, 90, 120))
    _assert_finish_runs_identical(trace, num_gpus=3, max_batch=4)
    assert _went_on(scalar_steps_between_ticks)


def test_scalar_step_with_requests_waiting_replays_the_drain(
    drains_with_waiters,
):
    """The batch-limited run of
    ``test_finish_with_requests_waiting_replays_the_drain``: while
    requests wait, a scalar step's finish settles every engine before its
    queue drain places anyone."""
    trace = _staggered_trace(
        16, spacing=0.001, response_lens=(30, 12, 45, 21, 38)
    )
    _assert_finish_runs_identical(trace, num_gpus=2, max_batch=2)
    assert ("scalar", True) in drains_with_waiters
    assert all(settled for _, settled in drains_with_waiters)


def test_eviction_settles_the_fleet_before_replacing(monkeypatch):
    """A tight KvCache pool: a scalar step evicts while another engine's
    staged run has ticks popped but not applied. The step settles every
    engine before the evicted requests are placed again, so the router
    reads the reference state and the run stays byte-identical."""
    evictions = []
    after = ClusterSimulator._after_step

    def after_step(self, gpu_id, engine, report):
        if report.evicted:
            evictions.append(any(
                run.popped > run.done for run in self._vector._runs.values()
            ))
        busy = after(self, gpu_id, engine, report)
        if report.evicted:
            assert all(
                run.popped == run.done for run in self._vector._runs.values()
            )
        return busy

    monkeypatch.setattr(ClusterSimulator, "_after_step", after_step)
    trace = _staggered_trace(16, spacing=0.01, response_lens=(60, 90, 40, 75))
    _assert_finish_runs_identical(
        trace, num_gpus=2, max_batch=8, kv_tokens=256
    )
    assert any(evictions)


def test_arrivals_replay_inside_merges(arrivals_between_ticks):
    """Staggered arrivals while three engines decode: each arrival is an
    ordinary event between ticks — the engines' popped ticks applied
    first, then the ordinary submit — and a staged run the arrival did
    not land on ticks on past it, byte-identical to the reference."""
    trace = _staggered_trace(12, spacing=0.04, response_lens=(150, 90, 120))
    _assert_finish_runs_identical(trace, num_gpus=3, max_batch=4)
    assert arrivals_between_ticks
    assert _went_on(arrivals_between_ticks)


def test_arrival_that_wakes_an_idle_engine_keeps_runs_staged(
    arrivals_between_ticks, monkeypatch,
):
    """Batch-2 engines: arrivals land on idle engines while others tick.
    The arrival kicks the idle engine, whose step takes the next seq as
    in the reference, and the other engines' staged runs tick on."""
    kicked = []
    kick = ClusterSimulator._kick

    def kicking(self, gpu_id, now):
        if not self._gpu_busy[gpu_id] and _open_runs(self, but=gpu_id):
            kicked.append(gpu_id)
        kick(self, gpu_id, now)

    monkeypatch.setattr(ClusterSimulator, "_kick", kicking)
    trace = _staggered_trace(9, spacing=0.05, response_lens=(200, 60, 120))
    _assert_finish_runs_identical(trace, num_gpus=3, max_batch=2)
    assert kicked and _went_on(arrivals_between_ticks)


def test_arrival_tied_with_a_tick_pops_first(arrivals_between_ticks):
    """An arrival due exactly when a decode tick starts: its seq, reserved
    when the run streamed the workload, is below the tick's, so the loop
    runs the arrival first — and its settle applies the ticks before
    it — as the reference loop pops it."""
    base = _staggered_trace(8, spacing=0.01, response_lens=(120, 90, 150))
    kwargs = dict(num_gpus=2, max_batch=8)
    _, ref, _ = _finish_run(
        base, traced=False, fast_path=False, sink=False, **kwargs
    )
    starts = ref.metrics.tokens.times
    tie = float(starts[len(starts) // 2])
    late = RequestSpec(
        request_id="req-tie", lora_id="lora-1", arrival_time=tie,
        prompt_len=24, response_len=30,
    )
    trace = Trace(base.requests + (late,))
    sim = _assert_finish_runs_identical(trace, **kwargs)
    assert tie in sim.metrics.tokens.times.tolist()
    assert "req-tie" in [rid for rid, _ in arrivals_between_ticks]


def test_pumped_run_replays_arrivals_inside_merges(arrivals_between_ticks):
    """The loop pumped in 50 ms ``run(until=)`` quanta, the way the
    serving bridge drives it: each ``run`` settles before it returns, a
    staged run goes on ticking in the next quantum, and arrivals run
    between ticks — the run equal to the reference pumped the same way."""
    trace = _staggered_trace(12, spacing=0.04, response_lens=(150, 90, 120))
    _assert_finish_runs_identical(
        trace, num_gpus=3, max_batch=4, quantum=0.05
    )
    assert _went_on(arrivals_between_ticks)


def test_slo_router_passes_replay_inside_merges(
    arrivals_between_ticks, drains_with_waiters,
):
    """The ``sim_slo`` fleet — an H100, an A100-80G and four L4s behind
    the SLO router — at an overloaded 96 req/s: arrivals and queue
    drains run the router between ticks, its quotes reading every
    engine's settled state, and the traced bytes, the admit series and
    the shed count equal the reference's."""
    trace = open_loop_trace(
        rate=96.0, duration=2.0, seed=0,
        lengths=ShareGptLengths(max_prompt_len=768, max_response_len=24),
    )
    control = ControlConfig(
        default_policy=SloPolicy(ttft_deadline=0.3, itl_deadline=0.12)
    )
    sim = _assert_finish_runs_identical(
        trace, presets=("h100", "a100-80g", "l4", "l4", "l4", "l4"),
        max_batch=8, control=control,
    )
    assert arrivals_between_ticks and drains_with_waiters
    assert all(settled for _, settled in drains_with_waiters)
    assert len(sim.metrics.slo_admits) > 0
    assert sim.metrics.slo_shed_count() > 0


def test_metrics_log_flushed_between_ticks(monkeypatch):
    """A metrics log limit of 3 samples flushes it mid-stretch, while
    engines hold ticks not yet applied: the global token series keeps
    pop order, each GPU's series and counters its step order, and every
    metric equals the reference's."""
    monkeypatch.setattr(VectorDecodeLane, "LOG_LIMIT", 3)
    flushes = []
    flush = VectorDecodeLane._flush

    def flushing(self):
        flushes.append(any(
            run.popped > run.done for run in self._runs.values()
        ))
        flush(self)

    monkeypatch.setattr(VectorDecodeLane, "_flush", flushing)
    trace = _staggered_trace(12, spacing=0.04, response_lens=(150, 90, 120))
    _assert_finish_runs_identical(trace, num_gpus=3, max_batch=4)
    assert any(flushes)


def _invalidated_run(fast_path):
    """Three engines decoding long responses while outside changes land
    between ticks of staged runs: a ``GPU_SLOWDOWN`` of gpu01 and its
    restore, a frontend deadline cancel, late arrivals placed on busy
    engines and a consolidation migration as the tail drains."""
    sim = ClusterSimulator(
        [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(LLAMA2_7B, fast_path=fast_path),
                EngineConfig(max_batch_size=8),
                fast_path=fast_path,
            )
            for i in range(3)
        ],
        SchedulerConfig(migration_interval=0.4, light_load_fraction=0.5),
        fault_injector=FaultInjector([FaultSpec(
            kind=FaultKind.GPU_SLOWDOWN, time=0.3, gpu_id="gpu01",
            factor=2.0, duration=0.25,
        )]),
        tracer=Tracer(),
        fast_path=fast_path,
    )
    frontend = Frontend(sim)
    for i in range(14):
        frontend.submit(
            lora_id=f"lora-{i % 3}", prompt_len=16 + 3 * i,
            response_len=(60, 90, 40, 120, 75)[i % 5],
            at_time=0.01 * i + (0.5 if i >= 10 else 0.0),
            deadline=0.45 if i == 3 else None,
        )
    return sim, sim.run([])


def test_outside_changes_invalidate_staged_runs(monkeypatch):
    """Between two ticks of one staged run, each outside change — a
    slowdown and its restore, a consolidation migration, a deadline
    cancel, an arrival placed on the engine — breaks the run's validity,
    so the engine's next pop restages or takes a scalar step, with no
    code for the event's kind. Fast and reference agree byte for byte:
    trace JSONL, metrics registry, every request's stamps and tokens, and
    the loop's seq counter."""
    landed = []
    stale = []

    def open_gpus(sim):
        return {run.gpu_id for run, _ in _open_runs(sim)}

    def spy(name, landing):
        """Wrap ``ClusterSimulator.<name>``: ``landing(sim, *args)``, read
        before the call, returns what names the change once it is made
        (``None`` when it did not land on a staged run)."""
        method = getattr(ClusterSimulator, name)

        def wrapped(self, *args, **kwargs):
            named = landing(self, *args, **kwargs)
            result = method(self, *args, **kwargs)
            landed.append(named(self))
            return result

        monkeypatch.setattr(ClusterSimulator, name, wrapped)

    def faulting(sim, spec, now):
        hit = spec.gpu_id in open_gpus(sim)
        return lambda sim: "slowdown" if hit else None

    def cancelling(sim, req, now=None, reason="user"):
        hit = req.gpu_id in open_gpus(sim)
        return lambda sim: reason if hit else None

    def migrating(sim, now):
        moved, busy = sim.scheduler.num_migrations, open_gpus(sim)
        return lambda sim: (
            "migration" if busy and sim.scheduler.num_migrations > moved
            else None
        )

    def arriving(sim, req, now):
        busy = open_gpus(sim)
        return lambda sim: "arrival" if req.gpu_id in busy else None

    spy("_apply_fault", faulting)
    spy("cancel", cancelling)
    spy("_migration_tick", migrating)
    spy("_arrive", arriving)
    valid = GpuEngine.steady_run_valid

    def checking(self):
        ok = valid(self)
        if not ok:
            _, _, plan, slowdown, _ = self._staged_run
            stale.append((
                self.gpu_id,
                "slowdown" if slowdown != self.slowdown_factor
                else "pending" if self._pending else "plan",
            ))
        return ok

    monkeypatch.setattr(GpuEngine, "steady_run_valid", checking)
    fast_sim, fast = _invalidated_run(True)
    ref_sim, ref = _invalidated_run(False)
    assert fast_sim.tracer.dumps_jsonl() == ref_sim.tracer.dumps_jsonl()
    assert (
        fast.metrics.registry.to_json() == ref.metrics.registry.to_json()
    )
    assert _request_states(fast.requests) == _request_states(ref.requests)
    assert [r.generated_tokens for r in fast.requests] == [
        r.generated_tokens for r in ref.requests
    ]
    assert fast_sim.loop.reserve(0) == ref_sim.loop.reserve(0)
    assert fast_sim._vector.merged_steps > 0
    # Each change landed on an engine with a staged run open ...
    for kind in ("slowdown", "deadline", "migration", "arrival"):
        assert kind in landed, kind
    # ... and its next pop found the run stale: the slowdown and its
    # restore, the removed requests, the admitted ones.
    assert stale.count(("gpu01", "slowdown")) == 2
    assert {why for _, why in stale} == {"slowdown", "plan", "pending"}


def test_engine_idled_by_a_merged_finish_schedules_nothing(monkeypatch):
    """An engine whose last requests all finish inside a merge goes idle
    there: no successor step event, its busy flag down and its handle
    gone — so the run takes exactly the reference path's events and
    steps, and a later arrival kicks it as usual."""
    idled = []
    commit = GpuEngine.commit_steady_run

    def spy(self, n):
        commit(self, n)
        if self.is_idle:
            idled.append(self.gpu_id)
            assert self._steady.decode_plan is None

    monkeypatch.setattr(GpuEngine, "commit_steady_run", spy)
    burst = _staggered_trace(5, spacing=0.002, response_lens=(17, 40, 26))
    late = RequestSpec(
        request_id="req-late", lora_id="lora-0", arrival_time=30.0,
        prompt_len=16, response_len=20,
    )
    trace = Trace(burst.requests + (late,))
    sim = _assert_finish_runs_identical(trace, num_gpus=1, max_batch=8)
    # The burst, then the late request, in each of the three fast runs.
    assert idled == ["gpu00"] * 2 * 3
    assert sim._gpu_busy == {"gpu00": False}
    ref_sim, _, _ = _finish_run(
        trace, num_gpus=1, max_batch=8, traced=False, fast_path=False,
        sink=False,
    )
    (engine,) = sim.scheduler.engines.values()
    (ref_engine,) = ref_sim.scheduler.engines.values()
    assert engine.fast_steps + engine.slow_steps == ref_engine.slow_steps


# ---------------------------------------------------------------------------
# Unified pools: KvCache and adapters on one byte budget
# ---------------------------------------------------------------------------
def _unified_pool_run(fast_path):
    """The adapter-cache ablation's fleet (two engines, each on a
    :class:`UnifiedMemoryPool`, prefetch on) at a budget of 6 000 KV
    tokens beside four adapters, so decode appends demote adapters, with
    every seventh request cancelled soon after it arrives. The pool's
    invariant is checked after every step and every bulk commit; returns
    the run's result, simulator, the adapters demoted by KV appends and
    the staged runs a new adapter copy made stale."""
    scale = AdapterCacheScale(duration=20.0, kv_budget_tokens=6_000)
    trace = open_loop_trace(
        rate=scale.rate, duration=scale.duration, distribution="skewed",
        seed=0, alpha=scale.alpha,
    )
    resolved = lambda requested: fast_path  # noqa: E731
    with mock.patch.object(engine_module, "fastpath_enabled", resolved), \
            mock.patch.object(simulator_module, "fastpath_enabled", resolved):
        sim, _, _ = build_adapter_cluster(trace, scale=scale)
    for i, spec in enumerate(trace.requests[::7]):
        def _cancel(now, rid=spec.request_id):
            req = sim._requests.get(rid)
            if req is not None and req.state in (
                RequestState.QUEUED, RequestState.RUNNING
            ):
                sim.cancel(req, now)

        sim.loop.schedule(spec.arrival_time + 0.3 + 0.1 * (i % 5), _cancel)
    demoted = [0]
    stale = [0]
    append, step = UnifiedMemoryPool.append, GpuEngine.step
    commit, valid = GpuEngine.commit_steady_run, GpuEngine.steady_run_valid

    def appending(self, seq_id, n=1):
        before = self.adapters.num_evictions
        pages = append(self, seq_id, n)
        demoted[0] += self.adapters.num_evictions - before
        return pages

    def stepping(self, now):
        report = step(self, now)
        self.backend.pool.check_invariant()
        return report

    def committing(self, n):
        commit(self, n)
        self.backend.pool.check_invariant()

    def validating(self):
        ok = valid(self)
        staged = self._staged_run
        if not ok and staged is not None and staged[4] != self.loader.transfers:
            stale[0] += 1
        return ok

    with mock.patch.object(UnifiedMemoryPool, "append", appending), \
            mock.patch.object(GpuEngine, "step", stepping), \
            mock.patch.object(GpuEngine, "commit_steady_run", committing), \
            mock.patch.object(GpuEngine, "steady_run_valid", validating):
        result = sim.run(trace)
    return result, sim, demoted[0], stale[0]


@pytest.fixture(scope="module")
def unified_pool_runs():
    return _unified_pool_run(True), _unified_pool_run(False)


def test_unified_pool_fleet_differential(unified_pool_runs):
    """Fast == reference on a unified-pool fleet under KV pressure,
    prefetch and cancels: every request's stamps and tokens, the metrics
    registry, the adapter hits per tier and the evictions. The decode
    appends that demote adapters run slot by slot on both paths, at the
    same steps."""
    (fast, fast_sim, fast_demoted, _), (ref, _, ref_demoted, _) = unified_pool_runs
    assert _request_states(fast.requests) == _request_states(ref.requests)
    assert {r.state for r in fast.requests} == {
        RequestState.FINISHED, RequestState.CANCELLED,
    }
    _assert_metrics_equal(fast.metrics, ref.metrics)
    assert fast.metrics.adapter_hit_counts() == ref.metrics.adapter_hit_counts()
    assert fast.metrics.eviction_count() == ref.metrics.eviction_count()
    assert fast.duration == ref.duration
    assert fast_demoted == ref_demoted > 0
    for engine in fast_sim.scheduler.engines.values():
        assert engine.backend.kv.allocator.used_pages == 0


def test_unified_pool_fleet_merges(unified_pool_runs):
    """The canary: unified-pool engines take the decode lane's bulk runs
    (each priced within the pages that fit beside every adapter), and a
    prefetch promotion that lands on a staged run makes it stale."""
    (_, fast_sim, _, stale), (_, ref_sim, _, _) = unified_pool_runs
    engines = list(fast_sim.scheduler.engines.values())
    assert fast_sim._vector.merged_steps > 0
    assert sum(e.fast_steps for e in engines) > 0
    assert stale > 0
    assert ref_sim._vector.merged_steps == 0


# ---------------------------------------------------------------------------
# Canary: the fast lanes must actually engage
# ---------------------------------------------------------------------------
def _lanes_trace():
    return generate_trace(
        40, "skewed", seed=3,
        lengths=ShareGptLengths(max_prompt_len=32, max_response_len=24),
        arrivals=PoissonArrivals(rate=constant_rate(10.0), duration=4.0),
    )


def _lanes_sim(num_gpus, fast_path):
    engines = [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, fast_path=fast_path),
            EngineConfig(max_batch_size=8),
            fast_path=fast_path,
        )
        for i in range(num_gpus)
    ]
    return ClusterSimulator(engines, fast_path=fast_path), engines


def test_fast_lanes_engage():
    """A decode-heavy run must commit decode steps in bulk through the
    merge lane (``fast_steps``), still run boundary steps through
    ``step()`` (``slow_steps``), and both reuse the armed plan and
    re-plan on membership changes — otherwise the differential suite
    would be comparing the reference path to itself."""
    sim, engines = _lanes_sim(2, fast_path=True)
    sim.run(_lanes_trace())
    assert sum(e.fast_steps for e in engines) > 0
    assert sum(e.slow_steps for e in engines) > 0
    assert sim.inline_steps > 0
    assert sum(e._plan_cache.hits for e in engines) > 0
    assert sum(e._plan_cache.misses for e in engines) > 0


def _lanes_outcome(sim):
    return (
        sim.loop.processed,
        sim.loop.now,
        sorted(
            (r.request_id, r.state, r.num_generated)
            for r in sim._requests.values()
        ),
    )


@pytest.mark.parametrize("num_gpus", [1, 2])
def test_event_budget_is_exact_on_the_fast_path(num_gpus):
    """``loop.run(max_events=k)`` stops after exactly ``k`` events on both
    paths, with the decode lane engaged: every tick is one event, and
    ``run`` settles before it returns, so the clock, the processed count
    and every request's state and tokens match the reference after any
    budget."""
    trace = _lanes_trace()
    merged = []
    for k in range(1, 280, 3):
        outcomes = []
        for fast_path in (True, False):
            sim, _ = _lanes_sim(num_gpus, fast_path)
            sim._stream_arrivals(requests_from_trace(trace))
            sim.loop.run(max_events=k)
            outcomes.append(_lanes_outcome(sim))
            if fast_path:
                merged.append(sim._vector.merged_steps)
        assert outcomes[0] == outcomes[1], k
        assert outcomes[0][0] <= k
    assert merged[-1] > 0


def _pumped(sim, requests, quantum=0.005):
    """Advance the loop in ``run(until=)`` quanta, the way the serving
    bridge pumps it, until no event is left."""
    sim._stream_arrivals(requests)
    until = 0.0
    while sim.loop.pending:
        until += quantum
        sim.loop.run(until=until)


def test_pumped_lone_engine_still_merges():
    """A one-engine run pumped in 5 ms quanta must merge as it does in
    one ``run()`` call: every quantum's first step event opens a merge,
    so the pumped run takes exactly the scalar steps of the single run
    and ends with the reference path's tokens and states."""
    trace = _lanes_trace()
    sim, (engine,) = _lanes_sim(1, fast_path=True)
    _pumped(sim, requests_from_trace(trace))
    ref_sim, _ = _lanes_sim(1, fast_path=False)
    _pumped(ref_sim, requests_from_trace(trace))
    whole_sim, (whole_engine,) = _lanes_sim(1, fast_path=True)
    whole_sim.run(trace)

    def tokens(s):
        return sorted(
            (r.request_id, r.state, tuple(r.generated_tokens))
            for r in s._requests.values()
        )

    assert tokens(sim) == tokens(ref_sim) == tokens(whole_sim)
    assert sim._vector.merges > 0
    assert engine.slow_steps == whole_engine.slow_steps


def test_spec_lane_engages_in_differential_workloads():
    """The canary for the spec dimension: an armed workload from the
    Hypothesis menu must actually run speculative rounds on both paths —
    otherwise the spec x faults x cancellation sweep is vacuous."""
    kwargs = dict(
        seed=9, num_gpus=2, max_batch=4, rate=8.0, duration=2.0,
        lora_rank=16, cancel_picks=[(3, 0.2)], fault_plan=[_FAULT_MENU[0]],
        spec=_SPEC_MENU[1],
    )
    for fast_path in (True, False):
        _, _, _, sim = _build_and_run(fast_path=fast_path, **kwargs)
        engines = list(sim.scheduler.engines.values())
        assert sum(e.spec_rounds for e in engines) > 0
        # Armed engines never arm the bulk lane: every round is a step().
        assert all(e.fast_steps == 0 for e in engines)
        assert sum(e.slow_steps for e in engines) >= sum(
            e.spec_rounds for e in engines
        )


def test_reference_path_never_engages_fast_lanes():
    trace = generate_trace(
        20, "skewed", seed=3,
        lengths=ShareGptLengths(max_prompt_len=32, max_response_len=12),
        arrivals=PoissonArrivals(rate=constant_rate(8.0), duration=2.0),
    )
    engines = [
        GpuEngine(
            "gpu00",
            SimulatedBackend(LLAMA2_7B, fast_path=False),
            EngineConfig(max_batch_size=8),
            fast_path=False,
        )
    ]
    sim = ClusterSimulator(engines, fast_path=False)
    sim.run(trace)
    assert engines[0].fast_steps == 0
    assert sim.inline_steps == 0
    assert engines[0]._plan_cache is None
