"""Wire guarantees of the simulator's token stream.

The serving frontend (docs/serving.md) streams exactly what the
simulator's token sink hands it: one ``(request_id, tokens, times)`` chunk
per request per engine step, or per bulk-committed decode run, each token
stamped with the end of the step that committed it. These tests subscribe
a recorder to that sink (``ClusterSimulator.token_sink``) on seeded runs
of every regime that changes how tokens are committed — colocated decode
runs on the merge lane, disaggregated handoffs (whose prefill token is
held until the decode GPU delivers it), scripted faults, cancellation
storms, consolidation migration and speculative rounds — and assert the
stream's guarantees over the recorded log:

* no chunk is empty, and each token has one time;
* per request the concatenated tokens are its ``generated_tokens`` when
  it has a ``first_token_time``, and nothing otherwise;
* per request the times never decrease (unless a crash or migration
  moved it mid-step), the first is ``first_token_time`` and a finished
  request's last is ``finish_time``;
* no chunk follows a request's cancel, or the chunk carrying its last
  token.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster.disagg import DisaggConfig
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.runtime.spec import SpecConfig
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

SEEDS = (0, 1, 2, 3)
SCENARIOS = (
    "colocated", "handoff", "faults", "cancel_storm", "migration", "spec",
)


@dataclass
class StreamRun:
    log: list
    """``("chunk", rid, tokens, times)`` and ``("cancel", rid)`` entries,
    in the order the simulator produced them."""
    requests: "list[Request]"
    sim: ClusterSimulator

    def chunks(self) -> "dict[str, list[tuple]]":
        by_rid: "dict[str, list[tuple]]" = {r.request_id: [] for r in self.requests}
        for entry in self.log:
            if entry[0] == "chunk":
                by_rid[entry[1]].append(entry)
        return by_rid

    def cancelled(self) -> "set[str]":
        return {entry[1] for entry in self.log if entry[0] == "cancel"}


def _engines(ids, *, roles=None, step_overhead=0.02, spec=None, max_batch=4):
    return [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, step_overhead=step_overhead),
            EngineConfig(max_batch_size=max_batch, spec=spec),
            role=roles[k] if roles else "both",
        )
        for k, i in enumerate(ids)
    ]


def _build(scenario: str, seed: int) -> ClusterSimulator:
    if scenario == "colocated":
        # Full-speed engines in long decode runs: the merge lane commits
        # multi-step chunks.
        return ClusterSimulator(
            _engines(range(3), step_overhead=0.0, max_batch=6)
        )
    if scenario == "handoff":
        return ClusterSimulator(
            _engines(range(4), roles=("prefill", "prefill", "decode", "decode")),
            handoff=DisaggConfig(decode_queue_limit=2),
            fault_injector=FaultInjector(
                [FaultSpec(kind=FaultKind.KV_TRANSFER_FAIL, time=t)
                 for t in (0.6, 1.2, 1.8)],
                seed=seed,
            ),
        )
    if scenario == "faults":
        return ClusterSimulator(
            _engines(range(3)),
            fault_injector=FaultInjector(
                [
                    FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=0.5,
                              duration=1.0, factor=3.0),
                    FaultSpec(kind=FaultKind.PCIE_STALL, time=0.8, duration=0.4),
                    FaultSpec(kind=FaultKind.ADAPTER_LOAD_FAIL, time=1.0),
                    FaultSpec(kind=FaultKind.GPU_CRASH, time=1.5),
                ],
                seed=seed,
            ),
        )
    if scenario == "cancel_storm":
        return ClusterSimulator(_engines(range(2)))
    if scenario == "migration":
        return ClusterSimulator(
            _engines(range(4), step_overhead=0.1),
            SchedulerConfig(migration_interval=0.25, light_load_fraction=0.5),
        )
    if scenario == "spec":
        return ClusterSimulator(
            _engines(range(2), spec=SpecConfig(
                draft_len=3, acceptance_rate=0.7, seed=seed,
            ))
        )
    raise ValueError(scenario)


@functools.lru_cache(maxsize=None)
def stream_run(scenario: str, seed: int) -> StreamRun:
    """One seeded run with a recorder subscribed to the token sink; a
    third of the requests (the storm) or three of them get cancelled at
    a random point after their arrival."""
    rng = np.random.default_rng([seed, SCENARIOS.index(scenario)])
    trace = generate_trace(
        40, "skewed", seed=seed,
        lengths=ShareGptLengths(max_prompt_len=48, max_response_len=32),
        arrivals=PoissonArrivals(rate=constant_rate(16.0), duration=2.5),
    )
    sim = _build(scenario, seed)
    log: list = []
    sim.token_sink = lambda rid, tokens, times: log.append(
        ("chunk", rid, tokens, times)
    )
    n_cancels = len(trace) // 3 if scenario == "cancel_storm" else 3
    for idx in rng.choice(len(trace), size=n_cancels, replace=False):
        spec = trace.requests[int(idx)]

        def cancel(now, rid=spec.request_id):
            req = sim._requests.get(rid)
            if req is not None and not req.state.is_terminal:
                log.append(("cancel", rid))
                sim.cancel(req, now)

        sim.loop.schedule(spec.arrival_time + float(rng.uniform(0.05, 1.0)), cancel)
    result = sim.run(trace)
    return StreamRun(log, result.requests, sim)


def runs(seed: int):
    return [(name, stream_run(name, seed)) for name in SCENARIOS]


@pytest.mark.parametrize("seed", SEEDS)
def test_no_chunk_is_empty(seed):
    for name, run in runs(seed):
        for entry in run.log:
            if entry[0] == "chunk":
                _, rid, tokens, times = entry
                assert tokens, f"{name}: empty chunk for {rid}"
                assert len(tokens) == len(times), f"{name}: {rid}"


@pytest.mark.parametrize("seed", SEEDS)
def test_every_token_streamed_exactly_once(seed):
    """Concatenated chunks reproduce each request's generated tokens — no
    duplicates, no gaps — once it has a first token, and nothing before
    (a handed-off request cancelled before its decode GPU delivered
    streams nothing)."""
    for name, run in runs(seed):
        chunks = run.chunks()
        for req in run.requests:
            streamed = [t for c in chunks[req.request_id] for t in c[2]]
            expected = (
                req.generated_tokens if req.first_token_time is not None else []
            )
            assert streamed == expected, f"{name}: {req.request_id}"


@pytest.mark.parametrize("seed", SEEDS)
def test_token_chunk_times_monotonic_per_request(seed):
    """Times never decrease along a stream. The one exception is a
    request a crash or a consolidation migration moves off its GPU while
    a step is in flight: the simulator commits a step's tokens when it
    issues the step, and the re-prefill elsewhere starts at once, so it
    can end before the interrupted step would have. Each chunk is still
    ordered."""
    for name, run in runs(seed):
        chunks = run.chunks()
        for req in run.requests:
            mine = chunks[req.request_id]
            displaced = name in ("faults", "migration") and req.num_migrations
            if displaced:
                spans = [list(c[3]) for c in mine]
            else:
                spans = [[t for c in mine for t in c[3]]]
            for times in spans:
                assert times == sorted(times), f"{name}: {req.request_id}"


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_starts_at_first_token_and_ends_at_finish(seed):
    for name, run in runs(seed):
        chunks = run.chunks()
        for req in run.requests:
            mine = chunks[req.request_id]
            if not mine:
                continue
            assert mine[0][3][0] == req.first_token_time, f"{name}: {req.request_id}"
            if req.state is RequestState.FINISHED:
                assert mine[-1][3][-1] == req.finish_time, f"{name}: {req.request_id}"


@pytest.mark.parametrize("seed", SEEDS)
def test_no_chunk_after_cancel_or_last_token(seed):
    """A cancel is terminal on the stream, and so is the chunk that
    carries a request's last token."""
    for name, run in runs(seed):
        total = {r.request_id: r.num_generated for r in run.requests}
        closed: "set[str]" = set()
        count = dict.fromkeys(total, 0)
        for entry in run.log:
            rid = entry[1]
            if entry[0] == "cancel":
                closed.add(rid)
                continue
            assert rid not in closed, f"{name}: chunk for {rid} after its end"
            count[rid] += len(entry[2])
            if count[rid] == total[rid]:
                closed.add(rid)


@pytest.mark.parametrize("seed", SEEDS)
def test_cancelled_requests_do_not_finish(seed):
    for name, run in runs(seed):
        by_id = {r.request_id: r for r in run.requests}
        cancelled = run.cancelled()
        assert cancelled, f"{name}: no cancel landed on a live request"
        for rid in cancelled:
            req = by_id[rid]
            assert req.state is RequestState.CANCELLED, f"{name}: {rid}"
            assert req.num_generated < req.spec.response_len


@pytest.mark.parametrize("seed", SEEDS)
def test_scenarios_exercise_their_commit_paths(seed):
    """The canaries: each regime really commits tokens the way it is
    here to cover, so no guarantee above holds vacuously."""
    run = dict(runs(seed))

    def chunks(name):
        return [e for e in run[name].log if e[0] == "chunk"]

    # The merge lane: one chunk spans several steps.
    assert any(len(set(c[3])) > 1 for c in chunks("colocated"))
    assert run["colocated"].sim._vector.merges > 0
    # A handed-off request's held prefill token rides its first decode
    # step's chunk.
    assert any(
        len(c[2]) > 1 and len(set(c[3])) == 1 for c in chunks("handoff")
    )
    assert run["handoff"].sim.metrics.kv_transfer_count() > 0
    assert run["faults"].sim.metrics.fault_count() > 0
    assert run["migration"].sim.scheduler.num_migrations > 0
    # A speculative round commits several tokens at one step end.
    assert any(len(c[2]) > 1 and len(set(c[3])) == 1 for c in chunks("spec"))
    # Every scenario streams, and the storm cancels some mid-stream.
    assert all(chunks(name) for name in SCENARIOS)
    storm = run["cancel_storm"]
    streamed = {e[1] for e in storm.log if e[0] == "chunk"}
    assert storm.cancelled() & streamed
