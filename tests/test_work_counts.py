"""Work counts are budgets: the exact number of events, scalar steps,
bulk-committed decode ticks and passes over a batch's requests a small
seeded scenario takes.

These counts are the same on every host, so they gate what wall-clock
timing cannot: a change that turns decode ticks back into scalar steps,
or disarms a lane, raises ``slow_steps`` and lowers ``merged_steps`` and
fails here. ``member_passes`` (``ArmedBatch.member_passes``) counts the
passes that walk an engine's working set request by request: the
write-backs that bring an armed batch's requests up to its step count
(bulk commits and armed steps advance the batch as an offset), and the
slot-by-slot KV reservations and token commits that steps under KV
pressure, with an import joining, or on an engine that does not arm still
make. A change that walks the batch where an offset would do raises it.
``armed_regroupings`` counts ``plan_batch`` calls with a decode entry by
engines that arm — every fast-path engine but a speculative one,
functional ones included: every such plan is laid from the armed batch's
LoRA groups, which each join and leave edits, so it is 0. A pin may only move
toward fewer ``slow_steps`` and ``member_passes`` and more
``merged_steps``, and the change that moves it says why in CHANGES.md.
"""

from __future__ import annotations

import pytest

import repro.runtime.engine as engine_module
from repro.bench.adapter_cache import QUICK, build_adapter_cluster
from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.models.config import tiny_config
from repro.models.weights import random_llama_weights
from repro.obs.scenarios import run_scenario
from repro.runtime.backend import NumpyBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace, open_loop_trace


def _simulators(monkeypatch) -> "list[ClusterSimulator]":
    """Record every simulator that runs while the test does."""
    sims: "list[ClusterSimulator]" = []
    run = ClusterSimulator.run

    def recording(self, *args, **kwargs):
        sims.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ClusterSimulator, "run", recording)
    return sims


def _armed_regroupings(monkeypatch) -> "list[str]":
    """Record the id of every engine that arms and calls ``plan_batch``
    with a decode entry from its step."""
    stepping: "list[GpuEngine]" = []
    regrouped: "list[str]" = []
    step, plan_batch = GpuEngine.step, engine_module.plan_batch

    def recording_step(self, now):
        stepping.append(self)
        try:
            return step(self, now)
        finally:
            stepping.pop()

    def recording_plan(entries):
        engine = stepping[-1]
        if engine._arms and any(not e.is_prefill for e in entries):
            regrouped.append(engine.gpu_id)
        return plan_batch(entries)

    monkeypatch.setattr(GpuEngine, "step", recording_step)
    monkeypatch.setattr(engine_module, "plan_batch", recording_plan)
    return regrouped


def _pinned(monkeypatch, scenario) -> "dict[str, int]":
    """Seed-0 ``scenario`` on the fast path (a scenario name, or a
    callable that runs one simulator): the loop's events, the engines'
    ``GpuEngine.step`` calls, the decode lane's ticks, the engines'
    passes over their requests and their regroupings."""
    sims = _simulators(monkeypatch)
    regrouped = _armed_regroupings(monkeypatch)
    if callable(scenario):
        scenario()
    else:
        run_scenario(scenario, seed=0)
    (sim,) = sims
    engines = sim.scheduler.engines.values()
    assert all(e._arms for e in engines)
    return {
        "events": sim.loop.processed,
        "slow_steps": sum(e.slow_steps for e in engines),
        "merged_steps": sim._vector.merged_steps,
        "member_passes": sum(e._steady.member_passes for e in engines),
        "armed_regroupings": len(regrouped),
    }


def test_steady_dense_work_counts(monkeypatch):
    """Eight engines decoding long ShareGPT responses: 27 scalar steps
    and 347 ticks of staged runs in 397 events; 40 passes over a batch's
    requests."""
    assert _pinned(monkeypatch, "steady_dense") == {
        "events": 397, "slow_steps": 27, "merged_steps": 347,
        "member_passes": 40, "armed_regroupings": 0,
    }


def test_slo_work_counts(monkeypatch):
    """The SLO router over a mixed fleet: 8 scalar steps on the engines
    still in the pool at the end, and 42 ticks, in 107 events; 12 passes
    over a batch's requests."""
    assert _pinned(monkeypatch, "slo") == {
        "events": 107, "slow_steps": 8, "merged_steps": 42,
        "member_passes": 12, "armed_regroupings": 0,
    }


def test_faults_work_counts(monkeypatch):
    """Crashes, slowdowns and their restores land on staged runs, whose
    engines restage or step at their next pop: 43 scalar steps and 68
    ticks in 167 events; 58 passes over a batch's requests."""
    assert _pinned(monkeypatch, "faults") == {
        "events": 167, "slow_steps": 43, "merged_steps": 68,
        "member_passes": 58, "armed_regroupings": 0,
    }


def test_cluster_migration_work_counts(monkeypatch):
    """Consolidation migrations land on staged runs: 65 scalar steps and
    84 ticks in 209 events; 89 passes over a batch's requests."""
    assert _pinned(monkeypatch, "cluster_migration") == {
        "events": 209, "slow_steps": 65, "merged_steps": 84,
        "member_passes": 89, "armed_regroupings": 0,
    }


@pytest.mark.parametrize("variant, prefetch, host_slots, counts", [
    ("no-prefetch", False, None, (9631, 775, 8326, 1405)),
    ("prefetch", True, None, (10047, 1180, 7909, 2262)),
    ("prefetch+small-host", True, 8, (10059, 853, 8248, 1512)),
])
def test_adapter_cache_work_counts(monkeypatch, variant, prefetch, host_slots, counts):
    """The ``adapter-cache`` table's QUICK runs (519 requests on two
    unified-pool engines, whose KvCache and adapters share one budget):
    a staged run is priced within the pages that fit beside every
    resident or in-flight adapter, so ticks carry the decode steps and
    only steps short of that headroom (and every prefill) are scalar.
    Before unified-pool engines held offsets, no-prefetch took 9 101
    scalar steps, no tick and 18 188 passes."""
    trace = open_loop_trace(
        rate=QUICK.rate, duration=QUICK.duration, distribution="skewed",
        seed=0, alpha=QUICK.alpha,
    )
    sim, _, _ = build_adapter_cluster(
        trace, prefetch=prefetch, host_slots=host_slots
    )
    events, slow, merged, passes = counts
    assert _pinned(monkeypatch, lambda: sim.run(trace)) == {
        "events": events, "slow_steps": slow, "merged_steps": merged,
        "member_passes": passes, "armed_regroupings": 0,
    }


def _functional_run(fast_path, eos_token_id=None):
    """Two functional engines (the tiny NumPy Llama, every request its
    own adapter, four slots each) serving 16 requests that all arrive at
    0; returns each request's tokens and the engines."""
    cfg = tiny_config(hidden_size=64, num_layers=2, num_heads=4, vocab_size=64)
    trace = generate_trace(
        16, "distinct", seed=0,
        lengths=ShareGptLengths(max_prompt_len=12, max_response_len=12),
    )
    registry = LoraRegistry()
    for i, lora_id in enumerate(trace.lora_ids()):
        registry.register(random_lora_weights(
            lora_id, cfg.num_layers, cfg.proj_dims(), 4, seed=[0, 11, i]
        ))
    weights = random_llama_weights(cfg, seed=0)
    engines = [
        GpuEngine(
            f"gpu{i}", NumpyBackend(weights, registry, total_pages=64, page_size=4),
            EngineConfig(max_batch_size=4, eos_token_id=eos_token_id),
            fast_path=fast_path,
        )
        for i in range(2)
    ]
    requests = requests_from_trace(
        trace, with_prompt_tokens=True, vocab_size=cfg.vocab_size, seed=7
    )
    ClusterSimulator(engines, fast_path=fast_path).run(requests)
    assert all(r.state is RequestState.FINISHED for r in requests)
    return {r.request_id: r.generated_tokens for r in requests}, engines


def test_functional_engines_plan_from_the_armed_batch(monkeypatch):
    """Functional engines arm on the fast path: every decode plan is
    laid from the armed batch, none regrouped entry by entry. They hold
    no offsets and commit slot by slot, so an EOS token ends a request
    before its length limit on the step it is sampled, as on the
    reference path."""
    regrouped = _armed_regroupings(monkeypatch)
    plain, _ = _functional_run(True)
    # An EOS id that some request samples before its last token.
    eos = next(toks[1] for toks in plain.values() if len(toks) > 2)
    tokens, engines = _functional_run(True, eos)
    ref_tokens, _ = _functional_run(False, eos)
    assert tokens == ref_tokens
    assert any(len(tokens[rid]) < len(plain[rid]) for rid in tokens)
    assert all(e._arms and not e._offsets for e in engines)
    assert sum(e._steady.hits for e in engines) > 0
    assert regrouped == []
