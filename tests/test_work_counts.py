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
engines that arm: every such plan is laid from the armed batch's LoRA
groups, which each join and leave edits, so it is 0. A pin may only move
toward fewer ``slow_steps`` and ``member_passes`` and more
``merged_steps``, and the change that moves it says why in CHANGES.md.
"""

from __future__ import annotations

import repro.runtime.engine as engine_module
from repro.cluster.simulator import ClusterSimulator
from repro.obs.scenarios import run_scenario
from repro.runtime.engine import GpuEngine


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
        if engine._steady_ok and any(not e.is_prefill for e in entries):
            regrouped.append(engine.gpu_id)
        return plan_batch(entries)

    monkeypatch.setattr(GpuEngine, "step", recording_step)
    monkeypatch.setattr(engine_module, "plan_batch", recording_plan)
    return regrouped


def _pinned(monkeypatch, scenario: str) -> "dict[str, int]":
    """Seed-0 ``scenario`` on the fast path: the loop's events, the
    engines' ``GpuEngine.step`` calls, the decode lane's ticks, the
    engines' passes over their requests and their regroupings."""
    sims = _simulators(monkeypatch)
    regrouped = _armed_regroupings(monkeypatch)
    run_scenario(scenario, seed=0)
    (sim,) = sims
    engines = sim.scheduler.engines.values()
    assert all(e._steady_ok for e in engines)
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
