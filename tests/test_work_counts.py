"""Work counts are budgets: the exact number of events, scalar steps,
bulk-committed decode ticks and plans built by regrouping a small seeded
scenario takes.

These counts are the same on every host, so they gate what wall-clock
timing cannot: a change that turns decode ticks back into scalar steps,
or disarms a lane, raises ``slow_steps`` and lowers ``merged_steps`` and
fails here. ``rebuilds`` (``ArmedBatch.rebuilds``) counts the steps that
group their batch entry by entry with ``plan_batch``: on the fast path,
only a step that leaves a request pending (its adapter still loading, or
its prefill not selected). Every other plan is laid from the armed
batch's LoRA groups, which each join and leave edits, so a change that
re-plans where those groups would do raises it. ``write_backs``
(``ArmedBatch.write_backs``) counts the passes that bring an armed
batch's requests up to its step count — bulk commits advance the batch as
an offset and leave them behind — so a change that makes a reader or a
commit write back where it need not raises it. A pin may only move
toward fewer ``slow_steps``, ``rebuilds`` and ``write_backs`` and more
``merged_steps``, and the change that moves it says why in CHANGES.md.
"""

from __future__ import annotations

from repro.cluster.simulator import ClusterSimulator
from repro.obs.scenarios import run_scenario


def _simulators(monkeypatch) -> "list[ClusterSimulator]":
    """Record every simulator that runs while the test does."""
    sims: "list[ClusterSimulator]" = []
    run = ClusterSimulator.run

    def recording(self, *args, **kwargs):
        sims.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ClusterSimulator, "run", recording)
    return sims


def _work(sim) -> "dict[str, int]":
    return {
        "events": sim.loop.processed,
        "slow_steps": sum(
            e.slow_steps for e in sim.scheduler.engines.values()
        ),
        "merged_steps": sim._vector.merged_steps,
        "rebuilds": sum(
            e._steady.rebuilds for e in sim.scheduler.engines.values()
        ),
        "write_backs": sum(
            e._steady.write_backs for e in sim.scheduler.engines.values()
        ),
    }


def _pinned(monkeypatch, scenario: str) -> "dict[str, int]":
    """Seed-0 ``scenario`` on the fast path: the loop's events, the
    engines' ``GpuEngine.step`` calls, the decode lane's ticks, the
    engines' steps that left a request pending and so regrouped, and
    their write-back passes."""
    sims = _simulators(monkeypatch)
    run_scenario(scenario, seed=0)
    (sim,) = sims
    return _work(sim)


def test_steady_dense_work_counts(monkeypatch):
    """Eight engines decoding long ShareGPT responses: 27 scalar steps
    and 347 ticks of staged runs in 397 events; 14 of the 49 plans come
    from steps that left a request pending, the rest from the armed
    batch's groups. 27 write-backs: 21 by runs' finishing steps, 6 by
    scalar steps on the laid plan."""
    assert _pinned(monkeypatch, "steady_dense") == {
        "events": 397, "slow_steps": 27, "merged_steps": 347, "rebuilds": 14,
        "write_backs": 27,
    }


def test_slo_work_counts(monkeypatch):
    """The SLO router over a mixed fleet: 8 scalar steps on the engines
    still in the pool at the end, and 42 ticks, in 107 events; 2 steps
    left a request pending; 10 write-backs."""
    assert _pinned(monkeypatch, "slo") == {
        "events": 107, "slow_steps": 8, "merged_steps": 42, "rebuilds": 2,
        "write_backs": 10,
    }


def test_faults_work_counts(monkeypatch):
    """Crashes, slowdowns and their restores land on staged runs, whose
    engines restage or step at their next pop: 43 scalar steps and 68
    ticks in 167 events; 10 steps left a request pending; 48
    write-backs."""
    assert _pinned(monkeypatch, "faults") == {
        "events": 167, "slow_steps": 43, "merged_steps": 68, "rebuilds": 10,
        "write_backs": 48,
    }


def test_cluster_migration_work_counts(monkeypatch):
    """Consolidation migrations land on staged runs: 65 scalar steps and
    84 ticks in 209 events; 21 steps left a request pending; 69
    write-backs."""
    assert _pinned(monkeypatch, "cluster_migration") == {
        "events": 209, "slow_steps": 65, "merged_steps": 84, "rebuilds": 21,
        "write_backs": 69,
    }
