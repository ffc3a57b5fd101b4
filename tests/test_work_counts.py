"""Work counts are budgets: the exact number of merges, scalar steps and
events a small seeded scenario takes.

These counts are the same on every host, so they gate what wall-clock
timing cannot: a change that stops replaying some step inside the merge
lane, or disarms a lane, raises them and fails here. A change that lowers
one updates the pin and says so in CHANGES.md.
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


def test_steady_dense_work_counts(monkeypatch):
    """Seed-0 ``steady_dense`` on the fast path: 8 merges (14 while every
    mixed prefill step cut the merge it met), 8 scalar steps replayed
    inside them, 27 ``GpuEngine.step`` calls and 397 events."""
    sims = _simulators(monkeypatch)
    run_scenario("steady_dense", seed=0)
    (sim,) = sims
    lane = sim._vector
    slow_steps = sum(e.slow_steps for e in sim.scheduler.engines.values())
    assert {
        "merges": lane.merges,
        "scalar_steps": lane.scalar_steps,
        "slow_steps": slow_steps,
        "events": sim.loop.processed,
    } == {"merges": 8, "scalar_steps": 8, "slow_steps": 27, "events": 397}
    assert sum(lane.stops.values()) == lane.merges
