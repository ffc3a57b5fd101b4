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


def _lane_work(sim) -> "dict[str, int]":
    lane = sim._vector
    assert sum(lane.stops.values()) == lane.merges
    return {
        "merges": lane.merges,
        "scalar_steps": lane.scalar_steps,
        "arrivals": lane.arrivals,
        "drains": lane.drains,
        "slow_steps": sum(
            e.slow_steps for e in sim.scheduler.engines.values()
        ),
        "events": sim.loop.processed,
    }


def test_steady_dense_work_counts(monkeypatch):
    """Seed-0 ``steady_dense`` on the fast path: 4 merges (8 while every
    streamed arrival cut the merge it met, 14 while every mixed prefill
    step did too), 12 scalar steps and 10 arrivals replayed inside them,
    27 ``GpuEngine.step`` calls and 397 events."""
    sims = _simulators(monkeypatch)
    run_scenario("steady_dense", seed=0)
    (sim,) = sims
    assert _lane_work(sim) == {
        "merges": 4, "scalar_steps": 12, "arrivals": 10, "drains": 0,
        "slow_steps": 27, "events": 397,
    }


def test_slo_work_counts(monkeypatch):
    """Seed-0 ``slo`` (the SLO router over a mixed fleet) on the fast
    path: 15 merges (19 while arrivals and drains behind a waiter cut
    them), 7 arrivals and 1 queue drain replayed inside them, 8
    ``GpuEngine.step`` calls and 107 events."""
    sims = _simulators(monkeypatch)
    run_scenario("slo", seed=0)
    (sim,) = sims
    assert _lane_work(sim) == {
        "merges": 15, "scalar_steps": 8, "arrivals": 7, "drains": 1,
        "slow_steps": 8, "events": 107,
    }
