"""Performance-regression gate for the fast-path simulation engine.

The fast path (``fast_path=``) exists to make the cluster simulator
cheap enough to iterate on, and its whole value evaporates if a refactor
quietly slows it back down. This module measures the Figure-13 cluster
scenario through both engine paths and once more through the fast path
with a :class:`~repro.obs.tracer.Tracer` attached, cross-checks that all
three produced the same simulation (the differential suite's bit-identity
contract, asserted again here on the summary), and compares the
measurements against thresholds checked into
``benchmarks/BENCH_perf.json``.

Three layers, so CI and humans share one code path:

* :func:`measure` — run the scenario through both paths and time them;
* :func:`evaluate_gate` — pure threshold logic (unit-testable, no clocks);
* :func:`run_perf_gate` — FigureTable wrapper for ``python -m repro perf``.

``benchmarks/bench_perf_gate.py`` is the CI entry point: it calls
:func:`measure` (twice under ``--check`` to bound run-to-run variance)
and fails the build on any gate violation.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from time import perf_counter

from repro.bench.fig13_cluster import QUICK, Fig13Scale, build_cluster, run_fig13_simulation
from repro.bench.reporting import FigureTable
from repro.obs.tracer import Tracer

#: Default location of the checked-in thresholds + last recorded numbers.
BENCH_JSON = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_perf.json"

#: Gate thresholds used when the JSON file is missing its ``thresholds``
#: key. ``min_requests_per_s`` is deliberately conservative: shared CI
#: runners are several times slower than a quiet workstation, and the
#: floor exists to catch order-of-magnitude regressions, not jitter.
DEFAULT_THRESHOLDS = {
    # The three lanes alone: memos and the calendar queue run on both
    # paths, so the reference path is not memo-free (1.6-1.9x measured).
    "min_speedup": 1.4,
    "min_requests_per_s": 150.0,
    "max_variance": 0.20,
    # The observer effect: a traced fast run over an untraced one. Tracing
    # rides the same bulk-commit lanes (run blocks), so the ratio sits near
    # 1.1; it was ~2.0 while a tracer disarmed them.
    "max_traced_ratio": 1.5,
    "budgets": {
        # The million-request scale-out smoke: a self-similar 2% slice of
        # ``fig13_1m`` (20k requests) through the fast path only, gated on
        # absolute wall-clock and event throughput. The full 1.0 fraction
        # is the ``scale``-marked CI job, budgeted separately.
        "fig13_1m": {
            "fraction": 0.02,
            "max_wall_s": 60.0,
            "min_events_per_s": 2000.0,
        },
    },
}


@dataclass(frozen=True)
class PerfMeasurement:
    """One timed fast-vs-reference run of the Figure-13 scenario."""

    scenario: str
    seed: int
    fast_wall_s: float
    ref_wall_s: float
    traced_wall_s: float
    """Fast path again, with a Tracer attached."""
    finished_requests: int
    tokens_generated: int
    events_processed: int
    sim_duration_s: float

    @property
    def speedup(self) -> float:
        return self.ref_wall_s / self.fast_wall_s

    @property
    def traced_ratio(self) -> float:
        """Traced over untraced fast wall-clock — the observer effect."""
        return self.traced_wall_s / self.fast_wall_s

    @property
    def fast_requests_per_s(self) -> float:
        """Finished simulated requests per wall-clock second, fast path."""
        return self.finished_requests / self.fast_wall_s

    @property
    def fast_tokens_per_s(self) -> float:
        return self.tokens_generated / self.fast_wall_s

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "fast_wall_s": round(self.fast_wall_s, 4),
            "ref_wall_s": round(self.ref_wall_s, 4),
            "speedup": round(self.speedup, 3),
            "traced_wall_s": round(self.traced_wall_s, 4),
            "traced_ratio": round(self.traced_ratio, 3),
            "fast_requests_per_s": round(self.fast_requests_per_s, 1),
            "fast_tokens_per_s": round(self.fast_tokens_per_s, 1),
            "finished_requests": self.finished_requests,
            "tokens_generated": self.tokens_generated,
            "events_processed": self.events_processed,
            "sim_duration_s": self.sim_duration_s,
        }


def _summary(result) -> tuple:
    return (
        result.events_processed,
        result.finished_requests,
        result.failed_requests,
        result.tokens_generated,
        result.num_migrations,
        result.duration,
    )


def measure(
    seed: int = 0, scale: "Fig13Scale | None" = None, scenario: str = "fig13_quick"
) -> PerfMeasurement:
    """Time the Figure-13 cluster scenario through both engine paths,
    and through the fast path once more with a tracer attached.

    The extra runs double as equivalence checks: if the paths disagree on
    the simulation summary — or observing the run changed it — the timing
    numbers are meaningless and we raise instead of reporting them.
    """
    scale = scale or QUICK
    t0 = perf_counter()
    fast, _ = run_fig13_simulation(scale=scale, seed=seed, fast_path=True)
    fast_wall = perf_counter() - t0
    t0 = perf_counter()
    traced, _ = run_fig13_simulation(
        scale=scale, seed=seed, fast_path=True, tracer=Tracer()
    )
    traced_wall = perf_counter() - t0
    t0 = perf_counter()
    ref, _ = run_fig13_simulation(scale=scale, seed=seed, fast_path=False)
    ref_wall = perf_counter() - t0
    for name, other in (("reference", ref), ("traced fast", traced)):
        if _summary(fast) != _summary(other):
            raise AssertionError(
                f"fast and {name} runs diverged on the benchmark scenario: "
                f"{_summary(fast)} != {_summary(other)} — timing numbers "
                "discarded"
            )
    return PerfMeasurement(
        scenario=scenario,
        seed=seed,
        fast_wall_s=fast_wall,
        ref_wall_s=ref_wall,
        traced_wall_s=traced_wall,
        finished_requests=fast.finished_requests,
        tokens_generated=fast.tokens_generated,
        events_processed=fast.events_processed,
        sim_duration_s=fast.duration,
    )


@dataclass(frozen=True)
class BudgetMeasurement:
    """One fast-path-only budget run of a :class:`ScaleScenario` slice.

    Scale runs gate on *absolute* wall-clock and event throughput rather
    than a fast/ref speedup: at a million requests the reference path
    would dominate CI time while proving nothing the differential suite
    does not already pin.
    """

    scenario: str
    seed: int
    fraction: float
    n_requests: int
    gen_wall_s: float
    fast_wall_s: float
    finished_requests: int
    failed_requests: int
    tokens_generated: int
    events_processed: int
    sim_duration_s: float

    @property
    def events_per_s(self) -> float:
        return self.events_processed / self.fast_wall_s

    @property
    def fast_requests_per_s(self) -> float:
        return self.finished_requests / self.fast_wall_s

    def to_json(self) -> dict:
        return {
            "kind": "budget",
            "scenario": self.scenario,
            "seed": self.seed,
            "fraction": self.fraction,
            "n_requests": self.n_requests,
            "gen_wall_s": round(self.gen_wall_s, 4),
            "fast_wall_s": round(self.fast_wall_s, 4),
            "events_per_s": round(self.events_per_s, 1),
            "fast_requests_per_s": round(self.fast_requests_per_s, 1),
            "finished_requests": self.finished_requests,
            "failed_requests": self.failed_requests,
            "tokens_generated": self.tokens_generated,
            "events_processed": self.events_processed,
            "sim_duration_s": self.sim_duration_s,
        }


def measure_scale(
    seed: int = 0, fraction: "float | None" = None, scenario=None
) -> BudgetMeasurement:
    """Time a self-similar slice of the ``fig13_1m`` scenario, fast path only.

    Every request must terminate (finish or fail) — a scale run that
    silently drops requests would make the wall-clock number meaningless.
    """
    from repro.workloads.scale import FIG13_1M, scale_trace

    scenario = scenario or FIG13_1M
    budgets = DEFAULT_THRESHOLDS["budgets"].get(scenario.name, {})
    if fraction is None:
        fraction = budgets.get("fraction", 1.0)
    t0 = perf_counter()
    trace = scale_trace(scenario, fraction=fraction, seed=seed)
    gen_wall = perf_counter() - t0
    sim = build_cluster(
        scenario.num_gpus, max_batch_size=scenario.max_batch_size, fast_path=True
    )
    t0 = perf_counter()
    result = sim.run(trace)
    fast_wall = perf_counter() - t0
    terminal = result.finished_requests + result.failed_requests
    if terminal != len(trace):
        raise AssertionError(
            f"scale run dropped requests: {terminal} terminal of {len(trace)}"
        )
    return BudgetMeasurement(
        scenario=scenario.name,
        seed=seed,
        fraction=fraction,
        n_requests=len(trace),
        gen_wall_s=gen_wall,
        fast_wall_s=fast_wall,
        finished_requests=result.finished_requests,
        failed_requests=result.failed_requests,
        tokens_generated=result.tokens_generated,
        events_processed=result.events_processed,
        sim_duration_s=result.duration,
    )


def evaluate_budget(
    measurements: "list[BudgetMeasurement]", budgets: "dict | None" = None
) -> "list[str]":
    """Pure budget logic: violations against per-scenario wall budgets."""
    if not measurements:
        raise ValueError("evaluate_budget needs at least one measurement")
    table = dict(DEFAULT_THRESHOLDS["budgets"])
    table.update(budgets or {})
    failures: "list[str]" = []
    for m in measurements:
        budget = table.get(m.scenario)
        if budget is None:
            failures.append(f"no budget recorded for scenario {m.scenario!r}")
            continue
        max_wall = budget.get("max_wall_s")
        if max_wall is not None and m.fast_wall_s > max_wall:
            failures.append(
                f"{m.scenario}: wall {m.fast_wall_s:.1f}s over budget {max_wall:.1f}s"
            )
        floor = budget.get("min_events_per_s")
        if floor is not None and m.events_per_s < floor:
            failures.append(
                f"{m.scenario}: {m.events_per_s:.0f} events/s below floor {floor:.0f}"
            )
    return failures


def evaluate_gate(
    measurements: "list[PerfMeasurement]", thresholds: "dict | None" = None
) -> "list[str]":
    """Pure gate logic: return the list of violations (empty = pass).

    With two or more measurements the run-to-run variance of the fast
    wall-clock is bounded too — a noisy runner should fail loudly rather
    than let a lucky sample mask a real regression (or vice versa).
    """
    if not measurements:
        raise ValueError("evaluate_gate needs at least one measurement")
    th = dict(DEFAULT_THRESHOLDS)
    th.update(thresholds or {})
    failures: "list[str]" = []
    worst_speedup = min(m.speedup for m in measurements)
    if worst_speedup < th["min_speedup"]:
        failures.append(
            f"speedup {worst_speedup:.2f}x below floor {th['min_speedup']:.2f}x"
        )
    worst_rps = min(m.fast_requests_per_s for m in measurements)
    if worst_rps < th["min_requests_per_s"]:
        failures.append(
            f"fast-path throughput {worst_rps:.0f} req/s below floor "
            f"{th['min_requests_per_s']:.0f} req/s"
        )
    worst_traced = max(m.traced_ratio for m in measurements)
    if worst_traced > th["max_traced_ratio"]:
        failures.append(
            f"traced run {worst_traced:.2f}x the untraced wall-clock, above "
            f"{th['max_traced_ratio']:.2f}x — tracing disarmed a fast lane?"
        )
    if len(measurements) >= 2:
        walls = [m.fast_wall_s for m in measurements]
        variance = (max(walls) - min(walls)) / min(walls)
        if variance > th["max_variance"]:
            failures.append(
                f"run-to-run variance {variance:.1%} exceeds "
                f"{th['max_variance']:.0%} — runner too noisy to gate on"
            )
    return failures


def load_thresholds(path: "pathlib.Path | None" = None) -> dict:
    """Thresholds from the checked-in JSON, with defaults filled in."""
    path = path or BENCH_JSON
    th = dict(DEFAULT_THRESHOLDS)
    th["budgets"] = {k: dict(v) for k, v in th["budgets"].items()}
    if path.exists():
        data = json.loads(path.read_text())
        loaded = dict(data.get("thresholds", {}))
        # Per-scenario budgets merge key-by-key; a checked-in file that
        # overrides one scenario's wall budget keeps the others' defaults.
        for name, budget in loaded.pop("budgets", {}).items():
            th["budgets"].setdefault(name, {}).update(budget)
        th.update(loaded)
    return th


def write_results(
    measurements: "list[PerfMeasurement]",
    path: "pathlib.Path | None" = None,
    thresholds: "dict | None" = None,
) -> dict:
    """Serialise measurements (plus the active thresholds) to JSON."""
    path = path or BENCH_JSON
    payload = {
        "thresholds": dict(thresholds or load_thresholds(path)),
        "results": [m.to_json() for m in measurements],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


#: Scenario names ``run_perf_gate`` (and ``repro perf --scenario``) accepts.
SCENARIOS = ("fig13_quick", "fig13_1m", "all")


def run_perf_gate(
    seed: int = 0,
    rounds: int = 1,
    scale: "Fig13Scale | None" = None,
    json_path: "pathlib.Path | None" = None,
    write_json: bool = False,
    scenario: str = "fig13_quick",
) -> "tuple[FigureTable, list[str]]":
    """Run the gate and render a FigureTable (the ``repro perf`` command).

    ``scenario`` picks the measurement kind: ``fig13_quick`` is the
    fast-vs-reference speedup gate, ``fig13_1m`` the scale-out wall
    budget (fast path only), ``all`` both.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    thresholds = load_thresholds(json_path)
    table = FigureTable(
        figure_id="Perf gate",
        title=(
            f"Fast-path perf gate: {scenario}, seed {seed}, {rounds} round(s)"
        ),
        headers=[
            "scenario", "round", "fast_wall_s", "ref_wall_s", "speedup",
            "traced_ratio", "fast_req_per_s", "events_per_s",
        ],
    )
    failures: "list[str]" = []
    recorded: list = []
    if scenario in ("fig13_quick", "all"):
        measurements = [measure(seed=seed, scale=scale) for _ in range(rounds)]
        for i, m in enumerate(measurements):
            table.add_row(
                m.scenario, i, m.fast_wall_s, m.ref_wall_s, m.speedup,
                m.traced_ratio, m.fast_requests_per_s,
                m.events_processed / m.fast_wall_s,
            )
        failures += evaluate_gate(measurements, thresholds)
        recorded += measurements
        table.add_note(
            f"speedup thresholds: >= {thresholds['min_speedup']}x, "
            f"throughput >= {thresholds['min_requests_per_s']} req/s, "
            f"variance <= {thresholds['max_variance']:.0%}, "
            f"traced/untraced <= {thresholds['max_traced_ratio']}x"
        )
    if scenario in ("fig13_1m", "all"):
        budget_runs = [measure_scale(seed=seed)]
        for m in budget_runs:
            table.add_row(
                m.scenario, 0, m.fast_wall_s, "-", "-", "-",
                m.fast_requests_per_s, m.events_per_s,
            )
        failures += evaluate_budget(budget_runs, thresholds["budgets"])
        recorded += budget_runs
        b = thresholds["budgets"].get("fig13_1m", {})
        table.add_note(
            f"fig13_1m budget (fraction {b.get('fraction')}): wall <= "
            f"{b.get('max_wall_s')}s, events/s >= {b.get('min_events_per_s')}"
        )
    table.add_note(
        "gate: PASS" if not failures else "gate: FAIL — " + "; ".join(failures)
    )
    if write_json:
        write_results(recorded, json_path, thresholds)
    return table, failures
