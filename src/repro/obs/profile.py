"""Host seconds per function and per layer: the repo's one perf instrument.

:data:`LAYERS` maps each layer to the callables that form its boundary
and to the scenarios that must call them. Inside :func:`profiled` every
target is wrapped so a call adds its *self* time (its duration minus
that of the hooked calls it made) and one call to its own row; on exit
every original is put back, module-level re-binds included, so no hot
path ever asks whether profiling is on. :data:`SCENARIOS` are existing
builders; the two in :data:`GATES` also time themselves unhooked against
a threshold dict kept next to the round that measures it.

``python -m repro perf [SCENARIO ...] [--check]`` prints one table per
scenario (docs/performance.md).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import gc
import importlib
import inspect
import sys
from collections.abc import Callable
from dataclasses import dataclass
from statistics import median
from time import perf_counter, process_time
from typing import NamedTuple

from repro.bench.fig13_cluster import QUICK, build_cluster, run_fig13_simulation
from repro.obs.scenarios import SCENARIOS as TRACE_SCENARIOS
from repro.obs.scenarios import run_scenario
from repro.obs.tracer import Tracer
from repro.serve.client import LoadSpec
from repro.serve.harness import build_stack, run_load
from repro.utils.tables import format_table
from repro.workloads.scale import FIG13_1M, scale_trace


class Layer(NamedTuple):
    name: str
    module: str
    targets: "tuple[str, ...]"
    """``function``, ``Class.method`` or ``Class.*`` (every public method
    the class itself defines); ``module:target`` names its own module."""
    scenarios: "tuple[str, ...]"
    """Scenarios that must call the layer (``--check`` fails otherwise)."""


TRACES = tuple(TRACE_SCENARIOS)
FIG13 = ("fig13_quick", "fig13_1m", "fig13_1m_full")
LOADGEN = ("loadgen_sim", "loadgen_functional")
CLUSTER = ("cluster_migration", "faults", "disagg", "slo", "composed",
           "steady_dense") + FIG13
ALL = TRACES + FIG13 + LOADGEN

LAYERS = (
    Layer("workloads", "repro.workloads",
          ("generate_trace", "scale_trace", "open_loop_trace"), TRACES + FIG13),
    Layer("cluster.events", "repro.cluster.events",
          ("EventLoop.run", "EventLoop.schedule"), CLUSTER + ("serve",) + LOADGEN),
    Layer("cluster.simulator", "repro.cluster.simulator",
          ("ClusterSimulator.run", "ClusterSimulator.cancel"), CLUSTER),
    Layer("cluster.scheduler", "repro.cluster.scheduler",
          ("PunicaScheduler.submit", "PunicaScheduler.drain_queue",
           "PunicaScheduler.route_decode", "PunicaScheduler.consolidate",
           "PunicaScheduler.cancel"),
          ("cluster_migration", "faults", "disagg", "serve", "steady_dense")
          + FIG13 + LOADGEN),
    Layer("cluster.control.router", "repro.cluster.control.router",
          ("SloRouter.submit", "SloRouter.drain_queue", "SloRouter.route_decode"),
          ("slo", "composed")),
    Layer("cluster.control.costmodel", "repro.cluster.control.costmodel",
          ("FleetCostModel.*",), ("slo", "composed")),
    Layer("cluster.vector", "repro.cluster.vector",
          ("VectorDecodeLane.try_merge",), ("steady_dense", "fig13_quick")),
    Layer("cluster.metrics", "repro.cluster.metrics",
          ("ClusterMetrics.record_*",), CLUSTER + ("serve",) + LOADGEN),
    Layer("runtime.engine", "repro.runtime.engine",
          ("GpuEngine.step", "GpuEngine.add_request", "GpuEngine.place",
           "GpuEngine.cancel", "GpuEngine.steady_run_stage",
           "GpuEngine.commit_steady_run"), ALL),
    Layer("runtime.backend", "repro.runtime.backend",
          ("SimulatedBackend.execute", "SimulatedBackend.execute_spec",
           "SimulatedBackend.commit_steady_run", "NumpyBackend.execute",
           "NumpyBackend.execute_spec"), ALL),
    Layer("core.batch", "repro.core.batch",
          ("plan_batch", "plan_grouped"), ALL),
    Layer("models.perf", "repro.models.perf",
          ("step_latency_terms", "step_latency_from_terms",
           "step_latency_steady_run", "model_step_latency",
           "repro.runtime.pricing:StepPricer.*"), ALL),
    Layer("hw.kernels", "repro.hw.kernels", ("KernelCostModel.*",), ALL),
    Layer("kvcache.page", "repro.kvcache.page", ("PageAllocator.*",), ALL),
    Layer("kvcache.pool", "repro.kvcache.pool",
          ("KvPool.*", "PagedKvData.write_token", "PagedKvData.gather"), ALL),
    Layer("adapters.store", "repro.adapters.store",
          ("GpuAdapterStore.request_load", "GpuAdapterStore.acquire",
           "GpuAdapterStore.release", "GpuAdapterStore.reclaim"), ALL),
    Layer("models.llama", "repro.models.llama", ("LlamaModel.forward",),
          ("loadgen_functional",)),
    Layer("core.sgmv", "repro.core.sgmv", ("sgmv_shrink", "sgmv_expand"),
          ("loadgen_functional",)),
    Layer("core.lora", "repro.core.lora",
          ("LoraRegistry.stack", "LoraRegistry.stack_padded"),
          ("loadgen_functional",)),
    Layer("obs.tracer", "repro.obs.tracer", ("Tracer.emit", "Tracer.decode_run"),
          TRACES + LOADGEN),
    Layer("serve.protocol", "repro.serve.protocol",
          ("encode_frame", "encode_tokens", "decode_frame"), LOADGEN),
    Layer("serve.gateway", "repro.serve.gateway",
          ("ServeGateway.open", "ServeGateway.poll", "ServeGateway.client_close",
           "ServeGateway.account_tokens"), ("serve",) + LOADGEN),
    Layer("serve.limits", "repro.serve.limits",
          ("AdmissionController.admit", "AdmissionController.release"),
          ("serve",) + LOADGEN),
    Layer("serve.bridge", "repro.serve.bridge",
          ("SimulatorBridge.open", "SimulatorBridge.cancel", "Outbox.put"),
          LOADGEN),
)


class Target(NamedTuple):
    layer: str
    label: str
    owner: "type | None"
    """The class, or ``None`` for a module-level function."""
    attr: str
    raw: object
    """What the class (or module) held: a function or a static/class method."""


def _function(raw):
    """The plain function behind ``raw`` (a static or class method is
    unwrapped), or ``None``."""
    func = getattr(raw, "__func__", raw)
    return func if inspect.isfunction(func) else None


def resolve() -> "tuple[list[Target], list[str]]":
    """Every target of :data:`LAYERS` that exists, and ``layer:target``
    for each one that does not (renamed or deleted by a refactor)."""
    found, missing = [], []
    for layer in LAYERS:
        for spec in layer.targets:
            module_name, _, target = spec.rpartition(":")
            owner_name, _, attr = target.rpartition(".")
            try:
                module = importlib.import_module(module_name or layer.module)
            except ImportError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else None
            if module is None or owner_name and not inspect.isclass(owner):
                missing.append(f"{layer.name}:{target}")
                continue
            namespace = vars(owner or module)
            names = [attr] if not attr.endswith("*") else sorted(
                name for name, raw in namespace.items()
                if name.startswith(attr[:-1]) and not name.startswith("_")
                and _function(raw))
            for name in names or [attr]:
                label = f"{owner_name}.{name}" if owner_name else name
                raw = namespace.get(name)
                if _function(raw):
                    found.append(Target(layer.name, label, owner, name, raw))
                else:
                    missing.append(f"{layer.name}:{label}")
    return found, missing


class Recorder:
    """Self seconds and calls per target, in lists indexed like ``targets``.

    A call's self time excludes the hooked calls it made, so self times
    sum without counting an interval twice, also when a function calls
    another one of its own layer."""

    def __init__(self, targets: "list[Target]"):
        self.targets = targets
        self.self_s = [0.0] * len(targets)
        self.calls = [0] * len(targets)
        self._stack: "list[list[float]]" = []

    def wrap(self, fn, index: int):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, perf_counter

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[index] += dur - frame[0]
                calls[index] += 1
                if stack:
                    stack[-1][0] += dur

        return hooked


def _rebind(swaps: "dict[int, tuple[object, object]]") -> None:
    """In every loaded module, replace each ``old`` by ``new`` for the
    ``(old, new)`` pairs of ``swaps`` (keyed by ``id(old)``)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None) or {}
        for key, value in list(namespace.items()):
            swap = swaps.get(id(value))
            if swap is not None and swap[0] is value:
                namespace[key] = swap[1]


@contextlib.contextmanager
def profiled():
    """Wrap every target that resolves for the block and yield the
    :class:`Recorder`. A module-level function is re-bound in every
    loaded module that imported it by name; on exit every module is
    swept again, so one first imported inside the block is restored too."""
    targets, _ = resolve()
    recorder = Recorder(targets)
    functions: "dict[int, tuple[object, object]]" = {}
    try:
        for index, (_, _, owner, attr, raw) in enumerate(targets):
            wrapped = recorder.wrap(_function(raw), index)
            if raw is not _function(raw):
                wrapped = type(raw)(wrapped)
            if owner is None:
                functions[id(raw)] = (raw, wrapped)
            else:
                setattr(owner, attr, wrapped)
        _rebind(functions)
        yield recorder
    finally:
        for _, _, owner, attr, raw in targets:
            if owner is not None:
                setattr(owner, attr, raw)
        _rebind({id(new): (new, old) for old, new in functions.values()})


# -- scenarios and gates ----------------------------------------------------


def fig13_quick(seed: int = 0, scale=QUICK, **kwargs):
    """The Figure-13 cluster at its quick scale (fast path unless told)."""
    kwargs.setdefault("fast_path", True)
    return run_fig13_simulation(scale=scale, seed=seed, **kwargs)[0]


def fig13_1m(seed: int = 0, fraction: "float | None" = None):
    """A self-similar slice of the million-request run, fast path only;
    every request must reach a terminal state."""
    fraction = FIG13_1M_GATE["fraction"] if fraction is None else fraction
    trace = scale_trace(FIG13_1M, fraction=fraction, seed=seed)
    sim = build_cluster(
        FIG13_1M.num_gpus, max_batch_size=FIG13_1M.max_batch_size, fast_path=True
    )
    result = sim.run(trace)
    terminal = result.finished_requests + result.failed_requests
    if terminal != len(trace):
        raise AssertionError(f"scale run dropped requests: {terminal} of {len(trace)}")
    return result


def loadgen(backend: str, seed: int = 0) -> dict:
    """``repro loadgen`` in process: eight streams against one stack."""
    spec = LoadSpec(num_clients=8, seed=seed)
    return asyncio.run(run_load(build_stack(backend, seed=seed), spec))[0]


SCENARIOS: "dict[str, Callable[[int], object]]" = {
    **{name: functools.partial(run_scenario, name) for name in TRACES},
    "fig13_quick": fig13_quick,
    "fig13_1m": fig13_1m,
    # The whole million-request run: attribution only, no gate (minutes).
    "fig13_1m_full": functools.partial(fig13_1m, fraction=1.0),
    "loadgen_sim": functools.partial(loadgen, "sim"),
    "loadgen_functional": functools.partial(loadgen, "functional"),
}


def _summary(result) -> tuple:
    return (result.events_processed, result.finished_requests,
            result.failed_requests, result.tokens_generated,
            result.num_migrations, result.duration)


#: Timed runs of each kind per ``fig13_quick`` round; the round reads
#: their median, so one sample's host noise does not decide a gate row.
FIG13_QUICK_SAMPLES = 3


def fig13_quick_round(seed: int = 0, scale=QUICK) -> "dict[str, float]":
    """The fast path, the fast path with a tracer and the reference path,
    each timed :data:`FIG13_QUICK_SAMPLES` times (the median counts). The
    three kinds take turns sample by sample, so host drift over the round
    lands on all three alike instead of on the ratios. All three must
    simulate the same run, or the round raises. Each run starts from a
    collected heap: an earlier run's fleet, and with it the price lists
    its pricers shared, is gone, so every run prices cold. Each sample
    is also timed in process CPU seconds (``cpu_*``), which other
    processes on a shared host do not inflate as they do wall time."""
    kinds = (("fast", dict), ("traced", lambda: {"tracer": Tracer()}),
             ("reference", lambda: {"fast_path": False}))
    samples = {name: [] for name, _ in kinds}  # (wall, CPU) seconds
    results = {}
    for _ in range(FIG13_QUICK_SAMPLES):
        for name, kwargs in kinds:
            gc.collect()
            t0, c0 = perf_counter(), process_time()
            results[name] = fig13_quick(seed, scale, **kwargs())
            samples[name].append((perf_counter() - t0, process_time() - c0))
    walls = {name: median(w for w, _ in times) for name, times in samples.items()}
    cpus = {name: median(c for _, c in times) for name, times in samples.items()}
    fast_summary = _summary(results["fast"])
    for name in ("reference", "traced"):
        if _summary(results[name]) != fast_summary:
            raise AssertionError(
                f"fast and {name} runs diverged from {fast_summary}; "
                "timings discarded"
            )
    fast = walls["fast"]
    return {"wall_s": fast, "speedup": walls["reference"] / fast,
            "traced_ratio": walls["traced"] / fast,
            "requests_per_s": results["fast"].finished_requests / fast,
            "cpu_s": cpus["fast"], "cpu_speedup": cpus["reference"] / cpus["fast"],
            "cpu_traced_ratio": cpus["traced"] / cpus["fast"]}


#: The two fast-path lanes against the reference path (memos and the
#: event heap run on both; 1.9-2.7x measured); a throughput floor for
#: order-of-magnitude regressions on slow runners; two rounds within 20 %
#: of each other; a tracer costs at most 1.5x (~1.2x measured).
FIG13_QUICK_GATE = {"min_speedup": 1.4, "min_requests_per_s": 150.0,
                    "max_variance": 0.20, "max_traced_ratio": 1.5}


def fig13_1m_round(seed: int = 0, fraction=None) -> "dict[str, float]":
    gc.collect()
    t0 = perf_counter()
    result = fig13_1m(seed, fraction)
    wall = perf_counter() - t0
    return {"wall_s": wall, "events_per_s": result.events_processed / wall}


#: The 10 % slice (100k requests) of ``fig13_1m``; the full run
#: (``tests/test_scale_million.py``) keeps the same event floor.
FIG13_1M_GATE = {"fraction": 0.1, "max_wall_s": 60.0, "min_events_per_s": 2000.0}

#: Gate scenarios: (unhooked rounds, one round's timing, thresholds).
GATES = {
    "fig13_quick": (2, fig13_quick_round, FIG13_QUICK_GATE),
    "fig13_1m": (1, fig13_1m_round, FIG13_1M_GATE),
}


def gate_rows(
    rounds: "list[dict[str, float]]", thresholds: dict
) -> "list[tuple[str, float, str, bool]]":
    """``(metric, worst value, rule, ok)`` per ``min_*`` / ``max_*`` key.

    The worst round gates; ``variance`` is the spread of ``wall_s`` over
    its minimum and needs two rounds; a metric no round measured fails.
    Rounds that timed CPU seconds add the same three rows in CPU time,
    ungated (rule ``-``, ``ok`` ``None``)."""
    if not rounds:
        raise ValueError("a gate needs at least one round")
    rows = []
    for key, bound in thresholds.items():
        kind, _, metric = key.partition("_")
        if kind not in ("min", "max") or metric == "variance" and len(rounds) < 2:
            continue
        if metric == "variance":
            walls = [r["wall_s"] for r in rounds]
            value = (max(walls) - min(walls)) / min(walls)
        elif all(metric in r for r in rounds):
            value = (min if kind == "min" else max)(r[metric] for r in rounds)
        else:
            value = float("nan")
        ok = value >= bound if kind == "min" else value <= bound
        rows.append((metric, value, f"{'>=' if kind == 'min' else '<='} {bound:g}", ok))
    if all("cpu_s" in r for r in rounds):
        cpu = [r["cpu_s"] for r in rounds]
        ungated = {"cpu_speedup": min(r["cpu_speedup"] for r in rounds),
                   "cpu_traced_ratio": max(r["cpu_traced_ratio"] for r in rounds)}
        if len(rounds) > 1:
            ungated["cpu_variance"] = (max(cpu) - min(cpu)) / min(cpu)
        rows += [(metric, value, "-", None) for metric, value in ungated.items()]
    return rows


@dataclass
class Profile:
    """One hooked run of a scenario, and its gate rows if it has a gate."""

    scenario: str
    seed: int
    wall_s: float
    rows: "list[tuple[str, str, int, float]]"
    """``(layer, target, calls, self_s)`` of every target that fired."""
    gate: "list[tuple[str, float, str, bool | None]]"
    """``(metric, worst value, rule, ok)``, ``ok`` ``None`` on an ungated
    row; empty for a scenario without a gate."""
    failures: "list[str]"
    """Targets that do not resolve, named layers that stayed silent and
    gate rows that failed: what ``--check`` exits 1 on."""

    def render(self) -> str:
        wall = self.wall_s
        rest = wall - sum(row[3] for row in self.rows)
        table = [(*r, r[3] / wall) for r in sorted(self.rows, key=lambda r: -r[3])]
        parts = [
            f"== perf {self.scenario}: seed {self.seed}, hooked wall {wall:.3f}s ==",
            format_table(["layer", "target", "calls", "self_s", "share"],
                         table + [("unattributed", "-", "-", rest, rest / wall)]),
        ]
        if self.gate:
            parts.append(format_table(
                ["metric", "value", "bound", "verdict"],
                [(m, v, r, "-" if ok is None else "ok" if ok else "FAIL")
                 for m, v, r, ok in self.gate],
                title="gate (unhooked):",
            ))
        return "\n".join(parts + [f"  fail: {f}" for f in self.failures])


def run(scenario: str, seed: int = 0) -> Profile:
    """One hooked run of ``scenario``, then its gate rounds unhooked."""
    with profiled() as rec:
        t0 = perf_counter()
        SCENARIOS[scenario](seed)
        wall = perf_counter() - t0
    rows = [(t.layer, t.label, n, s)
            for t, n, s in zip(rec.targets, rec.calls, rec.self_s) if n]
    fired = {row[0] for row in rows}
    gate = []
    if scenario in GATES:
        rounds, measure, thresholds = GATES[scenario]
        gate = gate_rows([measure(seed) for _ in range(rounds)], thresholds)
    failures = (
        [f"{scenario}: target {m} does not resolve" for m in resolve()[1]]
        + [f"{scenario}: layer {layer.name} stayed silent" for layer in LAYERS
           if scenario in layer.scenarios and layer.name not in fired]
        + [f"{scenario}: {m} {v:.4g} not {r}" for m, v, r, ok in gate if ok is False]
    )
    return Profile(scenario, seed, wall, rows, gate, failures)
