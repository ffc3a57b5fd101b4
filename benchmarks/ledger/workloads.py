"""The seven ledger workloads: inputs, stacks, timed regions, summaries, checks.

Every workload exposes the same five steps so :mod:`worker` can time them
uniformly:

``generate(seed, scale)``  inputs from the seed (program sees only these)
``build(inputs)``          fresh engines / simulator / registry for one rep
``run(stack, inputs)``     the timed region
``summarize(...)``         exact results (must repeat bit for bit across
                           reps), per-layer counts read from the
                           program's own counters and, optionally,
                           ``timed`` wall-clock results and this rep's
                           ``problems``
``check(inputs)``          correctness checks run outside the timed region

Only package-level public API of ``repro`` is used here, and nothing from
``repro.bench``, ``repro.cli``, ``repro.runtime.loader``,
``repro.runtime.serve`` or ``repro.cluster.frontend``; fleets are built
here, not through the figure benches' builders.

Sizes are the ISSUE's, cut until a repetition takes about a second, so
that a 12 s run holds enough of them for a median (see README "Sizes").
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass

import numpy as np

from loadgen import ClosedLoopGenerator

from repro import (
    A100_40G,
    LLAMA2_7B,
    ClusterSimulator,
    EngineConfig,
    GpuEngine,
    LoraRegistry,
    NumpyBackend,
    Request,
    ShareGptLengths,
    SimulatedBackend,
    Tracer,
    generate_trace,
    open_loop_trace,
    random_llama_weights,
    random_lora_weights,
    sgmv_expand,
    sgmv_shrink,
    tiny_config,
)
from repro.cluster.control import (
    ControlConfig,
    SloClusterSimulator,
    SloPolicy,
    score_requests,
)
from repro.core.sgmv import sgmv_expand_reference, sgmv_shrink_reference
from repro.hw import HwSpec
from repro.runtime import RequestState
from repro.workloads import (
    FIG13_1M,
    PoissonArrivals,
    RampProfile,
    Trace,
    scale_trace,
)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def pctl(values, q: float) -> "float | None":
    return float(np.percentile(values, q)) if len(values) else None


def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def request_checksum(requests) -> str:
    """Every request's terminal state, token count and simulated times."""
    return _digest(
        f"{r.request_id}:{r.state.value}:{r.num_generated}:"
        f"{r.first_token_time!r}:{r.finish_time!r}"
        for r in requests
    )


def terminal_counts(requests) -> "dict[str, int]":
    counts = {"finished": 0, "failed": 0, "cancelled": 0, "live": 0}
    for r in requests:
        if r.state is RequestState.FINISHED:
            counts["finished"] += 1
        elif r.state is RequestState.FAILED:
            counts["failed"] += 1
        elif r.state is RequestState.CANCELLED:
            counts["cancelled"] += 1
        else:
            counts["live"] += 1
    return counts


def model_metrics(requests, tokens: int, duration: float,
                  policy: SloPolicy) -> "dict[str, float | None]":
    """The simulated-clock metrics of one simulation (ISSUE table)."""
    finished = [r for r in requests if r.state is RequestState.FINISHED]
    ttft = [
        r.first_token_time - r.spec.arrival_time
        for r in finished if r.first_token_time is not None
    ]
    itl = [
        (r.finish_time - r.first_token_time) / (r.num_generated - 1)
        for r in finished
        if r.num_generated > 1 and r.first_token_time is not None
    ]
    scored = score_requests(
        requests, ControlConfig(default_policy=policy), duration
    )
    attained = sum(1 for _, ok in scored if ok)

    def ms(v):
        return None if v is None else v * 1e3

    return {
        "model_tokens_per_s": tokens / duration if duration > 0 else None,
        "model_ttft_p50_ms": ms(pctl(ttft, 50)),
        "model_ttft_p99_ms": ms(pctl(ttft, 99)),
        "model_itl_p50_ms": ms(pctl(itl, 50)),
        "model_itl_p99_ms": ms(pctl(itl, 99)),
        "slo_attainment": attained / len(requests) if requests else None,
    }


def _share(num: float, den: float) -> "float | None":
    return num / den if den else None


def engine_counts(engines) -> "dict[str, float | None]":
    """Counters every GpuEngine keeps, summed over a fleet."""
    fast = sum(e.fast_steps for e in engines)
    slow = sum(e.slow_steps for e in engines)
    caches = [c for c in (getattr(e, "_plan_cache", None) for e in engines)
              if c is not None]
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    return {
        "runtime.engine.fast_steps": fast,
        "runtime.engine.slow_steps": slow,
        "runtime.engine.fast_step_share": _share(fast, fast + slow),
        "core.batch.plan_hit_rate": _share(hits, hits + misses),
        "adapters.store.evictions": sum(e.loader.num_evictions for e in engines),
    }


def mean_batch_size(metrics) -> "tuple[float | None, int]":
    """(mean invocation batch size, invocations) over every GPU's series."""
    total = n = 0
    for series in metrics.gpu_batch_size.values():
        values = series.values
        total += float(values.sum())
        n += len(values)
    return _share(total, n), n


def sim_counts(sim, result) -> "dict[str, float | None]":
    """Per-layer counts of one simulation, from the program's counters."""
    engines = list(sim.scheduler.engines.values())
    metrics = result.metrics
    mean_batch, steps = mean_batch_size(metrics)
    moved = sum(r.num_migrations for r in result.requests)
    waits = [
        r.first_admitted_time - r.spec.arrival_time
        for r in result.requests if r.first_admitted_time is not None
    ]
    vector = getattr(sim, "_vector", None)
    counts = {
        "cluster.events.processed": result.events_processed,
        "cluster.simulator.inline_steps": sim.inline_steps,
        "cluster.vector.merges": getattr(vector, "merges", None),
        "cluster.vector.merged_steps": getattr(vector, "merged_steps", None),
        "runtime.engine.mean_batch_size": mean_batch,
        "runtime.engine.kv_evictions": moved - result.num_migrations,
        "cluster.scheduler.migrations": result.num_migrations,
        "cluster.scheduler.queue_wait_p99_ms":
            None if not waits else pctl(waits, 99) * 1e3,
        "adapters.store.gpu_hit_rate": metrics.adapter_gpu_hit_rate(),
        "obs.tracer.events": len(sim.tracer.events) if sim.tracer else 0,
        "steps": steps,
    }
    counts.update(engine_counts(engines))
    counts["adapters.store.evictions"] = metrics.eviction_count()
    return counts


def _a100_fleet(n: int, fast_path=None):
    return [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, gpu=A100_40G, fast_path=fast_path),
            EngineConfig(max_batch_size=32),
            fast_path=fast_path,
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# sim_steady / sim_steady_traced / sim_churn: the pack-rule cluster simulator
# ---------------------------------------------------------------------------
PACK_POLICY = SloPolicy(ttft_deadline=0.25, itl_deadline=0.05)
NUM_GPUS = 8


@dataclass
class PackSim:
    """Eight A100 engines under the default ClusterSimulator."""

    name: str
    traced: bool = False
    """Attach the program's own obs.tracer.Tracer (not the ledger's spans)."""
    churn: bool = False

    STEADY_RAMP_S = 100.0
    STEADY_PEAK_RPS = 12.0
    CHURN_FRACTION = 0.004
    DIFFERENTIAL_HEAD = 200

    def generate(self, seed: int, scale: float):
        if self.churn:
            return scale_trace(
                FIG13_1M, fraction=self.CHURN_FRACTION * scale, seed=seed
            )
        duration = self.STEADY_RAMP_S * scale
        arrivals = PoissonArrivals(
            rate=RampProfile(duration=duration, peak_rate=self.STEADY_PEAK_RPS,
                             hold_fraction=0.2),
            duration=duration,
        )
        n_specs = int(duration * self.STEADY_PEAK_RPS) + 64
        return generate_trace(n_specs, "skewed", seed=seed, arrivals=arrivals)

    def build(self, trace, traced: "bool | None" = None, fast_path=None):
        traced = self.traced if traced is None else traced
        return ClusterSimulator(
            _a100_fleet(NUM_GPUS, fast_path),
            tracer=Tracer() if traced else None,
            fast_path=fast_path,
        )

    def run(self, sim, trace):
        return sim.run(trace)

    def summarize(self, sim, trace, result):
        exact = model_metrics(
            result.requests, result.tokens_generated, result.duration,
            PACK_POLICY,
        )
        exact["checksum"] = request_checksum(result.requests)
        return {
            "attempted": len(result.requests),
            "states": terminal_counts(result.requests),
            "tokens": result.tokens_generated,
            "exact": exact,
            "counts": sim_counts(sim, result),
        }

    def _signature(self, trace, traced: bool, fast_path):
        sim = self.build(trace, traced=traced, fast_path=fast_path)
        result = sim.run(trace)
        return (
            result.duration, result.finished_requests,
            result.tokens_generated, request_checksum(result.requests),
        )

    def check(self, trace) -> "list[str]":
        """Differential checks on the first requests of the trace: observing
        must not change what is simulated, and neither must the fast path."""
        head = Trace(tuple(trace.requests[: self.DIFFERENTIAL_HEAD]))
        if self.traced:
            if self._signature(head, True, None) != self._signature(head, False, None):
                return [f"traced run differs from the untraced run of the "
                        f"first {len(head)} requests"]
        elif self._signature(head, False, True) != self._signature(head, False, False):
            return [f"fast path != reference path on the first {len(head)} requests"]
        return []


# ---------------------------------------------------------------------------
# sim_slo: the SLO router on the equal-cost heterogeneous fleet
# ---------------------------------------------------------------------------
class SloSim:
    name = "sim_slo"
    PRESETS = ("h100", "a100-80g", "l4", "l4", "l4", "l4")
    RATES = (32.0, 48.0, 64.0, 80.0, 96.0)
    READ_RATE = 80.0
    """The cell past the knee from which model_* / slo_* are read."""
    CELL_S = 4.0
    POLICY = SloPolicy(ttft_deadline=0.3, itl_deadline=0.12)
    ATTAINMENT_FLOOR = 0.9

    def generate(self, seed: int, scale: float):
        lengths = ShareGptLengths(max_prompt_len=768, max_response_len=24)
        return {
            rate: open_loop_trace(
                rate=rate, duration=self.CELL_S * scale, seed=seed,
                lengths=lengths,
            )
            for rate in self.RATES
        }

    def build(self, traces):
        control = ControlConfig(default_policy=self.POLICY)
        return {
            rate: SloClusterSimulator(
                [
                    GpuEngine(
                        f"gpu{i:02d}",
                        SimulatedBackend(LLAMA2_7B, gpu=HwSpec.preset(preset)),
                        EngineConfig(max_batch_size=8),
                    )
                    for i, preset in enumerate(self.PRESETS)
                ],
                control=control,
            )
            for rate in traces
        }

    def run(self, sims, traces):
        return {rate: sims[rate].run(trace) for rate, trace in traces.items()}

    SUMMED = (
        "cluster.events.processed", "cluster.simulator.inline_steps",
        "cluster.vector.merges", "cluster.vector.merged_steps",
        "runtime.engine.fast_steps", "runtime.engine.slow_steps",
        "runtime.engine.kv_evictions", "cluster.scheduler.migrations",
        "adapters.store.evictions", "steps",
    )
    """Counts that add across the five cells; ratios and percentiles do
    not, and are the read cell's."""

    def summarize(self, sims, traces, results):
        requests = [r for result in results.values() for r in result.requests]
        cells = {
            rate: model_metrics(
                result.requests, result.tokens_generated, result.duration,
                self.POLICY,
            )
            for rate, result in results.items()
        }
        read = results[self.READ_RATE]
        exact = dict(cells[self.READ_RATE])
        max_rate = 0.0
        for rate in self.RATES:
            if cells[rate]["slo_attainment"] < self.ATTAINMENT_FLOOR:
                break
            max_rate = rate
        exact["slo_max_rate_rps"] = max_rate
        exact["failed_share_read_cell"] = 1.0 - read.finished_requests / len(
            read.requests
        )
        exact["checksum"] = request_checksum(requests)
        exact["attainment_by_rate"] = {
            str(int(rate)): cells[rate]["slo_attainment"] for rate in self.RATES
        }

        per_cell = {r: sim_counts(sims[r], results[r]) for r in results}
        counts = dict(per_cell[self.READ_RATE])
        for key in self.SUMMED:
            values = [c[key] for c in per_cell.values()]
            counts[key] = None if None in values else sum(values)
        fast = counts["runtime.engine.fast_steps"]
        counts["runtime.engine.fast_step_share"] = _share(
            fast, fast + counts["runtime.engine.slow_steps"]
        )
        admits = [m.slo_admits.values for m in (r.metrics for r in results.values())]
        n_admits = sum(len(v) for v in admits)
        counts["cluster.control.router.admits"] = n_admits
        counts["cluster.control.router.sheds"] = sum(
            r.metrics.slo_shed_count() for r in results.values()
        )
        counts["cluster.control.router.mean_headroom_ms"] = _share(
            sum(float(v.sum()) for v in admits) * 1e3, n_admits
        )
        return {
            "attempted": len(requests), "states": terminal_counts(requests),
            # A shed by the SLO router is this workload's designed answer to
            # a deadline that cannot be met; any other failure is not.
            "allowed_failed": counts["cluster.control.router.sheds"],
            "tokens": sum(r.tokens_generated for r in results.values()),
            "exact": exact, "counts": counts,
        }

    def check(self, traces) -> "list[str]":
        return []


# ---------------------------------------------------------------------------
# func_distinct / func_identical: the functional NumPy backend
# ---------------------------------------------------------------------------
@dataclass
class FuncInputs:
    weights: object
    adapters: list
    trace: Trace
    prompts: "list[list[int]]"


@dataclass
class Func:
    """One GpuEngine over the tiny NumPy Llama, offline FCFS."""

    name: str
    population: str
    """``distinct``: every request its own adapter; ``identical``: one."""

    N_REQUESTS = 64
    MAX_LEN = 32
    RANK = 8
    BATCH = 32
    CONFIG = dict(hidden_size=128, num_layers=2, num_heads=4, vocab_size=256)

    def generate(self, seed: int, scale: float) -> FuncInputs:
        cfg = tiny_config(**self.CONFIG)
        n = max(4, round(self.N_REQUESTS * scale))
        trace = generate_trace(
            n, self.population, seed=seed,
            lengths=ShareGptLengths(
                max_prompt_len=self.MAX_LEN, max_response_len=self.MAX_LEN
            ),
        )
        rng = np.random.default_rng([seed, 7])
        prompts = [
            rng.integers(0, cfg.vocab_size, size=spec.prompt_len).tolist()
            for spec in trace
        ]
        adapters = [
            random_lora_weights(
                lora_id, cfg.num_layers, cfg.proj_dims(), self.RANK,
                seed=[seed, 11, i],
            )
            for i, lora_id in enumerate(trace.lora_ids())
        ]
        return FuncInputs(
            weights=random_llama_weights(cfg, seed=seed),
            adapters=adapters, trace=trace, prompts=prompts,
        )

    def build(self, inputs: FuncInputs):
        registry = LoraRegistry()
        for adapter in inputs.adapters:
            registry.register(adapter)
        backend = NumpyBackend(
            inputs.weights, registry, total_pages=512, page_size=8,
            lora_rank=self.RANK,
        )
        engine = GpuEngine(
            "gpu0", backend, EngineConfig(max_batch_size=self.BATCH)
        )
        requests = [
            Request(spec=spec, prompt_tokens=list(prompt))
            for spec, prompt in zip(inputs.trace, inputs.prompts)
        ]
        return engine, requests

    def run(self, stack, inputs):
        """Offline FCFS: the queue head blocks; every request arrives at 0."""
        engine, requests = stack
        return serve_fcfs(engine, requests)

    def summarize(self, stack, inputs, reports):
        engine, requests = stack
        tokens = sum(r.num_generated for r in requests)
        batch = [rep.batch_size for rep in reports]
        counts = engine_counts([engine])
        counts.update({
            "runtime.engine.mean_batch_size": _share(sum(batch), len(batch)),
            "runtime.engine.kv_evictions": sum(len(r.evicted) for r in reports),
            "obs.tracer.events": 0,
            "steps": len(reports),
        })
        exact = {
            "checksum": _digest(
                f"{r.request_id}:{r.state.value}:{r.generated_tokens}"
                for r in requests
            ),
        }
        return {
            "attempted": len(requests), "states": terminal_counts(requests),
            "tokens": tokens, "exact": exact, "counts": counts,
        }

    def check(self, inputs: FuncInputs) -> "list[str]":
        return self.check_sgmv(inputs) + self.check_probes(inputs)

    def check_sgmv(self, inputs: FuncInputs) -> "list[str]":
        """A sampled batch through SGMV against the per-row reference."""
        registry = LoraRegistry()
        for adapter in inputs.adapters:
            registry.register(adapter)
        ids = [a.model_id for a in inputs.adapters][: self.BATCH]
        rows = self.BATCH
        sizes = [rows // len(ids)] * len(ids)
        sizes[-1] += rows - sum(sizes)
        seg = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        wa, wb = registry.stack(ids, 0, "q")
        rng = np.random.default_rng(5)
        x = rng.standard_normal((rows, wa.shape[1]))
        v = sgmv_shrink(np.zeros((rows, wa.shape[2])), x, wa, seg)
        v_ref = sgmv_shrink_reference(np.zeros((rows, wa.shape[2])), x, wa, seg)
        y = sgmv_expand(np.zeros((rows, wb.shape[2])), v, wb, seg)
        y_ref = sgmv_expand_reference(np.zeros((rows, wb.shape[2])), v_ref, wb, seg)
        if not (np.allclose(v, v_ref, rtol=1e-9, atol=1e-12)
                and np.allclose(y, y_ref, rtol=1e-9, atol=1e-12)):
            return ["sgmv_shrink/sgmv_expand differ from the reference"]
        return []

    def check_probes(self, inputs: FuncInputs) -> "list[str]":
        """Two probes with the same prompt and adapter, batched with other
        requests, must emit identical tokens."""
        engine, requests = self.build(inputs)
        spec = requests[0].spec
        probes = [
            Request(
                spec=type(spec)(
                    request_id=f"probe-{k}", lora_id=spec.lora_id,
                    arrival_time=0.0, prompt_len=spec.prompt_len,
                    response_len=spec.response_len,
                ),
                prompt_tokens=list(inputs.prompts[0]),
            )
            for k in range(2)
        ]
        serve_fcfs(engine, [probes[0]] + requests[1:4] + [probes[1]])
        if (probes[0].generated_tokens != probes[1].generated_tokens
                or not probes[0].generated_tokens):
            return ["same prompt and adapter emitted different tokens"]
        return []


def serve_fcfs(engine, requests):
    """Drive one engine to completion over ``can_accept`` / ``add_request``
    / ``step``; returns the step reports. An evicted request re-queues at
    the head (it arrived before everything still waiting)."""
    queue = list(requests)
    by_id = {r.request_id: r for r in requests}
    head = 0
    clock = 0.0
    reports = []
    while head < len(queue) or not engine.is_idle:
        while head < len(queue) and engine.can_accept(queue[head]):
            engine.add_request(queue[head], clock)
            head += 1
        report = engine.step(clock)
        if report is None:
            if engine.is_idle:
                break  # the head can never be admitted
            clock += 1e-4  # an adapter copy is in flight
            continue
        clock = report.end
        reports.append(report)
        if report.evicted:
            queue[head:head] = [by_id[rid] for rid in report.evicted]
    return reports


# ---------------------------------------------------------------------------
# serve_stream: the asyncio frontend and loadgen.py's client on one event loop
# ---------------------------------------------------------------------------
class ServeStream:
    """The TCP server and the closed-loop client share one process, one
    thread and one event loop; frames still cross real loopback sockets.
    Two processes on the two cores were tried first and measured the
    host's scheduler: throughput spread 0.15-0.20 between runs and did
    not follow the host speed either process could sample (README)."""

    name = "serve_stream"
    CONNECTIONS = 2
    STREAMS_PER_CONNECTION = 8
    N_REQUESTS = 500
    PROMPT_LEN = 16
    RESPONSE_LEN = 32
    N_ADAPTERS = 16
    LOADGEN_SHARE_CEILING = 0.7
    LOAD_TIMEOUT_S = 60.0

    def request_count(self, scale: float) -> int:
        streams = self.CONNECTIONS * self.STREAMS_PER_CONNECTION
        return max(2 * streams, round(self.N_REQUESTS * scale))

    def generate(self, seed: int, scale: float) -> "list[str]":
        """The adapter of each request, Zipf-1.5 over a small population."""
        n = self.request_count(scale)
        rng = np.random.default_rng([seed, 13])
        ranks = np.arange(1, self.N_ADAPTERS + 1, dtype=np.float64)
        probs = ranks ** -1.5
        probs /= probs.sum()
        picks = rng.choice(self.N_ADAPTERS, size=n, p=probs)
        return [f"lora-{k}" for k in picks.tolist()]

    def build(self, plan):
        from repro.serve import TenantPolicy
        from repro.serve.harness import build_sim_stack

        return build_sim_stack(
            num_gpus=2, max_batch_size=16, step_overhead=0.0, warp=None,
            policy=TenantPolicy(rate=1e9, burst=1e6, max_inflight=1_000_000),
        )

    def run(self, stack, plan):
        return asyncio.run(self._serve(stack, plan))

    async def _serve(self, stack, plan):
        await stack.server.start()
        try:
            gen = ClosedLoopGenerator(
                "127.0.0.1", stack.server.port, plan, self.CONNECTIONS,
                self.STREAMS_PER_CONNECTION, self.PROMPT_LEN, self.RESPONSE_LEN,
            )
            return await gen.run(timeout=self.LOAD_TIMEOUT_S)
        finally:
            await stack.server.stop()

    def rep_problems(self, load, active_streams: float) -> "list[str]":
        """The checks of one repetition, beyond those the client made."""
        problems = list(load.problems)
        if active_streams != 0:
            problems.append(
                f"serve_active_streams gauge ended at {active_streams}"
            )
        if load.loadgen_share >= self.LOADGEN_SHARE_CEILING:
            problems.append(
                f"the load generator took {load.loadgen_share:.2f} of the "
                f"wall: it, not the server, is what was measured"
            )
        return problems

    def summarize(self, stack, plan, load):
        """Client-side results plus server-side counts after the load has
        drained and the server has stopped."""
        sim = stack.bridge.simulator
        engines = list(sim.scheduler.engines.values())
        serve = stack.metrics
        counts = engine_counts(engines)
        vector = getattr(sim, "_vector", None)
        counts.update({
            "cluster.events.processed": sim.loop.processed,
            "cluster.simulator.inline_steps": sim.inline_steps,
            "cluster.vector.merges": getattr(vector, "merges", None),
            "cluster.vector.merged_steps": getattr(vector, "merged_steps", None),
            "cluster.scheduler.migrations": sim.scheduler.num_migrations,
            "runtime.engine.mean_batch_size": mean_batch_size(sim.metrics)[0],
            "adapters.store.gpu_hit_rate": sim.metrics.adapter_gpu_hit_rate(),
            "adapters.store.evictions": sim.metrics.eviction_count(),
            "obs.tracer.events": len(stack.tracer.events),
            "serve.gateway.admitted": serve.admitted.total(),
            "serve.gateway.shed": serve.shed.total(),
            "steps": sum(e.fast_steps + e.slow_steps for e in engines),
        })
        return {
            "attempted": load.attempted,
            "states": {"finished": load.finished, "failed": 0, "cancelled": 0,
                       "live": load.attempted - load.finished},
            "tokens": load.tokens,
            "exact": {"checksum": _digest([
                f"{load.attempted}:{load.finished}:{load.tokens}:"
                f"{serve.finished.total()}:{serve.tokens_streamed.total()}"
            ])},
            "counts": counts,
            # Wall-clock results differ from rep to rep; the worker reports
            # each one's median over the reps.
            "timed": {
                "ttfb_p50_ms": pctl(load.ttfb_ms, 50),
                "ttfb_p90_ms": pctl(load.ttfb_ms, 90),
                "serve.ttfb_p99_ms": pctl(load.ttfb_ms, 99),
                "serve.token_gap_p50_ms": pctl(load.gap_ms, 50),
                "serve.token_gap_p99_ms": pctl(load.gap_ms, 99),
                "loadgen.cpu_share": load.loadgen_share,
            },
            "problems": self.rep_problems(load, serve.active_streams.total()),
        }

    def check(self, plan) -> "list[str]":
        return []


WORKLOADS = {
    w.name: w
    for w in (
        PackSim("sim_steady"),
        PackSim("sim_steady_traced", traced=True),
        PackSim("sim_churn", churn=True),
        SloSim(),
        Func("func_distinct", "distinct"),
        Func("func_identical", "identical"),
        ServeStream(),
    )
}
