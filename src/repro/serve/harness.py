"""Ready-made serving stacks: what ``repro serve`` / ``repro loadgen`` run.

Builders here assemble a complete serving frontend with one call, so the
CLI, the async test-suite and the CI load smoke all drive the identical
stack instead of three hand-rolled copies. Both builders put the same
chain — traced cluster simulator, ``Frontend``, ``ServeGateway``,
``SimulatorBridge``, ``ServeServer`` — over their engines, which simulate
their tokens (``build_sim_stack``) or compute them with the tiny NumPy
Llama (``build_functional_stack``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.cluster.frontend import Frontend
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.core.lora import LoraRegistry, random_lora_weights
from repro.models.config import LLAMA2_7B, tiny_config
from repro.models.weights import random_llama_weights
from repro.obs.tracer import Tracer
from repro.runtime.backend import NumpyBackend, SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.serve.bridge import SimulatorBridge
from repro.serve.client import LoadGenerator, LoadSpec, summarize
from repro.serve.gateway import ServeGateway
from repro.serve.limits import AdmissionController, TenantPolicy
from repro.serve.metrics import ServeMetrics
from repro.serve.server import ServeServer

DEFAULT_LORA_IDS = ("lora-0", "lora-1", "lora-2", "lora-3")
"""Adapters the functional builder registers; matches ``LoadSpec``'s
default mix."""

FUNCTIONAL_STEP_SECONDS = 1e-3
"""Host seconds a functional engine step adds to its modelled time, and
the functional stack's pump quantum."""


@dataclass
class ServeStack:
    """One assembled serving frontend and its observability handles."""

    server: ServeServer
    bridge: SimulatorBridge
    metrics: ServeMetrics
    tracer: Tracer


def default_policy() -> TenantPolicy:
    """Permissive default: the load smoke's compliant tenants fit under it."""
    return TenantPolicy(rate=500.0, burst=100.0, max_inflight=256)


def build_sim_stack(
    seed: int = 0,
    num_gpus: int = 2,
    max_batch_size: int = 8,
    step_overhead: float = 0.05,
    warp: "float | None" = None,
    quantum: float = 0.05,
    policy: "TenantPolicy | None" = None,
    tenant_policies: "dict[str, TenantPolicy] | None" = None,
    max_total_inflight: "int | None" = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServeStack:
    """Serving frontend over the (optionally time-warped) cluster simulator.

    ``seed`` is accepted for CLI symmetry; simulated engines read no
    prompt ids and are deterministic, so the load mix (the client side)
    is where seeds matter.
    """
    engines = [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, step_overhead=step_overhead),
            EngineConfig(max_batch_size=max_batch_size),
        )
        for i in range(num_gpus)
    ]
    return _assemble(
        engines, seed=seed, warp=warp, quantum=quantum, policy=policy,
        tenant_policies=tenant_policies,
        max_total_inflight=max_total_inflight, host=host, port=port,
    )


def build_functional_stack(
    seed: int = 0,
    num_gpus: int = 1,
    max_batch_size: int = 8,
    warp: "float | None" = None,
    lora_ids: "tuple[str, ...]" = DEFAULT_LORA_IDS,
    policy: "TenantPolicy | None" = None,
    max_total_inflight: "int | None" = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServeStack:
    """Serving frontend over the cluster simulator with functional
    engines: real token ids from the tiny NumPy Llama, one registered
    adapter per tenant in the default load mix, every engine over the
    same weights; ``seed`` draws the weights, the adapters and the prompt
    ids of ops that carry none. A step is ``FUNCTIONAL_STEP_SECONDS`` plus
    the tiny model's modelled A100 time (~0.13 ms) and a pump quantum
    holds about one, so the pump yields to the event loop about once per
    step and a cancel lands mid-stream."""
    cfg = tiny_config(hidden_size=32, num_layers=1, num_heads=4, vocab_size=128)
    weights = random_llama_weights(cfg, seed=seed)
    registry = LoraRegistry()
    for i, lora_id in enumerate(lora_ids):
        registry.register(
            random_lora_weights(
                lora_id, cfg.num_layers, cfg.proj_dims(), 4, seed=seed + 50 + i
            )
        )
    engines = [
        GpuEngine(
            f"gpu{i}",
            NumpyBackend(
                weights, registry, total_pages=256, page_size=4, lora_rank=4,
                step_overhead=FUNCTIONAL_STEP_SECONDS,
            ),
            EngineConfig(max_batch_size=max_batch_size),
        )
        for i in range(num_gpus)
    ]
    return _assemble(
        engines, seed=seed, warp=warp, quantum=FUNCTIONAL_STEP_SECONDS,
        policy=policy, tenant_policies=None,
        max_total_inflight=max_total_inflight, host=host, port=port,
    )


def _assemble(
    engines, *, seed, warp, quantum, policy, tenant_policies,
    max_total_inflight, host, port,
) -> ServeStack:
    """The one serving chain both builders put over their engines:
    simulator (traced) -> frontend -> gateway -> bridge -> server."""
    tracer = Tracer()
    sim = ClusterSimulator(engines, SchedulerConfig(), tracer=tracer)
    metrics = ServeMetrics()
    gateway = ServeGateway(
        Frontend(sim),
        AdmissionController(
            default_policy=policy or default_policy(),
            tenant_policies=tenant_policies,
            max_total_inflight=max_total_inflight,
        ),
        metrics=metrics,
        tracer=tracer,
    )
    bridge = SimulatorBridge(gateway, warp=warp, quantum=quantum, seed=seed)
    return ServeStack(
        server=ServeServer(bridge, host=host, port=port),
        bridge=bridge, metrics=metrics, tracer=tracer,
    )


def build_stack(backend: str, **kwargs) -> ServeStack:
    """Dispatch on backend name: ``"sim"`` or ``"functional"``."""
    if backend == "sim":
        return build_sim_stack(**kwargs)
    if backend == "functional":
        return build_functional_stack(**kwargs)
    raise ValueError(f"unknown backend {backend!r}; pick 'sim' or 'functional'")


async def run_load(
    stack: ServeStack, spec: LoadSpec
) -> "tuple[dict, list]":
    """Start the stack, run one load spec against it, stop, summarize."""
    await stack.server.start()
    try:
        generator = LoadGenerator("127.0.0.1", stack.server.port, spec)
        results = await generator.run()
    finally:
        await stack.server.stop()
    return summarize(results), results


async def serve_until(
    stack: ServeStack, duration: "float | None" = None
) -> None:
    """Run the server until ``duration`` wall seconds pass (or forever)."""
    await stack.server.start()
    try:
        if duration is None:
            await stack.server.serve_forever()
        else:
            await asyncio.sleep(duration)
    except asyncio.CancelledError:
        pass
    finally:
        await stack.server.stop()
