"""Fault injection for the cluster runtime (chaos engineering the §5.3 path).

Punica's migration mechanism — cancel a request, re-prefill it on another
GPU over prompt + generated prefix — is exactly the machinery a production
cluster needs to survive GPU failures. This module makes faults a
first-class, *deterministic* input to the simulation so that recovery can
be tested and benchmarked like any other scheduling property:

* :class:`FaultKind` — the fault taxonomy: a GPU crashing outright, a GPU
  slowing down (thermal throttling / noisy neighbour), an adapter load
  failing mid-copy (corrupt weights, NFS hiccup), and a PCIe stall
  delaying every in-flight host->GPU transfer on one server.
* :class:`FaultSpec` — one scheduled fault. ``gpu_id=None`` means "pick a
  live, non-idle GPU at fire time" using the injector's seeded RNG, so a
  random plan stays meaningful even as the pool shrinks.
* :class:`FaultInjector` — an ordered, seedable fault schedule. It is
  driven by event-loop ticks: the simulator arms one tick per fault time,
  and the tick hands the due :class:`FaultSpec` back to the simulator,
  which applies it (see ``ClusterSimulator._apply_fault``). Identical
  seed + trace => identical fault sequence => bit-identical simulations.

The injector deliberately knows nothing about engines or schedulers; it
only produces *what* fails and *when*. The recovery policy (re-place via
evict + re-prefill, shed with a FAILED terminal state only when no
capacity remains) lives in the scheduler/simulator — see docs/faults.md.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field


class FaultKind(enum.Enum):
    GPU_CRASH = "gpu_crash"
    """The GPU dies: engine leaves the pool, its requests are re-placed."""
    GPU_SLOWDOWN = "gpu_slowdown"
    """Step latency multiplied by ``factor`` for ``duration`` seconds."""
    ADAPTER_LOAD_FAIL = "adapter_load_fail"
    """One in-flight adapter copy fails; its requests are re-placed."""
    PCIE_STALL = "pcie_stall"
    """Every in-flight adapter copy on one GPU slips by ``duration`` s."""
    KV_TRANSFER_FAIL = "kv_transfer_fail"
    """One in-flight paged KV handoff is lost; the request drops its KV
    copy and falls back to the §5.3 re-prefill path (disaggregated mode
    only — a no-op under the colocated simulator)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    kind: FaultKind
    time: float
    gpu_id: "str | None" = None
    """Target GPU; None = injector picks a live (preferably busy) GPU."""
    duration: float = 5.0
    """Slowdown window / PCIe stall length (seconds)."""
    factor: float = 4.0
    """Latency multiplier while a GPU_SLOWDOWN is active."""
    lora_id: "str | None" = None
    """Adapter whose load fails; None = any copy in flight on the target."""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be nonnegative, got {self.time}")
        if self.duration < 0:
            raise ValueError(f"duration must be nonnegative, got {self.duration}")
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")


@dataclass
class InjectedFault:
    """Audit-log entry: what actually fired, where, and when."""

    spec: FaultSpec
    gpu_id: "str | None"
    time: float
    applied: bool
    """False when the fault found no valid target (e.g. last-GPU crash
    guard, no copy in flight to fail) and was dropped."""


class FaultInjector:
    """Deterministic, seedable fault schedule driven by event-loop ticks.

    Construct with an explicit script of :class:`FaultSpec`, or use
    :meth:`random_plan` to draw one from a seed. The simulator calls
    :meth:`arm` once at run start (one tick per distinct fault time) and
    :meth:`pick_gpu` / :meth:`pick_inflight_lora` when a spec left the
    target open.
    """

    def __init__(
        self,
        specs: "list[FaultSpec] | None" = None,
        seed: int = 0,
        allow_last_gpu_crash: bool = False,
    ):
        self.specs = sorted(specs or [], key=lambda s: s.time)
        self.seed = seed
        self.allow_last_gpu_crash = allow_last_gpu_crash
        """Crashing the last live GPU sheds every in-flight request; keep
        it off unless the test explicitly exercises the shed path."""
        self._rng = random.Random(seed)
        self.injected: list[InjectedFault] = []
        self.tracer = None
        """Optional :class:`~repro.obs.tracer.Tracer` (the simulator sets
        it) receiving one FAULT event per fired tick, applied or not."""

    # ------------------------------------------------------------------
    @classmethod
    def random_plan(
        cls,
        seed: int,
        duration: float,
        num_faults: int = 4,
        kinds: "tuple[FaultKind, ...]" = (
            FaultKind.GPU_CRASH,
            FaultKind.GPU_SLOWDOWN,
            FaultKind.ADAPTER_LOAD_FAIL,
            FaultKind.PCIE_STALL,
        ),
        warmup_fraction: float = 0.1,
    ) -> "FaultInjector":
        """Draw ``num_faults`` faults uniformly over the middle of the run.

        Times avoid the first/last ``warmup_fraction`` of the horizon so
        faults land while the cluster is actually loaded.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not kinds:
            raise ValueError("need at least one fault kind")
        rng = random.Random(seed)
        lo = duration * warmup_fraction
        hi = duration * (1.0 - warmup_fraction)
        specs = [
            FaultSpec(kind=rng.choice(kinds), time=rng.uniform(lo, hi))
            for _ in range(num_faults)
        ]
        return cls(specs, seed=seed)

    @classmethod
    def crash_at(cls, time: float, gpu_id: "str | None" = None, seed: int = 0):
        """Convenience: a single GPU crash — the canonical chaos test."""
        return cls([FaultSpec(kind=FaultKind.GPU_CRASH, time=time, gpu_id=gpu_id)],
                   seed=seed)

    # ------------------------------------------------------------------
    def arm(self, loop, apply) -> None:
        """Schedule one tick per fault on ``loop``; each tick calls
        ``apply(spec, now)`` and records the outcome in :attr:`injected`."""
        for spec in self.specs:
            loop.schedule(spec.time, self._make_tick(spec, apply))

    def _make_tick(self, spec: FaultSpec, apply):
        def tick(now: float) -> None:
            gpu_id, applied = apply(spec, now)
            self.injected.append(
                InjectedFault(spec=spec, gpu_id=gpu_id, time=now, applied=applied)
            )
            if self.tracer is not None:
                from repro.obs.tracer import EventKind

                self.tracer.emit(
                    now, EventKind.FAULT, gpu_id=gpu_id,
                    fault=spec.kind.value, applied=applied,
                )

        return tick

    # ------------------------------------------------------------------
    # Target selection (seeded — identical runs pick identical victims)
    # ------------------------------------------------------------------
    def pick_gpu(self, engines: "dict[str, object]", prefer_busy: bool = True) -> "str | None":
        """Pick a live target GPU; busy GPUs preferred so faults matter."""
        live = [gid for gid, e in engines.items() if getattr(e, "alive", True)]
        if not live:
            return None
        if prefer_busy:
            busy = [gid for gid in live if not engines[gid].is_idle]
            if busy:
                live = busy
        return self._rng.choice(sorted(live))

    def pick_inflight_lora(self, engine, now: float) -> "str | None":
        """Pick one adapter whose copy is still in flight on ``engine``."""
        candidates = sorted(engine.loader.inflight_models(now))
        return self._rng.choice(candidates) if candidates else None

    def pick_transfer(self, request_ids) -> "str | None":
        """Pick one in-flight KV handoff (by request id) to lose."""
        candidates = sorted(request_ids)
        return self._rng.choice(candidates) if candidates else None

    # ------------------------------------------------------------------
    def summary(self) -> str:
        applied = sum(1 for f in self.injected if f.applied)
        return f"{applied}/{len(self.injected)} faults applied (seed {self.seed})"
