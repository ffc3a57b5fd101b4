"""Elastic GPU pool: the §5.1 cloud allocation policy, simulated.

The paper: "(1) If no lightly loaded GPU exists in the cluster, Punica
should request more GPUs. (2) Punica can return the GPU resources for GPU
servers with no load." This module runs the Fig 13 machinery with a pool
that actually grows and shrinks: scale-up requests take a provisioning
delay to land; GPUs idle beyond a grace period are released. The headline
metric is **GPU-seconds provisioned** — what a cloud tenant pays —
compared against a statically sized pool.

:class:`ElasticPool` is what a
:class:`~repro.cluster.simulator.ClusterSimulator` composes when built
with ``pool=ElasticPool(factory, ElasticConfig(...))``. One controller
serves both sizing rules: the instantaneous §5.1 scaling hint, or — with
``predictive=PredictiveConfig(...)`` — the EWMA arrival forecast of
docs/slo.md, which can grow several GPUs in one tick and shrinks only
engines that have amortized their warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.cluster.control.autoscaler import ForecastSizer, PredictiveConfig
from repro.obs.tracer import EventKind


@dataclass(frozen=True)
class ElasticConfig:
    """Knobs of the autoscaler."""

    min_gpus: int = 1
    max_gpus: int = 16
    provision_delay: float = 30.0
    """Seconds from the scale-up decision until the new GPU serves."""
    release_idle_after: float = 20.0
    """A GPU idle this long is returned to the provider."""
    check_interval: float = 5.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_gpus <= self.max_gpus:
            raise ValueError("need 1 <= min_gpus <= max_gpus")
        if self.provision_delay < 0 or self.release_idle_after < 0:
            raise ValueError("delays must be nonnegative")
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")


@dataclass
class GpuLease:
    """One provisioned GPU's billing window."""

    gpu_id: str
    start: float
    end: "float | None" = None

    def seconds(self, horizon: float) -> float:
        return (self.end if self.end is not None else horizon) - self.start


class ElasticPool:
    """Leases, provisioning and the autoscale tick of one simulator."""

    def __init__(
        self,
        engine_factory: Callable[[str], object],
        config: "ElasticConfig | None" = None,
        predictive: "PredictiveConfig | None" = None,
    ):
        self.engine_factory = engine_factory
        self.config = config or ElasticConfig()
        self._sizer = ForecastSizer(predictive) if predictive is not None else None
        """Forecast sizing; None sizes by the scheduler's reactive hint."""
        self.sim = None
        """The owning simulator (set when it is constructed)."""
        self.leases: dict[str, GpuLease] = {}
        self.lease_log: list[GpuLease] = []
        self.idle_since: dict[str, float] = {}
        self.provisioning = 0
        self.scale_ups = 0
        self.releases = 0
        self._next_gpu_index = 0

    def new_engine(self):
        """Provision the next engine; GPU ids are never recycled."""
        gpu_id = f"gpu{self._next_gpu_index:02d}"
        self._next_gpu_index += 1
        return self.engine_factory(gpu_id)

    def open_lease(self, gpu_id: str, now: float) -> None:
        lease = self.leases[gpu_id] = GpuLease(gpu_id=gpu_id, start=now)
        self.lease_log.append(lease)
        self.idle_since[gpu_id] = now

    def close_lease(self, gpu_id: str, now: float) -> None:
        self.leases.pop(gpu_id).end = now
        self.idle_since.pop(gpu_id, None)

    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """One autoscale decision: size the pool, grow or shrink toward
        it, refresh the idle marks, re-arm."""
        sim, cfg = self.sim, self.config
        engines = sim.scheduler.engines
        pool = len(engines) + self.provisioning
        forecast = None
        if self._sizer is not None:
            desired, forecast = self._sizer.desired(
                len(sim.metrics.arrivals), cfg, pool, sim.scheduler.queue_depth
            )
        else:
            hint = sim.scheduler.scaling_hint()
            if hint == "scale-up":
                desired = min(pool + 1, cfg.max_gpus)
            elif hint == "scale-down":
                desired = cfg.min_gpus
            else:
                desired = pool
        if desired > pool:
            add = desired - pool
            if sim.tracer is not None and forecast is not None:
                sim.tracer.emit(
                    now, EventKind.SCALE_UP,
                    forecast=round(forecast, 9), pool=pool, add=add,
                )
            self.provisioning += add
            self.scale_ups += add
            for _ in range(add):
                sim.loop.schedule(now + cfg.provision_delay, self._activate)
        elif desired < len(engines):
            self._release(now, desired, forecast)
        for gid, engine in engines.items():
            if engine.is_idle:
                self.idle_since.setdefault(gid, now)
            else:
                self.idle_since.pop(gid, None)
        # A forecast-sized pool keeps ticking until it has drained back to
        # its floor — the shrink tail would otherwise freeze at whatever
        # size the last in-flight request left it.
        if (
            sim.work_remaining()
            or self.provisioning > 0
            or (self._sizer is not None and len(engines) > cfg.min_gpus)
        ):
            sim.loop.schedule(now + cfg.check_interval, self.tick)

    def _activate(self, now: float) -> None:
        self.provisioning -= 1
        self.sim.add_engine(self.new_engine(), now)

    def _release(self, now: float, floor: int, forecast: "float | None" = None) -> None:
        """Shrink toward ``floor``, releasing only engines idle past the
        grace period — and, under forecast sizing, leased for at least one
        provisioning delay (a GPU released sooner paid its warm-up for
        nothing)."""
        sim, cfg = self.sim, self.config
        engines = sim.scheduler.engines
        warm_up = cfg.provision_delay if self._sizer is not None else 0.0
        for gid in list(engines):
            if len(engines) <= max(cfg.min_gpus, floor):
                break
            idle_since = self.idle_since.get(gid)
            if (
                engines[gid].is_idle
                and idle_since is not None
                and now - idle_since >= cfg.release_idle_after
                and now - self.leases[gid].start >= warm_up
            ):
                pool = len(engines)
                sim.drop_engine(sim.scheduler.remove_engine(gid), now)
                self.releases += 1
                if sim.tracer is not None and forecast is not None:
                    sim.tracer.emit(
                        now, EventKind.SCALE_DOWN, gpu_id=gid,
                        forecast=round(forecast, 9), pool=pool,
                    )
