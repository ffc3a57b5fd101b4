"""Predictive autoscaling (thread (c) of the control plane).

Instead of reacting to the instantaneous §5.1 scaling hint, an
:class:`~repro.cluster.elastic.ElasticPool` built with
``predictive=PredictiveConfig(...)`` tracks an EWMA forecast of the
arrival rate and sizes itself to
``forecast * (1 + headroom) / service_rate_per_gpu``, growing by several
GPUs in one tick when a burst lands and shrinking only when the forecast
says the remaining pool still covers demand **and** the candidate engine
has amortized its warm-up (a GPU released before it served for at least
one provisioning delay paid its warm-up for nothing). Scale decisions
emit SCALE_UP / SCALE_DOWN trace events carrying the forecast that drove
them. This module is the forecast arithmetic; the pool mechanics
(provisioning, release) live with the pool, the leases with the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class EwmaForecast:
    """Exponentially weighted moving average of a sampled rate."""

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = 0.0
        self._primed = False

    def update(self, sample: float) -> float:
        if not self._primed:
            self.value = float(sample)
            self._primed = True
        else:
            self.value = self.alpha * float(sample) + (1 - self.alpha) * self.value
        return self.value


@dataclass(frozen=True)
class PredictiveConfig:
    """Knobs of the forecast-driven pool sizing."""

    ewma_alpha: float = 0.3
    """Forecast smoothing: higher chases bursts, lower rides them out."""
    service_rate_per_gpu: float = 4.0
    """Requests/s one engine is budgeted to absorb (capacity planning
    constant; calibrate per workload from a steady-state run)."""
    headroom_fraction: float = 0.2
    """Spare capacity provisioned above the forecast."""

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.service_rate_per_gpu <= 0:
            raise ValueError("service_rate_per_gpu must be positive")
        if self.headroom_fraction < 0:
            raise ValueError("headroom_fraction must be nonnegative")


class ForecastSizer:
    """Desired pool size from the arrival forecast, one sample per tick."""

    def __init__(self, config: PredictiveConfig) -> None:
        self.config = config
        self.ewma = EwmaForecast(config.ewma_alpha)
        self._arrivals_seen = 0

    def desired(
        self, arrivals_total: int, elastic, pool: int, queue_depth: int
    ) -> "tuple[int, float]":
        """(desired GPUs, forecast req/s) given the arrivals counted so
        far, the pool's ``ElasticConfig``, its current size (serving +
        provisioning) and the scheduler's queue depth."""
        cfg = self.config
        sample = (arrivals_total - self._arrivals_seen) / elastic.check_interval
        self._arrivals_seen = arrivals_total
        forecast = self.ewma.update(sample)
        demand = forecast * (1.0 + cfg.headroom_fraction)
        desired = max(
            elastic.min_gpus,
            min(elastic.max_gpus, math.ceil(demand / cfg.service_rate_per_gpu)),
        )
        # A standing queue means the forecast under-calls actual service
        # cost; never size below what the reactive hint would demand.
        if queue_depth > 0 and desired <= pool < elastic.max_gpus:
            desired = pool + 1
        return desired, forecast
