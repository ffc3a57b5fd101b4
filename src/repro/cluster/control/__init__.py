"""SLO-aware control plane for heterogeneous GPU fleets.

Three threads share one cost model (:mod:`repro.cluster.control.costmodel`):

1. **SLO-aware admission/routing** (:class:`SloRouter`) — requests carry
   TTFT/ITL deadlines; placement maximises modelled deadline headroom
   instead of Punica's pack rule, queued work drains earliest-deadline-
   first, and a request is shed only when no engine could meet its
   deadline even under the optimistic (empty-fleet) floor.
2. **Heterogeneous fleets** — :class:`~repro.hw.spec.HwSpec` presets
   (A100-80G / H100 / L4) mix in one pool; the shared cost model prices
   each candidate engine with its own spec, so prefill-heavy work lands
   on high-FLOPs parts and long-decode work on high-bandwidth parts
   without any per-device special cases in the router.
3. **Predictive autoscaling** (:class:`PredictiveConfig` on an
   :class:`~repro.cluster.elastic.ElasticPool`) — EWMA arrival-rate
   forecasting drives warm-up-cost-aware grow/shrink of the pool.

See docs/slo.md for the cost model, deadline semantics and autoscaler
policy. The control plane is strictly opt-in — a
:class:`~repro.cluster.simulator.ClusterSimulator` composes it only when
given ``control=ControlConfig(...)`` — so every other golden trace is
byte-identical with this package present.
"""

from repro.cluster.control.autoscaler import EwmaForecast, PredictiveConfig
from repro.cluster.control.config import ControlConfig, SloPolicy
from repro.cluster.control.costmodel import FleetCostModel, LatencyEstimate
from repro.cluster.control.router import SloRouter
from repro.cluster.control.simulator import (
    SloClusterSimulator,
    score_requests,
    slo_attainment,
)

__all__ = [
    "ControlConfig",
    "EwmaForecast",
    "FleetCostModel",
    "LatencyEstimate",
    "PredictiveConfig",
    "SloClusterSimulator",
    "SloPolicy",
    "SloRouter",
    "score_requests",
    "slo_attainment",
]
