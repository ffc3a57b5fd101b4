"""Cluster-level serving: the Punica scheduler over a pool of GPUs (§3, §5).

The scheduler routes each new request to the busiest GPU that still has
room (consolidation), queues FCFS when the cluster saturates, periodically
migrates requests off lightly loaded GPUs so they can drain to idle (and be
released to the cloud provider), and re-places requests evicted under
KvCache pressure. :class:`ClusterSimulator` drives any number of engines
through a discrete-event loop and records the Fig 13 panels: request rate,
aggregate token throughput, and each GPU's batch size over time.
"""

from repro.cluster.elastic import ElasticConfig, ElasticPool
from repro.cluster.events import EventLoop
from repro.cluster.frontend import Frontend, RequestHandle
from repro.cluster.metrics import ClusterMetrics, TimeSeries
from repro.cluster.scheduler import PunicaScheduler, SchedulerConfig
from repro.cluster.simulator import ClusterSimulator, SimulationResult

__all__ = [
    "ClusterMetrics",
    "ClusterSimulator",
    "ElasticConfig",
    "ElasticPool",
    "EventLoop",
    "Frontend",
    "PunicaScheduler",
    "RequestHandle",
    "SchedulerConfig",
    "SimulationResult",
    "TimeSeries",
]
