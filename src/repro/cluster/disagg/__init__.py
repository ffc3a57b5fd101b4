"""Disaggregated prefill/decode serving (see docs/disagg.md).

Splits the engine pool into a prefill pool and a decode pool: prefills run
on dedicated GPUs (so they never stall co-resident decodes), then each
request's paged KvCache is handed off over the interconnect to a decode
GPU picked by adapter working-set locality. Compose it with
``ClusterSimulator(engines, handoff=DisaggConfig(...))`` over engines
built with ``role="prefill"`` / ``role="decode"``; see
:class:`~repro.cluster.disagg.handoff.KvHandoff`.
"""

from repro.cluster.disagg.config import INTERCONNECTS, DisaggConfig
from repro.cluster.disagg.handoff import KvHandoff

__all__ = ["DisaggConfig", "INTERCONNECTS", "KvHandoff"]
