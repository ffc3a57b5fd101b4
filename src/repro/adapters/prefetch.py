"""Popularity-driven adapter prefetching (CaraServe-style cold-start cuts).

A cold request for an adapter that lives only on DISK pays
disk -> host staging *plus* the host -> GPU PCIe copy before its prefill can
run. The :class:`Prefetcher` spends otherwise-idle resources to move that
cost off the critical path:

* **HOST staging** — the hottest adapters by registry EWMA arrival rate are
  kept staged in host RAM, so a demand load pays only the PCIe leg;
* **GPU promotion** — during idle PCIe windows (no copy in flight on that
  GPU), hot HOST-resident adapters are speculatively copied into free pool
  bytes. Promotions are non-disruptive: they never evict anything, and the
  unified pool reclaims them first under KvCache pressure;
* **Routing hints** — the cluster scheduler reports requests it had to
  queue, and their adapters are staged host-side immediately so the
  eventual placement starts warm.

Prefetch *accuracy* (issued promotions that a later demand load actually
hit) is tracked through the store event log into
:class:`~repro.cluster.metrics.ClusterMetrics`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.adapters.registry import AdapterRegistry
from repro.adapters.store import GpuAdapterStore


@dataclass(frozen=True)
class PrefetchConfig:
    """Prefetch policy knobs."""

    interval: float = 0.5
    """Seconds between prefetch passes."""
    host_topk: int = 8
    """How many of the hottest adapters to keep HOST-staged."""
    gpu_topk: int = 2
    """Max speculative GPU promotions per GPU per pass."""
    min_rate: float = 0.0
    """Adapters at or below this EWMA rate (req/s) are never prefetched."""

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.host_topk < 0 or self.gpu_topk < 0:
            raise ValueError("host_topk and gpu_topk must be >= 0")
        if self.min_rate < 0:
            raise ValueError(f"min_rate must be >= 0, got {self.min_rate}")


class Prefetcher:
    """Stages hot adapters host-side and promotes them in idle PCIe windows."""

    def __init__(
        self,
        registry: AdapterRegistry,
        config: "PrefetchConfig | None" = None,
    ):
        self.registry = registry
        self.config = config or PrefetchConfig()
        self._pools: dict[str, GpuAdapterStore] = {}
        self.num_staged = 0
        self.num_promoted = 0
        self.num_hints = 0

    def attach(self, pools: "Mapping[str, GpuAdapterStore]") -> None:
        """Register the per-GPU adapter stores promotions go to."""
        self._pools = dict(pools)

    # -- scheduler hints --------------------------------------------------
    def hint_queued(self, lora_id: str, now: float) -> None:
        """A request for this adapter queued cluster-wide: stage it now so
        its eventual placement pays only the PCIe leg."""
        if lora_id in self.registry and not self.registry.host_resident(lora_id):
            if self._try_stage(lora_id, now):
                self.num_hints += 1

    def _try_stage(self, lora_id: str, now: float) -> bool:
        """Stage host-side; a full (all-pinned) host tier is a pass, not an
        error — speculation backs off, demand loads stream through."""
        try:
            self.registry.stage(lora_id, now)
            return True
        except MemoryError:
            return False

    # -- periodic pass ----------------------------------------------------
    def tick(self, now: float) -> "tuple[int, int]":
        """One prefetch pass; returns (host stagings, GPU promotions)."""
        cfg = self.config
        hot = self.registry.hot_adapters(
            now, limit=cfg.host_topk, min_rate=cfg.min_rate
        )
        staged = 0
        for meta in hot:
            if not self.registry.host_resident(meta.lora_id):
                if self._try_stage(meta.lora_id, now):
                    staged += 1
        promoted = 0
        for gpu_id in sorted(self._pools):
            pool = self._pools[gpu_id]
            if not pool.pcie_idle(now):
                continue  # demand traffic owns the link; stay out of its way
            done = 0
            for meta in hot:
                if done >= cfg.gpu_topk:
                    break
                if pool.is_resident(meta.lora_id):
                    continue
                if (
                    not self.registry.host_resident(meta.lora_id)
                    or self.registry.host_ready(meta.lora_id) > now
                ):
                    continue  # promote only from a settled host copy
                if pool.prefetch(meta.lora_id, now):
                    done += 1
            promoted += done
        self.num_staged += staged
        self.num_promoted += promoted
        return staged, promoted
