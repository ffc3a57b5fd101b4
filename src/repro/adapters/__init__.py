"""Adapter lifecycle subsystem: tiered registry, unified pool, prefetching.

The pieces (S-LoRA / CaraServe lineage — see ``docs/adapters.md``):

* :mod:`repro.adapters.registry` — cluster-wide adapter metadata,
  popularity EWMAs, and the DISK -> HOST -> GPU tier state machine;
* :mod:`repro.adapters.store` — the per-GPU adapter cache, which *is* an
  engine's ``loader`` (§5.2 on-demand loading);
* :mod:`repro.adapters.pool` — one per-GPU byte budget shared between the
  paged KvCache and adapter weights, with adapters evictable under
  KvCache pressure;
* :mod:`repro.adapters.prefetch` — popularity-driven host staging and
  speculative GPU promotion during idle PCIe windows.
"""

from repro.adapters.pool import UnifiedMemoryPool
from repro.adapters.prefetch import PrefetchConfig, Prefetcher
from repro.adapters.registry import (
    DEFAULT_HOST_TIER,
    AdapterMeta,
    AdapterRegistry,
    HostTierSpec,
    Tier,
    register_trace_adapters,
)
from repro.adapters.store import AdapterEvent, GpuAdapterStore

__all__ = [
    "AdapterEvent",
    "AdapterMeta",
    "AdapterRegistry",
    "DEFAULT_HOST_TIER",
    "GpuAdapterStore",
    "HostTierSpec",
    "PrefetchConfig",
    "Prefetcher",
    "Tier",
    "UnifiedMemoryPool",
    "register_trace_adapters",
]
