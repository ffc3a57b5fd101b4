"""Tiered adapter registry: metadata + DISK -> HOST -> GPU residency.

Punica (§5.2) loads LoRA weights on demand over PCIe but models adapter
residency as a flat per-GPU set. Serving *thousands* of adapters needs a
notion of where an adapter lives when it is not on a GPU: S-LoRA keeps a
host-RAM staging tier between disk and the GPUs, and CaraServe adds
popularity- and locality-aware placement on top. This module provides the
cluster-wide bookkeeping for that design:

* :class:`AdapterMeta` — per-adapter metadata (rank, dtype, byte size) plus
  popularity statistics (request count, EWMA arrival rate) fed from the
  workload's popularity distribution and live arrivals;
* :class:`Tier` — the three-tier residency state machine. An adapter is
  always DISK-resident; it may additionally be staged in HOST RAM and
  promoted into one or more GPUs' memory pools;
* :class:`HostTierSpec` — the disk -> host transfer latency model and the
  host-RAM staging budget (LRU-evicted, GPU-pinned entries excluded);
* :class:`AdapterRegistry` — the shared registry GPU-side stores
  (:class:`~repro.adapters.store.GpuAdapterStore`) and the
  :class:`~repro.adapters.prefetch.Prefetcher` coordinate through.

The host -> GPU leg of a promotion is planned by the per-GPU store using
:mod:`repro.hw.pcie`; this registry owns only the disk -> host leg.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.units import GB, MS
from repro.utils.validation import check_nonnegative, check_positive

_MIN_INTERVAL = 1e-9
"""Floor on inter-arrival gaps so same-timestamp arrivals keep rates finite."""


class Tier(enum.IntEnum):
    """Where an adapter's weights live; higher is closer to the compute."""

    DISK = 0
    HOST = 1
    GPU = 2


@dataclass(frozen=True)
class HostTierSpec:
    """The disk -> host staging link plus the host-RAM adapter budget.

    ``bandwidth``/``latency`` model one sequential read of an adapter's
    safetensors file into pinned host memory. ``capacity_bytes`` bounds the
    host staging area; ``None`` means host RAM is effectively unbounded
    relative to adapter sizes (the common case on a 1 TB-RAM host).
    """

    name: str = "NVMe -> host RAM"
    bandwidth: float = 3 * GB
    latency: float = 0.5 * MS
    capacity_bytes: "float | None" = None

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_nonnegative("latency", self.latency)
        if self.capacity_bytes is not None:
            check_positive("capacity_bytes", self.capacity_bytes)

    def staging_time(self, nbytes: float) -> float:
        """Duration of one disk -> host read of ``nbytes`` bytes."""
        check_nonnegative("nbytes", nbytes)
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth


DEFAULT_HOST_TIER = HostTierSpec()


@dataclass
class AdapterMeta:
    """Metadata and popularity statistics for one registered LoRA adapter."""

    lora_id: str
    rank: int
    nbytes: float
    dtype_bytes: int = 2
    requests: int = 0
    last_request: "float | None" = None
    ewma_interval: "float | None" = None
    """EWMA of the inter-arrival gap; ``1 / ewma_interval`` is the rate."""

    def record_request(self, now: float, alpha: float) -> None:
        """Fold one arrival at ``now`` into the EWMA arrival rate."""
        if self.last_request is not None:
            dt = max(now - self.last_request, _MIN_INTERVAL)
            if self.ewma_interval is None:
                self.ewma_interval = dt
            else:
                self.ewma_interval = alpha * dt + (1.0 - alpha) * self.ewma_interval
        self.requests += 1
        self.last_request = now

    def rate(self, now: float) -> float:
        """Estimated arrivals/second at ``now``.

        The estimate decays for adapters that have gone quiet: the effective
        interval is at least the time since the last arrival, so a formerly
        hot adapter cools off rather than holding its peak rate forever.
        """
        if self.ewma_interval is None:
            return 0.0
        staleness = 0.0
        if self.last_request is not None:
            staleness = max(now - self.last_request, 0.0)
        return 1.0 / max(self.ewma_interval, staleness, _MIN_INTERVAL)

    def seed_rate(self, rate: float) -> None:
        """Install a prior arrival rate (e.g. from historical popularity)."""
        check_positive("rate", rate)
        self.ewma_interval = 1.0 / rate


@dataclass
class _HostEntry:
    """One adapter staged (or staging) in host RAM."""

    ready: float
    last_used: float
    prefetched: bool = False


class AdapterRegistry:
    """Cluster-wide adapter metadata, popularity, and host-tier residency.

    Per-GPU residency is owned by each GPU's
    :class:`~repro.adapters.store.GpuAdapterStore`; stores report promotions
    and evictions back here (:meth:`note_gpu_resident` /
    :meth:`note_gpu_evicted`) so :meth:`tier` answers cluster-wide locality
    queries for the scheduler.
    """

    def __init__(
        self,
        host: HostTierSpec = DEFAULT_HOST_TIER,
        ewma_alpha: float = 0.3,
    ):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.host = host
        self.ewma_alpha = ewma_alpha
        self._meta: dict[str, AdapterMeta] = {}
        self._host: dict[str, _HostEntry] = {}
        self._gpu: dict[str, set[str]] = {}
        self.host_stage_count = 0
        self.host_evictions = 0

    # -- metadata --------------------------------------------------------
    def register(
        self,
        lora_id: str,
        rank: int,
        nbytes: "float | None" = None,
        dtype_bytes: int = 2,
        config=None,
        prior_rate: "float | None" = None,
    ) -> AdapterMeta:
        """Register one adapter; idempotent for identical re-registration.

        ``nbytes`` may be given directly or derived from a
        :class:`~repro.models.config.LlamaConfig` via ``config.lora_bytes``.
        ``prior_rate`` seeds the popularity EWMA (requests/second) so the
        prefetcher has a signal before live traffic accumulates.
        """
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        if nbytes is None:
            if config is None:
                raise ValueError("register needs nbytes or a model config")
            nbytes = float(config.lora_bytes(rank))
        check_positive("nbytes", nbytes)
        existing = self._meta.get(lora_id)
        if existing is not None:
            if existing.rank != rank or existing.nbytes != nbytes:
                raise ValueError(
                    f"adapter {lora_id!r} already registered with rank "
                    f"{existing.rank} / {existing.nbytes:.0f} bytes; "
                    f"conflicting rank {rank} / {nbytes:.0f} bytes"
                )
            return existing
        meta = AdapterMeta(
            lora_id=lora_id, rank=rank, nbytes=float(nbytes), dtype_bytes=dtype_bytes
        )
        if prior_rate is not None:
            meta.seed_rate(prior_rate)
        self._meta[lora_id] = meta
        return meta

    def get(self, lora_id: str) -> AdapterMeta:
        try:
            return self._meta[lora_id]
        except KeyError:
            raise KeyError(f"adapter {lora_id!r} is not registered") from None

    def __contains__(self, lora_id: str) -> bool:
        return lora_id in self._meta

    def __len__(self) -> int:
        return len(self._meta)

    def adapters(self) -> list[AdapterMeta]:
        return list(self._meta.values())

    # -- popularity ------------------------------------------------------
    def record_request(self, lora_id: str, now: float) -> None:
        """Feed one live arrival into the adapter's popularity EWMA."""
        self.get(lora_id).record_request(now, self.ewma_alpha)

    def hot_adapters(
        self, now: float, limit: "int | None" = None, min_rate: float = 0.0
    ) -> list[AdapterMeta]:
        """Adapters ordered hottest-first by EWMA rate (stable tie-break)."""
        ranked = sorted(
            (m for m in self._meta.values() if m.rate(now) > min_rate),
            key=lambda m: (-m.rate(now), -m.requests, m.lora_id),
        )
        return ranked if limit is None else ranked[:limit]

    # -- tier state machine ----------------------------------------------
    def tier(self, lora_id: str, gpu_id: "str | None" = None) -> Tier:
        """Current residency tier; with ``gpu_id`` the GPU test is per-GPU."""
        homes = self._gpu.get(lora_id, ())
        if (gpu_id in homes) if gpu_id is not None else bool(homes):
            return Tier.GPU
        if lora_id in self._host:
            return Tier.HOST
        return Tier.DISK

    def host_resident(self, lora_id: str) -> bool:
        return lora_id in self._host

    def host_ready(self, lora_id: str) -> float:
        """When the host copy is (or will be) usable; raises if not staged."""
        entry = self._host.get(lora_id)
        if entry is None:
            raise KeyError(f"adapter {lora_id!r} is not staged host-side")
        return entry.ready

    def host_used_bytes(self) -> float:
        return sum(self._meta[lid].nbytes for lid in self._host)

    def host_resident_adapters(self) -> list[str]:
        return list(self._host)

    def ensure_host(self, lora_id: str, now: float, prefetch: bool = False) -> float:
        """DISK -> HOST transition (idempotent); returns the ready time.

        A fresh staging pays the disk -> host transfer
        (:meth:`HostTierSpec.staging_time`); re-requests just refresh LRU
        recency. Over-budget staging LRU-evicts unpinned host entries —
        entries are pinned while any GPU holds (or is fetching) the adapter
        or while their own disk read is still in flight.
        """
        meta = self.get(lora_id)
        entry = self._host.get(lora_id)
        if entry is not None:
            entry.last_used = now
            return entry.ready
        self._evict_host_for(meta.nbytes, lora_id, now)
        ready = now + self.host.staging_time(meta.nbytes)
        self._host[lora_id] = _HostEntry(ready=ready, last_used=now, prefetched=prefetch)
        self.host_stage_count += 1
        return ready

    def stage(self, lora_id: str, now: float) -> float:
        """Prefetch-path alias of :meth:`ensure_host`."""
        return self.ensure_host(lora_id, now, prefetch=True)

    def drop_host(self, lora_id: str) -> None:
        """Explicitly demote a host-staged adapter back to DISK."""
        self._host.pop(lora_id, None)

    def _host_pinned(self, lora_id: str, now: float) -> bool:
        return bool(self._gpu.get(lora_id)) or self._host[lora_id].ready > now

    def _evict_host_for(self, nbytes: float, lora_id: str, now: float) -> None:
        cap = self.host.capacity_bytes
        if cap is None:
            return
        if nbytes > cap:
            raise MemoryError(
                f"adapter {lora_id!r} needs {nbytes:.0f} bytes but the host "
                f"staging tier holds only {cap:.0f} bytes; it can never fit"
            )
        used = self.host_used_bytes()
        while used + nbytes > cap:
            victims = [
                (e.last_used, lid)
                for lid, e in self._host.items()
                if not self._host_pinned(lid, now)
            ]
            if not victims:
                raise MemoryError(
                    f"host staging tier full ({used:.0f}/{cap:.0f} bytes) and "
                    f"every staged adapter is GPU-pinned or in flight"
                )
            _, victim = min(victims)
            used -= self._meta[victim].nbytes
            del self._host[victim]
            self.host_evictions += 1

    # -- GPU residency notes (reported by per-GPU stores) -----------------
    def note_gpu_resident(self, lora_id: str, gpu_id: str) -> None:
        self._gpu.setdefault(lora_id, set()).add(gpu_id)

    def note_gpu_evicted(self, lora_id: str, gpu_id: str) -> None:
        homes = self._gpu.get(lora_id)
        if homes is not None:
            homes.discard(gpu_id)
            if not homes:
                del self._gpu[lora_id]


def register_trace_adapters(
    registry: AdapterRegistry,
    trace,
    config,
    rank: int = 16,
    seed_priors: bool = True,
) -> list[AdapterMeta]:
    """Register every adapter a trace references, with popularity priors.

    The per-adapter request counts of the trace (drawn from
    :mod:`repro.workloads.popularity`) seed each adapter's EWMA arrival
    rate as ``count / trace duration``, mirroring an operator bootstrapping
    the registry from historical traffic.
    """
    counts: dict[str, int] = {}
    for spec in trace:
        counts[spec.lora_id] = counts.get(spec.lora_id, 0) + 1
    duration = max(trace.duration, 1.0)
    metas = []
    for lora_id in sorted(counts):
        prior = counts[lora_id] / duration if seed_priors else None
        metas.append(
            registry.register(lora_id, rank=rank, config=config, prior_rate=prior)
        )
    return metas
