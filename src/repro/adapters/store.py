"""Per-GPU adapter cache: the GPU tier of the residency state machine.

:class:`GpuAdapterStore` is the engine's ``loader`` (paper §5.2, on-demand
loading): when a request whose adapter is not yet on the GPU arrives, the
engine issues an asynchronous host -> GPU copy here and keeps running the
current batch; the request joins once the copy completes. The store
tracks which adapters are resident on one GPU, their in-flight transfer
plans, per-adapter reference counts (an adapter is pinned while any
request references it), and LRU eviction under a byte budget. Constructed
bare it assumes every adapter is host-resident and has no budget; two
optional attachments extend that:

* **Registry awareness** — with an :class:`~repro.adapters.registry.AdapterRegistry`
  attached, a load consults the adapter's tier: a HOST-staged adapter pays
  only the PCIe copy, a DISK-only adapter pays disk -> host staging first
  (chained into one :class:`~repro.hw.pcie.TransferPlan`), and byte sizes
  come from registry metadata (so mixed-rank adapters are priced correctly).
* **Shared-budget hooks** — ``external_used`` lets a
  :class:`~repro.adapters.pool.UnifiedMemoryPool` count KvCache bytes
  against the same budget, and :meth:`reclaim` lets KvCache pressure evict
  unpinned adapters (demoting them to the HOST tier).

The store also keeps an event log (loads by hit tier, evictions, prefetch
issues/hits, PCIe busy time) that the cluster simulator drains into
:class:`~repro.cluster.metrics.ClusterMetrics`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from repro.adapters.registry import AdapterRegistry, Tier
from repro.hw.pcie import PCIE_GEN4_X16, PcieSpec, TransferPlan
from repro.obs.tracer import EventKind


class AdapterEvent(NamedTuple):
    """One timestamped adapter-lifecycle event for metrics ingestion."""

    time: float
    kind: str
    """"load" (value = source tier), "evict", "prefetch_issue",
    "prefetch_hit", or "pcie" (value = copy seconds)."""
    value: float


@dataclass
class _GpuEntry:
    nbytes: float
    plan: TransferPlan
    refcount: int = 0
    last_used: float = 0.0
    prefetched: bool = False


class GpuAdapterStore:
    """Tracks which LoRA adapters are resident on one GPU."""

    def __init__(
        self,
        pcie: PcieSpec = PCIE_GEN4_X16,
        capacity_bytes: "float | None" = None,
        registry: "AdapterRegistry | None" = None,
        gpu_id: str = "gpu0",
        serialize_pcie: bool = False,
        external_used: "Callable[[], float] | None" = None,
    ):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.pcie = pcie
        self.capacity_bytes = capacity_bytes
        self.registry = registry
        self.gpu_id = gpu_id
        self.serialize_pcie = serialize_pcie
        self.external_used = external_used
        self._entries: dict[str, _GpuEntry] = {}
        self.clock = 0.0
        self.pcie_busy_until = 0.0
        self.num_evictions = 0
        self.transfers = 0
        """Host -> GPU copies issued; each may take budget a staged run counted on."""
        self.events: list[AdapterEvent] = []
        self.tracer = None
        """Optional :class:`~repro.obs.tracer.Tracer` (the cluster
        simulator sets it) receiving one ADAPTER_LOAD event per demand
        load, tagged with the tier that satisfied it."""

    # -- queries ---------------------------------------------------------
    def is_resident(self, lora_id: str) -> bool:
        """Known to this GPU (copy may still be in flight)."""
        return lora_id in self._entries

    def is_ready(self, lora_id: str, now: float) -> bool:
        """Resident *and* the async copy has completed by ``now``."""
        entry = self._entries.get(lora_id)
        return entry is not None and entry.plan.done_by(now)

    def ready_time(self, lora_id: str) -> float:
        """When the adapter's copy finishes (raises if never requested)."""
        return self._require(lora_id).plan.finish

    def used_bytes(self) -> float:
        return sum(e.nbytes for e in self._entries.values())

    def pinned_bytes(self, now: "float | None" = None) -> float:
        """Bytes that cannot be reclaimed: referenced or still in flight."""
        t = self.clock if now is None else now
        return sum(
            e.nbytes
            for e in self._entries.values()
            if e.refcount > 0 or not e.plan.done_by(t)
        )

    def resident_models(self) -> list[str]:
        return list(self._entries)

    def inflight_models(self, now: float) -> list[str]:
        """Adapters whose host -> GPU copy has not completed by ``now``."""
        return [lid for lid, e in self._entries.items() if not e.plan.done_by(now)]

    def tier(self, lora_id: str) -> Tier:
        """This GPU's view of the adapter's residency tier.

        Without a registry every adapter's weights are assumed to live in
        host RAM, so a non-resident adapter is HOST.
        """
        if lora_id in self._entries:
            return Tier.GPU
        if self.registry is None or lora_id not in self.registry:
            return Tier.HOST
        return Tier.HOST if self.registry.host_resident(lora_id) else Tier.DISK

    def pcie_idle(self, now: float) -> bool:
        """Whether no host -> GPU copy is (planned to be) in flight at ``now``."""
        return self.pcie_busy_until <= now

    # -- clock -----------------------------------------------------------
    def advance(self, now: float) -> None:
        """Advance the store's clock (used to judge in-flight transfers
        when eviction is triggered by callers that carry no timestamp)."""
        self.clock = max(self.clock, now)

    # -- loading ---------------------------------------------------------
    def adapter_nbytes(self, lora_id: str, default: float) -> float:
        """Registry byte size when known, else the caller's default."""
        if self.registry is not None and lora_id in self.registry:
            return self.registry.get(lora_id).nbytes
        return default

    def request_load(self, lora_id: str, nbytes: float, now: float) -> TransferPlan:
        """Ensure ``lora_id`` is (being) loaded; idempotent.

        Returns the transfer plan governing when it becomes usable. A
        repeated request returns the existing plan without a new copy. The
        hit tier (GPU / HOST / DISK) is recorded in the event log.
        """
        self.advance(now)
        nbytes = self.adapter_nbytes(lora_id, nbytes)
        entry = self._entries.get(lora_id)
        if entry is not None:
            entry.last_used = now
            if entry.prefetched:
                entry.prefetched = False
                self.events.append(AdapterEvent(now, "prefetch_hit", 1.0))
            self.events.append(AdapterEvent(now, "load", float(Tier.GPU)))
            self._trace_load(now, lora_id, Tier.GPU, entry.plan)
            return entry.plan
        source = self.tier(lora_id)
        host_ready = now
        if self.registry is not None and lora_id in self.registry:
            try:
                host_ready = self.registry.ensure_host(lora_id, now)
            except MemoryError:
                # Host staging tier is full of pinned entries (or smaller
                # than this adapter): stream the read through a bounce
                # buffer instead — pay the disk leg without keeping a
                # host-side copy.
                host_ready = now + self.registry.host.staging_time(nbytes)
        self._make_room(lora_id, nbytes, now)
        plan = self._issue_transfer(nbytes, now, host_ready)
        self._entries[lora_id] = _GpuEntry(nbytes=nbytes, plan=plan, last_used=now)
        if self.registry is not None and lora_id in self.registry:
            self.registry.note_gpu_resident(lora_id, self.gpu_id)
        self.events.append(AdapterEvent(now, "load", float(source)))
        self._trace_load(now, lora_id, source, plan)
        return plan

    def _trace_load(self, now: float, lora_id: str, tier: Tier, plan) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.ADAPTER_LOAD, gpu_id=self.gpu_id,
                lora=lora_id, tier=tier.name.lower(),
                ready_in=max(0.0, plan.finish - now), nbytes=plan.nbytes,
            )

    # -- fault injection -------------------------------------------------
    def stall(self, now: float, extra: float) -> list[str]:
        """PCIe stall: push every unfinished transfer out by ``extra`` s.

        Models link-level interference (another tenant's DMA, a host NUMA
        hiccup). Returns the adapters whose plans moved, so callers can
        re-arm wakeups keyed on the old ready times.
        """
        if extra < 0:
            raise ValueError(f"stall must be nonnegative, got {extra}")
        self.advance(now)
        moved = []
        for lora_id, entry in self._entries.items():
            if not entry.plan.done_by(now):
                entry.plan = TransferPlan(
                    nbytes=entry.plan.nbytes,
                    start=entry.plan.start,
                    finish=entry.plan.finish + extra,
                )
                moved.append(lora_id)
        if moved:
            self.pcie_busy_until = max(self.pcie_busy_until, now) + extra
            self.events.append(AdapterEvent(now, "pcie", extra))
        return moved

    def fail_load(self, lora_id: str, now: float) -> bool:
        """Adapter-load failure: drop an entry so the copy must be reissued.

        Only unpinned entries can be dropped (pinned means some request in
        a working set still references the weights — the caller must
        displace those requests first). Returns whether the entry was
        dropped.
        """
        self.advance(now)
        entry = self._entries.get(lora_id)
        if entry is None or entry.refcount > 0:
            return False
        del self._entries[lora_id]
        if self.registry is not None and lora_id in self.registry:
            self.registry.note_gpu_evicted(lora_id, self.gpu_id)
        self.events.append(AdapterEvent(now, "evict", 1.0))
        return True

    def prefetch(self, lora_id: str, now: float, nbytes: "float | None" = None) -> bool:
        """Speculatively promote a HOST adapter to this GPU.

        Non-disruptive: succeeds only if the adapter fits in currently free
        budget (no eviction) — speculation must never displace demand state.
        Returns whether a copy was issued.
        """
        self.advance(now)
        if lora_id in self._entries:
            return False
        if nbytes is None:
            nbytes = self.adapter_nbytes(lora_id, 0.0)
        else:
            nbytes = self.adapter_nbytes(lora_id, nbytes)
        if nbytes <= 0:
            raise ValueError(
                f"prefetch of {lora_id!r} needs registry metadata or explicit nbytes"
            )
        if self.capacity_bytes is not None:
            external = self.external_used() if self.external_used else 0.0
            if self.used_bytes() + external + nbytes > self.capacity_bytes:
                return False
        host_ready = now
        if self.registry is not None and lora_id in self.registry:
            try:
                host_ready = self.registry.ensure_host(lora_id, now, prefetch=True)
            except MemoryError:
                return False  # speculation never evicts the host tier either
        plan = self._issue_transfer(nbytes, now, host_ready)
        self._entries[lora_id] = _GpuEntry(
            nbytes=nbytes, plan=plan, last_used=now, prefetched=True
        )
        if self.registry is not None and lora_id in self.registry:
            self.registry.note_gpu_resident(lora_id, self.gpu_id)
        self.events.append(AdapterEvent(now, "prefetch_issue", 1.0))
        return True

    def _issue_transfer(
        self, nbytes: float, now: float, host_ready: float
    ) -> TransferPlan:
        start = max(now, host_ready)
        if self.serialize_pcie:
            start = max(start, self.pcie_busy_until)
        copy_time = self.pcie.transfer_time(nbytes)
        finish = start + copy_time
        self.transfers += 1
        self.pcie_busy_until = max(self.pcie_busy_until, finish)
        self.events.append(AdapterEvent(start, "pcie", copy_time))
        return TransferPlan(nbytes=nbytes, start=now, finish=finish)

    # -- pinning ---------------------------------------------------------
    def acquire(self, lora_id: str, now: float) -> None:
        """Pin an adapter while a request using it is in the working set."""
        self.advance(now)
        entry = self._require(lora_id)
        entry.refcount += 1
        entry.last_used = now

    def release(self, lora_id: str) -> None:
        entry = self._require(lora_id)
        if entry.refcount <= 0:
            raise RuntimeError(f"release of unacquired LoRA model {lora_id!r}")
        entry.refcount -= 1

    def refcount(self, lora_id: str) -> int:
        return self._require(lora_id).refcount

    # -- admission & eviction -------------------------------------------
    def can_admit_adapter(self, lora_id: str, nbytes: float) -> bool:
        """Whether loading this adapter could succeed right now.

        Resident adapters are already accounted; otherwise the adapter's
        bytes must fit next to the external (KvCache) usage and the pinned
        adapters — unpinned ones count as reclaimable.
        """
        if lora_id in self._entries:
            return True
        if self.capacity_bytes is None:
            return True
        nbytes = self.adapter_nbytes(lora_id, nbytes)
        external = self.external_used() if self.external_used else 0.0
        return nbytes + external + self.pinned_bytes() <= self.capacity_bytes

    def reclaim(self, bytes_needed: float) -> bool:
        """Free budget for an external (KvCache) consumer of ``bytes_needed``.

        Evicts unpinned adapters LRU until the shared budget has room;
        returns False if pinned adapters make that impossible.
        """
        if self.capacity_bytes is None:
            return True
        external = self.external_used() if self.external_used else 0.0
        while self.used_bytes() + external + bytes_needed > self.capacity_bytes:
            if not self._evict_one(self.clock):
                return False
        return True

    def _make_room(self, lora_id: str, nbytes: float, now: float) -> None:
        if self.capacity_bytes is None:
            return
        if nbytes > self.capacity_bytes:
            raise MemoryError(
                f"adapter {lora_id!r} needs {nbytes:.0f} bytes but the "
                f"capacity is only {self.capacity_bytes:.0f} bytes; "
                f"it can never fit"
            )
        external = self.external_used() if self.external_used else 0.0
        while self.used_bytes() + external + nbytes > self.capacity_bytes:
            if not self._evict_one(now):
                raise MemoryError(
                    f"cannot fit {nbytes:.0f} bytes of LoRA weights for "
                    f"{lora_id!r}: {self.used_bytes():.0f} adapter bytes "
                    f"resident and all pinned or in flight"
                )

    def _evict_one(self, now: float) -> bool:
        """Evict the LRU unpinned, fully-loaded adapter (GPU -> HOST)."""
        victims = [
            (e.last_used, lid)
            for lid, e in self._entries.items()
            if e.refcount == 0 and e.plan.done_by(now)
        ]
        if not victims:
            return False
        _, victim = min(victims)
        del self._entries[victim]
        if self.registry is not None and victim in self.registry:
            self.registry.note_gpu_evicted(victim, self.gpu_id)
        self.num_evictions += 1
        self.events.append(AdapterEvent(now, "evict", 1.0))
        return True

    # -- metrics ---------------------------------------------------------
    def drain_events(self) -> list[AdapterEvent]:
        out = self.events
        self.events = []
        return out

    def _require(self, lora_id: str) -> _GpuEntry:
        try:
            return self._entries[lora_id]
        except KeyError:
            raise KeyError(f"LoRA model {lora_id!r} was never loaded") from None
