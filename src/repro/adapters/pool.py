"""Unified GPU memory pool: one byte budget shared by KvCache and adapters.

Punica sizes a standalone KvCache pool and (optionally) a separate LoRA
byte budget. S-LoRA's observation is that this split strands memory: at low
adapter diversity the adapter area idles while KvCache is starved, and vice
versa. :class:`UnifiedMemoryPool` carves **one** per-GPU byte budget that
both consumers draw from:

* the pool *is* a :class:`~repro.kvcache.pool.KvPool` (paged accounting
  is unchanged), whose admission and append are additionally gated on
  the shared budget;
* adapter weights live in a :class:`~repro.adapters.store.GpuAdapterStore`
  whose budget is the same number, with KvCache usage counted as external;
* under KvCache pressure, unpinned adapters are evicted (demoted to the
  HOST tier) to free bytes — adapters pinned by in-flight requests never
  are, and KvCache admission that would require evicting a pinned adapter
  simply fails (the request queues or is routed elsewhere).

The invariant — ``kv_used_bytes + adapter_used_bytes <= capacity_bytes``
at every point of any load/evict/prefetch/append sequence — is what the
property tests exercise.
"""

from __future__ import annotations

from repro.adapters.registry import AdapterRegistry
from repro.adapters.store import GpuAdapterStore
from repro.hw.pcie import PCIE_GEN4_X16, PcieSpec
from repro.kvcache.pool import KvPool


class UnifiedMemoryPool(KvPool):
    """Shared KvCache + adapter byte budget for one GPU.

    A backend built with ``unified_pool=`` uses it as its ``kv``, through
    the :class:`KvPool` method names; adapter residency is
    :attr:`adapters`, the store an engine built on that backend takes as
    its ``loader``.
    """

    def __init__(
        self,
        capacity_bytes: float,
        page_size: int,
        bytes_per_token: int,
        pcie: PcieSpec = PCIE_GEN4_X16,
        registry: "AdapterRegistry | None" = None,
        gpu_id: str = "gpu0",
        serialize_pcie: bool = True,
    ):
        super().__init__(capacity_bytes, page_size, bytes_per_token)
        self.capacity_bytes = float(capacity_bytes)
        self.page_bytes = page_size * bytes_per_token
        self.gpu_id = gpu_id
        self.adapters = GpuAdapterStore(
            pcie=pcie,
            capacity_bytes=capacity_bytes,
            registry=registry,
            gpu_id=gpu_id,
            serialize_pcie=serialize_pcie,
            external_used=self.kv_used_bytes,
        )

    # -- shared accounting ----------------------------------------------
    def kv_used_bytes(self) -> float:
        return float(self.used_bytes())

    def adapter_used_bytes(self) -> float:
        return self.adapters.used_bytes()

    def total_used_bytes(self) -> float:
        return self.kv_used_bytes() + self.adapters.used_bytes()

    def free_bytes(self) -> float:
        return self.capacity_bytes - self.total_used_bytes()

    def check_invariant(self) -> None:
        """Raise if the shared budget is overcommitted (test hook)."""
        total = self.total_used_bytes()
        if total > self.capacity_bytes + 1e-6:
            raise RuntimeError(
                f"{self.gpu_id}: unified pool overcommitted — "
                f"{self.kv_used_bytes():.0f} KvCache + "
                f"{self.adapters.used_bytes():.0f} adapter bytes exceed "
                f"the {self.capacity_bytes:.0f}-byte budget"
            )

    # -- the KvPool surface, gated on the shared budget -------------------
    def _fits(self, needed: float) -> bool:
        """Whether ``needed`` more KvCache bytes fit beside the pinned
        adapters (unpinned ones are demoted on demand)."""
        return (
            self.kv_used_bytes() + needed + self.adapters.pinned_bytes()
            <= self.capacity_bytes
        )

    def _pages_bytes(self, tokens: int) -> float:
        return float(-(-tokens // self.page_size) * self.page_bytes)

    def _append_bytes(self, seq_id: str) -> float:
        """Bytes one more token needs: a page's worth when the tail is full."""
        if self.seq_len(seq_id) % self.page_size == 0:
            return float(self.page_bytes)
        return 0.0

    def can_admit(self, prompt_len: int) -> bool:
        return super().can_admit(prompt_len) and self._fits(
            self._pages_bytes(prompt_len)
        )

    def allocate(self, seq_id: str, seq_len: int) -> list[int]:
        needed = self._pages_bytes(seq_len)
        if not self.adapters.reclaim(needed):
            raise MemoryError(
                f"{self.gpu_id}: cannot free {needed:.0f} bytes for KvCache "
                f"admission of {seq_id!r}; every adapter is pinned"
            )
        return super().allocate(seq_id, seq_len)

    def import_sequence(self, seq_id: str, seq_len: int) -> list[int]:
        return self.allocate(seq_id, seq_len)

    def can_append(self, seq_id: str, n: int = 1) -> bool:
        if n > 1:
            # Conservative under the shared byte budget: each appended
            # token consumes at most one fresh page.
            return self.free_tokens >= n * self.page_size
        if not super().can_append(seq_id):
            return False
        needed = self._append_bytes(seq_id)
        return not needed or self._fits(needed)

    def append(self, seq_id: str, n: int = 1) -> list[int]:
        pages: list[int] = []
        for _ in range(n):
            needed = self._append_bytes(seq_id)
            if needed and not self.adapters.reclaim(needed):
                raise MemoryError(
                    f"{self.gpu_id}: cannot free a KvCache page for "
                    f"{seq_id!r}; every adapter is pinned"
                )
            pages += super().append(seq_id)
        return pages

    def append_many(self, seq_ids) -> None:
        for seq_id in seq_ids:
            self.append(seq_id)

    @property
    def free_tokens(self) -> int:
        """Guaranteed-admittable tokens under both page and byte limits.

        Evictable (unpinned) adapter bytes count as free — the pool will
        demote them on demand.
        """
        pinned = self.adapters.pinned_bytes()
        budget_free = self.capacity_bytes - self.kv_used_bytes() - pinned
        by_bytes = max(0, int(budget_free // self.bytes_per_token))
        return min(super().free_tokens, by_bytes)

    @property
    def free_pages(self) -> int:
        """Pages that fit beside every resident or in-flight adapter: no
        append into them demotes one, unlike :attr:`free_tokens`."""
        return min(self.allocator.free_pages, int(self.free_bytes() // self.page_bytes))
