"""Tests for the per-GPU adapter store (GPU tier of the residency ladder),
which is also the engine's on-demand LoRA loader (paper §5.2)."""

import pytest

from repro.adapters.registry import AdapterRegistry, HostTierSpec, Tier
from repro.adapters.store import GpuAdapterStore
from repro.hw.pcie import PCIE_GEN4_X16
from repro.utils.units import MB, MS


def make_registry(*ids, nbytes=40 * MB, host=None):
    reg = AdapterRegistry(host=host or HostTierSpec())
    for lid in ids:
        reg.register(lid, rank=16, nbytes=nbytes)
    return reg


class TestBareStore:
    """No registry, no pool: every adapter host-resident (the §5.2 loader)."""

    def test_load_becomes_ready_after_transfer(self):
        store = GpuAdapterStore()
        plan = store.request_load("m0", 40 * MB, now=0.0)
        assert store.is_resident("m0")
        assert not store.is_ready("m0", now=0.0)
        assert store.inflight_models(0.0) == ["m0"]
        assert store.is_ready("m0", now=plan.finish)
        assert store.inflight_models(plan.finish) == []
        # §5.2: whole-model load ~2ms.
        assert 1 * MS < plan.duration < 3 * MS

    def test_idempotent_load(self):
        store = GpuAdapterStore()
        p1 = store.request_load("m0", 40 * MB, now=0.0)
        p2 = store.request_load("m0", 40 * MB, now=1.0)
        assert p1 is p2  # no second copy issued

    def test_ready_time(self):
        store = GpuAdapterStore()
        plan = store.request_load("m0", 10 * MB, now=5.0)
        assert store.ready_time("m0") == plan.finish

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            GpuAdapterStore().ready_time("ghost")

    def test_acquire_release(self):
        store = GpuAdapterStore()
        store.request_load("m0", 1 * MB, now=0.0)
        store.acquire("m0", now=0.0)
        store.release("m0")
        with pytest.raises(RuntimeError):
            store.release("m0")

    def test_acquire_unloaded_rejected(self):
        with pytest.raises(KeyError):
            GpuAdapterStore().acquire("ghost", now=0.0)

    def test_pinned_models_never_evicted(self):
        store = GpuAdapterStore(capacity_bytes=100 * MB)
        store.request_load("pinned", 60 * MB, now=0.0)
        store.acquire("pinned", now=0.0)
        with pytest.raises(MemoryError):
            store.request_load("other", 60 * MB, now=10.0)

    def test_in_flight_transfers_not_evicted(self):
        store = GpuAdapterStore(capacity_bytes=100 * MB)
        store.request_load("inflight", 60 * MB, now=0.0)
        # At now=0 the copy hasn't finished; it cannot be the LRU victim.
        with pytest.raises(MemoryError):
            store.request_load("other", 60 * MB, now=0.0)

    def test_no_budget_never_evicts(self):
        store = GpuAdapterStore()
        for i in range(20):
            store.request_load(f"m{i}", 100 * MB, now=float(i))
        assert len(store.resident_models()) == 20

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            GpuAdapterStore(capacity_bytes=0)

    def test_release_unpins_for_eviction(self):
        # The refcount-pinned path end to end: pinned blocks eviction,
        # releasing the last reference makes the adapter evictable again.
        store = GpuAdapterStore(capacity_bytes=100 * MB)
        store.request_load("pinned", 60 * MB, now=0.0)
        store.acquire("pinned", now=0.0)
        store.acquire("pinned", now=1.0)
        store.release("pinned")  # still pinned by the first reference
        with pytest.raises(MemoryError):
            store.request_load("other", 60 * MB, now=10.0)
        store.release("pinned")
        store.request_load("other", 60 * MB, now=20.0)
        assert store.is_resident("other")
        assert not store.is_resident("pinned")
        assert store.num_evictions == 1

    def test_layer_load_near_paper_50us(self):
        # §5.2 quotes ~50us/layer and ~2ms/model; at rank 16 a 7B layer's
        # LoRA is ~2.5 MB, which PCIe Gen4 x16 moves in ~100us — the paper's
        # two numbers are mutually inconsistent (32 x 50us = 1.6ms), so we
        # accept the same order of magnitude (see EXPERIMENTS.md).
        from repro.models.config import LLAMA2_7B
        layer_bytes = LLAMA2_7B.lora_bytes(16) / LLAMA2_7B.num_layers
        t = PCIE_GEN4_X16.transfer_time(layer_bytes)
        assert 30e-6 < t < 200e-6


class TestTieredLoading:
    def test_disk_load_chains_staging_and_pcie(self):
        reg = make_registry("a")
        store = GpuAdapterStore(registry=reg)
        plan = store.request_load("a", 40 * MB, now=1.0)
        expected = (
            1.0 + reg.host.staging_time(40 * MB)
            + PCIE_GEN4_X16.transfer_time(40 * MB)
        )
        assert plan.finish == pytest.approx(expected)

    def test_host_load_pays_only_pcie(self):
        reg = make_registry("a")
        reg.ensure_host("a", now=0.0)
        store = GpuAdapterStore(registry=reg)
        now = reg.host_ready("a") + 1.0  # staging settled
        plan = store.request_load("a", 40 * MB, now=now)
        assert plan.finish == pytest.approx(
            now + PCIE_GEN4_X16.transfer_time(40 * MB)
        )

    def test_registry_overrides_caller_nbytes(self):
        reg = make_registry("a", nbytes=80 * MB)
        store = GpuAdapterStore(registry=reg)
        store.request_load("a", 1 * MB, now=0.0)  # caller guesses wrong
        assert store.used_bytes() == 80 * MB

    def test_load_notes_gpu_residency(self):
        reg = make_registry("a")
        store = GpuAdapterStore(registry=reg, gpu_id="gpuX")
        store.request_load("a", 40 * MB, now=0.0)
        assert reg.tier("a", gpu_id="gpuX") is Tier.GPU

    def test_hit_tier_events(self):
        reg = make_registry("a", "b")
        reg.ensure_host("b", now=-10.0)
        store = GpuAdapterStore(registry=reg)
        store.request_load("a", 40 * MB, now=0.0)   # DISK source
        store.request_load("b", 40 * MB, now=0.0)   # HOST source
        store.request_load("a", 40 * MB, now=50.0)  # resident: GPU hit
        loads = [e for e in store.drain_events() if e.kind == "load"]
        assert [int(e.value) for e in loads] == [Tier.DISK, Tier.HOST, Tier.GPU]

    def test_streams_through_when_host_tier_pinned_full(self):
        host = HostTierSpec(capacity_bytes=40 * MB)
        reg = make_registry("a", "b", host=host)
        reg.ensure_host("a", now=0.0)
        reg.note_gpu_resident("a", "other-gpu")  # pins the only host slot
        store = GpuAdapterStore(registry=reg)
        plan = store.request_load("b", 40 * MB, now=100.0)
        # Paid the disk leg via a bounce buffer; no host slot taken.
        assert plan.finish == pytest.approx(
            100.0 + reg.host.staging_time(40 * MB)
            + PCIE_GEN4_X16.transfer_time(40 * MB)
        )
        assert not reg.host_resident("b")


class TestPrefetch:
    def test_prefetch_into_free_bytes(self):
        reg = make_registry("a")
        reg.ensure_host("a", now=-10.0)
        store = GpuAdapterStore(registry=reg, capacity_bytes=100 * MB)
        assert store.prefetch("a", now=0.0)
        assert store.is_resident("a")
        issues = [e for e in store.drain_events() if e.kind == "prefetch_issue"]
        assert len(issues) == 1

    def test_prefetch_never_evicts(self):
        reg = make_registry("old", "new", nbytes=60 * MB)
        store = GpuAdapterStore(registry=reg, capacity_bytes=100 * MB)
        store.request_load("old", 60 * MB, now=0.0)
        assert not store.prefetch("new", now=100.0)  # would need eviction
        assert store.is_resident("old")

    def test_prefetch_resident_noop(self):
        reg = make_registry("a")
        store = GpuAdapterStore(registry=reg)
        store.request_load("a", 40 * MB, now=0.0)
        assert not store.prefetch("a", now=1.0)

    def test_demand_hit_on_prefetched_entry_counts(self):
        reg = make_registry("a")
        reg.ensure_host("a", now=-10.0)
        store = GpuAdapterStore(registry=reg, capacity_bytes=100 * MB)
        store.prefetch("a", now=0.0)
        store.request_load("a", 40 * MB, now=1.0)
        store.request_load("a", 40 * MB, now=2.0)  # second hit doesn't recount
        hits = [e for e in store.drain_events() if e.kind == "prefetch_hit"]
        assert len(hits) == 1

    def test_prefetch_without_metadata_rejected(self):
        store = GpuAdapterStore()
        with pytest.raises(ValueError):
            store.prefetch("ghost", now=0.0)


class TestSharedBudget:
    def test_external_usage_counts_against_capacity(self):
        reg = make_registry("a", nbytes=60 * MB)
        store = GpuAdapterStore(
            registry=reg, capacity_bytes=100 * MB, external_used=lambda: 50 * MB
        )
        assert not store.can_admit_adapter("a", 60 * MB)
        with pytest.raises(MemoryError):
            store.request_load("a", 60 * MB, now=0.0)

    def test_reclaim_evicts_unpinned(self):
        reg = make_registry("a", "b", nbytes=30 * MB)
        store = GpuAdapterStore(registry=reg, capacity_bytes=100 * MB)
        store.request_load("a", 30 * MB, now=0.0)
        store.request_load("b", 30 * MB, now=1.0)
        store.advance(10.0)  # both transfers settled
        assert store.reclaim(80 * MB)
        assert store.used_bytes() <= 20 * MB

    def test_reclaim_fails_on_pinned(self):
        reg = make_registry("a", nbytes=30 * MB)
        store = GpuAdapterStore(registry=reg, capacity_bytes=100 * MB)
        store.request_load("a", 30 * MB, now=0.0)
        store.acquire("a", now=0.0)
        store.advance(10.0)
        assert not store.reclaim(90 * MB)
        assert store.is_resident("a")

    @pytest.mark.parametrize("with_registry", [True, False])
    def test_lru_eviction_demotes_to_host_not_disk(self, with_registry):
        reg = make_registry("old", "new", nbytes=60 * MB) if with_registry else None
        store = GpuAdapterStore(registry=reg, capacity_bytes=100 * MB)
        store.request_load("old", 60 * MB, now=0.0)
        store.request_load("new", 60 * MB, now=100.0)  # evicts "old"
        assert not store.is_resident("old")
        assert store.is_resident("new")
        assert (reg or store).tier("old") is Tier.HOST  # host copy survives


class TestSerializedPcie:
    def test_transfers_queue_on_the_link(self):
        store = GpuAdapterStore(serialize_pcie=True)
        p1 = store.request_load("a", 40 * MB, now=0.0)
        p2 = store.request_load("b", 40 * MB, now=0.0)
        assert p2.finish == pytest.approx(
            p1.finish + PCIE_GEN4_X16.transfer_time(40 * MB)
        )

    def test_pcie_idle(self):
        store = GpuAdapterStore()
        assert store.pcie_idle(0.0)
        plan = store.request_load("a", 40 * MB, now=0.0)
        assert not store.pcie_idle(0.0)
        assert store.pcie_idle(plan.finish)


class TestOversizedAdapter:
    @pytest.mark.parametrize("small, big", [(10 * MB, 200 * MB), (40 * MB, 150 * MB)])
    def test_clear_error_without_needless_eviction(self, small, big):
        store = GpuAdapterStore(capacity_bytes=100 * MB)
        store.request_load("small", small, now=0.0)
        with pytest.raises(MemoryError, match="never fit"):
            store.request_load("big", big, now=100.0)
        # The error came before any eviction, not after draining the cache.
        assert store.is_resident("small")
        assert store.num_evictions == 0
