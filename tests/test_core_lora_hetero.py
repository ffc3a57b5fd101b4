"""Tests for heterogeneous-rank LoRA stacking (zero-padded SGMV)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchEntry, plan_batch
from repro.core.lora import LoraRegistry, LoraSlab, random_lora_weights
from repro.core.ops import add_lora_sgmv
from repro.core.segments import segments_from_sizes
from repro.utils.rng import new_rng

PROJ_DIMS = {
    "q": (32, 32), "k": (32, 32), "v": (32, 32), "o": (32, 32),
    "gate": (32, 88), "up": (32, 88), "down": (88, 32),
}


def make_registry(ranks):
    reg = LoraRegistry()
    for i, r in enumerate(ranks):
        reg.register(
            random_lora_weights(f"m{i}", 1, PROJ_DIMS, rank=r, seed=200 + i)
        )
    return reg


class TestStackPadded:
    def test_shapes_padded_to_max_rank(self):
        reg = make_registry([4, 8, 2])
        wa, wb = reg.stack_padded(["m0", "m1", "m2"], 0, "q")
        assert wa.shape == (3, 32, 8)
        assert wb.shape == (3, 8, 32)

    def test_padding_is_exact(self):
        # Zero-padding must leave each model's A @ B delta unchanged.
        reg = make_registry([4, 8])
        wa, wb = reg.stack_padded(["m0", "m1"], 0, "q")
        for i, mid in enumerate(["m0", "m1"]):
            original = reg.get(mid).layers[0]["q"].delta()
            np.testing.assert_allclose(wa[i] @ wb[i], original, rtol=1e-12)

    def test_sgmv_with_mixed_ranks_matches_per_model(self):
        reg = make_registry([2, 8, 4])
        ids = ["m0", "m1", "m2"]
        seg = segments_from_sizes([2, 1, 3])
        rng = new_rng(0)
        x = rng.standard_normal((6, 32))
        wa, wb = reg.stack_padded(ids, 0, "q")
        y = np.zeros((6, 32))
        add_lora_sgmv(y, x, wa, wb, seg)
        for i, mid in enumerate(ids):
            lo, hi = int(seg[i]), int(seg[i + 1])
            expected = x[lo:hi] @ reg.get(mid).layers[0]["q"].delta()
            np.testing.assert_allclose(y[lo:hi], expected, rtol=1e-5, atol=1e-9)

    def test_uniform_ranks_equal_strict_stack(self):
        reg = make_registry([4, 4])
        wa_p, wb_p = reg.stack_padded(["m0", "m1"], 0, "gate")
        wa_s, wb_s = reg.stack(["m0", "m1"], 0, "gate")
        np.testing.assert_array_equal(wa_p, wa_s)
        np.testing.assert_array_equal(wb_p, wb_s)

    def test_strict_stack_still_rejects_mixed(self):
        reg = make_registry([4, 8])
        with pytest.raises(ValueError, match="stack_padded"):
            reg.stack(["m0", "m1"], 0, "q")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_registry([4]).stack_padded([], 0, "q")

    @given(
        st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=5),
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_padded_equivalence_property(self, ranks, seed):
        reg = make_registry(ranks)
        ids = [f"m{i}" for i in range(len(ranks))]
        sizes = [1 + (seed + i) % 3 for i in range(len(ranks))]
        seg = segments_from_sizes(sizes)
        rng = new_rng(seed)
        x = rng.standard_normal((int(seg[-1]), 32))
        wa, wb = reg.stack_padded(ids, 0, "o")
        y = np.zeros((x.shape[0], 32))
        add_lora_sgmv(y, x, wa, wb, seg)
        for i, mid in enumerate(ids):
            lo, hi = int(seg[i]), int(seg[i + 1])
            expected = x[lo:hi] @ reg.get(mid).layers[0]["o"].delta()
            np.testing.assert_allclose(y[lo:hi], expected, rtol=1e-5, atol=1e-9)


class TestStackPaddedDtype:
    """A stack is as wide as its widest adapter, whatever the batch order."""

    def make(self):
        reg = LoraRegistry()
        reg.register(random_lora_weights("f32", 1, PROJ_DIMS, 4, seed=1, dtype=np.float32))
        reg.register(random_lora_weights("f64", 1, PROJ_DIMS, 4, seed=2, dtype=np.float64))
        return reg

    def test_result_does_not_depend_on_batch_order(self):
        reg = self.make()
        wa_a, wb_a = reg.stack_padded(["f32", "f64"], 0, "q")
        wa_b, wb_b = reg.stack_padded(["f64", "f32"], 0, "q")
        assert wa_a.dtype == wa_b.dtype == wb_a.dtype == wb_b.dtype == np.float64
        np.testing.assert_allclose(wb_a[1], wb_b[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(wa_a[1], wa_b[0], rtol=0, atol=1e-15)
        # ... and the float64 adapter is the registry's, not a rounding of it.
        np.testing.assert_array_equal(wb_a[1], reg.get("f64").layers[0]["q"].wb)

    def test_single_dtype_stack_keeps_it(self):
        wa, wb = self.make().stack_padded(["f32", "f32"], 0, "q")
        assert wa.dtype == wb.dtype == np.float32


def plan_of(ids):
    """A real plan whose SGMV segments are the runs of ``ids`` (prefills
    keep their order, so an adapter may recur in non-adjacent segments)."""
    return plan_batch(
        [BatchEntry(f"r{i}", lora_id, 1, is_prefill=True) for i, lora_id in enumerate(ids)]
    )


def count_loads(reg):
    """Wrap ``reg.stack_padded`` to record the adapter ids it is asked for."""
    loads = []
    stack_padded = reg.stack_padded

    def counting(model_ids, layer, proj):
        loads.extend(model_ids)
        return stack_padded(model_ids, layer, proj)

    reg.stack_padded = counting
    return loads


def assert_gathers_equal_stack(slab, reg, plan):
    ids = list(plan.segment_lora_ids)
    for proj in ("q", "gate", "down"):
        wa, wb = slab.gather(plan, 0, proj)
        ref_a, ref_b = LoraRegistry.stack_padded(reg, ids, 0, proj)
        assert wa.shape == ref_a.shape and wb.shape == ref_b.shape
        np.testing.assert_array_equal(wa, ref_a)
        np.testing.assert_array_equal(wb, ref_b)


@st.composite
def slab_histories(draw):
    """Adapter ranks, and a sequence of plans most of which fit 2-4 slots
    out of a larger pool (so slots are reused) and a few of which do not."""
    ranks = draw(st.lists(st.sampled_from([1, 2, 4, 8, 16]), min_size=3, max_size=7))
    pool = list(range(len(ranks)))
    cap = draw(st.integers(2, 4))
    plans = []
    for _ in range(draw(st.integers(1, 10))):
        width = len(pool) if draw(st.integers(0, 7)) == 0 else min(cap, len(pool))
        subset = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=width, unique=True))
        plans.append(draw(st.lists(st.sampled_from(subset), min_size=1, max_size=8)))
    return ranks, plans


class TestLoraSlab:
    """The resident slab returns what per-step stacking would have."""

    @given(slab_histories())
    @settings(max_examples=60, deadline=None)
    def test_gather_equals_stack_padded_for_every_plan(self, history):
        ranks, plans = history
        reg = make_registry(ranks)
        slab = LoraSlab(reg)
        largest = 0
        for indices in plans:
            plan = plan_of([f"m{i}" for i in indices])
            assert_gathers_equal_stack(slab, reg, plan)
            largest = max(largest, len(set(plan.segment_lora_ids)))
            # Bounded by the working set: never more slots than the
            # largest plan needed, and this plan's adapters all resident.
            assert slab.num_slots == largest
            assert set(plan.segment_lora_ids) <= set(slab.resident_ids)

    def test_nothing_is_loaded_before_first_use(self):
        reg = make_registry([4, 8])
        loads = count_loads(reg)
        slab = LoraSlab(reg)
        assert slab.num_slots == 0 and slab.resident_ids == [] and loads == []

    def test_one_load_per_adapter_layer_and_projection(self):
        reg = make_registry([4, 8])
        loads = count_loads(reg)
        slab = LoraSlab(reg)
        plan = plan_of(["m0", "m1", "m0"])
        for _ in range(3):
            for proj in PROJ_DIMS:
                slab.gather(plan, 0, proj)
        assert sorted(loads) == ["m0"] * 7 + ["m1"] * 7
        # A new plan over resident adapters gathers without loading.
        assert_gathers_equal_stack(slab, reg, plan_of(["m1", "m0"]))
        assert len(loads) == 14

    def test_lower_rank_tenant_sees_zero_padding_after_rank16_vacates(self):
        reg = make_registry([16, 4, 8])
        slab = LoraSlab(reg)
        assert_gathers_equal_stack(slab, reg, plan_of(["m0"]))
        assert_gathers_equal_stack(slab, reg, plan_of(["m1"]))  # takes m0's slot
        assert slab.num_slots == 1 and slab.resident_ids == ["m1"]
        wide = plan_of(["m1", "m2"])  # padded to rank 8: columns 4..8 of m1 are zero
        wa, wb = slab.gather(wide, 0, "q")
        assert wa.shape == (2, 32, 8)
        assert not wa[0, :, 4:].any() and not wb[0, 4:].any()
        assert_gathers_equal_stack(slab, reg, wide)

    def test_evicted_adapter_is_reloaded(self):
        reg = make_registry([4, 4, 4])
        loads = count_loads(reg)
        slab = LoraSlab(reg)
        for ids in (["m0", "m1"], ["m2", "m1"], ["m0", "m2"]):
            assert_gathers_equal_stack(slab, reg, plan_of(ids))
        assert slab.num_slots == 2
        # m0 was the least recently used when m2 arrived, then came back.
        assert loads.count("m0") == 14 and loads.count("m1") == 7 and loads.count("m2") == 7

    def test_plan_wider_than_capacity_grows_and_evicts_nothing_it_needs(self):
        reg = make_registry([2, 4, 8, 16, 1])
        loads = count_loads(reg)
        slab = LoraSlab(reg)
        assert_gathers_equal_stack(slab, reg, plan_of(["m0", "m1"]))
        assert_gathers_equal_stack(slab, reg, plan_of(["m1", "m2", "m3", "m4", "m0"]))
        assert slab.num_slots == 5
        assert loads.count("m0") == 7 and loads.count("m1") == 7

    def test_finished_batch_pins_nothing(self):
        # Once its requests are gone a plan holds no slot: an equally wide
        # batch of other tenants replaces every adapter without growth.
        reg = make_registry([4, 4, 4, 4])
        slab = LoraSlab(reg)
        assert_gathers_equal_stack(slab, reg, plan_of(["m0", "m1"]))
        assert_gathers_equal_stack(slab, reg, plan_of(["m2", "m3"]))
        assert slab.num_slots == 2 and sorted(slab.resident_ids) == ["m2", "m3"]

    def test_unknown_adapter_fails_without_disturbing_residents(self):
        reg = make_registry([4, 8])
        slab = LoraSlab(reg)
        good = plan_of(["m0", "m1"])
        assert_gathers_equal_stack(slab, reg, good)
        with pytest.raises(KeyError, match="unknown LoRA model"):
            slab.gather(plan_of(["m0", "nope"]), 0, "q")
        assert sorted(slab.resident_ids) == ["m0", "m1"]
        assert_gathers_equal_stack(slab, reg, good)

    def test_slab_widens_for_a_later_float64_adapter(self):
        reg = TestStackPaddedDtype().make()
        slab = LoraSlab(reg)
        assert_gathers_equal_stack(slab, reg, plan_of(["f32"]))
        assert slab.gather(plan_of(["f32"]), 0, "q")[0].dtype == np.float32
        for ids in (["f32", "f64"], ["f64", "f32"]):
            plan = plan_of(ids)
            assert_gathers_equal_stack(slab, reg, plan)
            assert slab.gather(plan, 0, "q")[1].dtype == np.float64

    def test_mismatched_adapter_geometry_rejected(self):
        reg = make_registry([4])
        dims = dict(PROJ_DIMS, q=(16, 32))
        reg.register(random_lora_weights("narrow", 1, dims, rank=4, seed=3))
        reg.register(random_lora_weights("deep", 2, PROJ_DIMS, rank=4, seed=4))
        slab = LoraSlab(reg)
        slab.gather(plan_of(["m0"]), 0, "q")
        with pytest.raises(ValueError, match="share projection dims"):
            slab.gather(plan_of(["m0", "narrow"]), 0, "q")
        with pytest.raises(ValueError, match="layers"):
            slab.gather(plan_of(["m0", "deep"]), 0, "q")
        assert_gathers_equal_stack(slab, reg, plan_of(["m0"]))
