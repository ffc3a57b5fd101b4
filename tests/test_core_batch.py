"""Tests for BatchLen and batch planning (paper §5/§6 rules)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.batch import (
    BatchEntry,
    BatchLen,
    BatchPlan,
    plan_batch,
    plan_decode_batch,
)


def prefill(rid, lora, tokens):
    return BatchEntry(request_id=rid, lora_id=lora, num_tokens=tokens, is_prefill=True)


def decode(rid, lora):
    return BatchEntry(request_id=rid, lora_id=lora, num_tokens=1, is_prefill=False)


class TestBatchEntry:
    def test_decode_must_be_one_token(self):
        with pytest.raises(ValueError):
            BatchEntry("r", "l", 2, is_prefill=False)

    def test_positive_tokens(self):
        with pytest.raises(ValueError):
            BatchEntry("r", "l", 0, is_prefill=True)


class TestBatchLen:
    def test_prefill_lengths(self):
        bl = BatchLen(prefill_starts=(0, 5), num_prefill_tokens=9, num_decode=3)
        assert bl.prefill_lengths() == [5, 4]
        assert bl.total_tokens == 12
        assert bl.num_prefill == 2

    def test_no_prefill(self):
        bl = BatchLen(prefill_starts=(), num_prefill_tokens=0, num_decode=8)
        assert bl.total_tokens == 8

    def test_first_start_must_be_zero(self):
        with pytest.raises(ValueError):
            BatchLen(prefill_starts=(1,), num_prefill_tokens=4, num_decode=0)

    def test_inconsistent_tokens(self):
        with pytest.raises(ValueError):
            BatchLen(prefill_starts=(), num_prefill_tokens=3, num_decode=0)


class TestPlanBatch:
    def test_prefill_first_decode_after(self):
        plan = plan_batch([decode("d1", "a"), prefill("p1", "b", 4), decode("d2", "a")])
        kinds = [e.is_prefill for e in plan.entries]
        assert kinds == [True, False, False]
        assert plan.batchlen.num_prefill_tokens == 4
        assert plan.batchlen.num_decode == 2

    def test_decodes_grouped_by_lora(self):
        plan = plan_batch([decode("1", "a"), decode("2", "b"), decode("3", "a")])
        ids = [e.lora_id for e in plan.entries]
        assert ids == ["a", "a", "b"]

    def test_prefill_tail_merges_with_decode_head(self):
        # Paper §6: decode group matching the last prefill's LoRA goes first
        # so the two share one SGMV segment.
        plan = plan_batch(
            [prefill("p", "m2", 3), decode("1", "m1"), decode("2", "m2"), decode("3", "m1")]
        )
        assert [e.lora_id for e in plan.entries] == ["m2", "m2", "m1", "m1"]
        assert plan.seg.tolist() == [0, 4, 6]
        assert plan.segment_lora_ids == ("m2", "m1")

    def test_segments_token_level(self):
        plan = plan_batch([prefill("p", "a", 5), decode("1", "b")])
        assert plan.total_tokens == 6
        assert plan.seg.tolist() == [0, 5, 6]

    def test_batch_size_counts_requests(self):
        plan = plan_batch([prefill("p", "a", 5), decode("1", "b"), decode("2", "b")])
        assert plan.batch_size == 3

    def test_fcfs_within_lora_group(self):
        plan = plan_batch([decode("1", "a"), decode("2", "a"), decode("3", "a")])
        assert [e.request_id for e in plan.entries] == ["1", "2", "3"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plan_batch([])

    def test_identical_workload_single_segment(self):
        plan = plan_batch([decode(str(i), "only") for i in range(8)])
        assert plan.num_lora_segments == 1
        assert plan.seg.tolist() == [0, 8]

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans(), st.integers(1, 6)),
            min_size=1,
            max_size=20,
        )
    )
    def test_plan_invariants(self, raw):
        entries = []
        for i, (lora, is_pref, ntok) in enumerate(raw):
            entries.append(
                BatchEntry(
                    request_id=str(i),
                    lora_id=lora,
                    num_tokens=ntok if is_pref else 1,
                    is_prefill=is_pref,
                )
            )
        plan = plan_batch(entries)
        # Same multiset of requests.
        assert sorted(e.request_id for e in plan.entries) == sorted(
            e.request_id for e in entries
        )
        # Tokens add up and segments cover them exactly.
        assert plan.seg[-1] == plan.total_tokens
        assert plan.total_tokens == sum(e.num_tokens for e in entries)
        # Prefills strictly precede decodes.
        flags = [e.is_prefill for e in plan.entries]
        assert flags == sorted(flags, reverse=True)
        # Adjacent segments always have different LoRA ids.
        for a, b in zip(plan.segment_lora_ids, plan.segment_lora_ids[1:]):
            assert a != b
        # The consumer-shaped fields restate entries and seg, as plain ints.
        prefills = [e for e in plan.entries if e.is_prefill]
        assert plan.prefill_lens == tuple(e.num_tokens for e in prefills)
        assert plan.decode_entries() == tuple(
            e for e in plan.entries if not e.is_prefill
        )
        assert plan.decode_ids == tuple(e.request_id for e in plan.decode_entries())
        assert plan.segment_sizes == tuple(np.diff(plan.seg).tolist())
        assert all(type(n) is int for n in plan.segment_sizes + plan.prefill_lens)

    def test_plan_is_immutable_plain_data(self):
        plan = plan_batch([prefill("p", "a", 3), decode("1", "b")])
        for f in dataclasses.fields(plan):
            assert isinstance(getattr(plan, f.name), (tuple, BatchLen, np.ndarray))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, f.name, None)


class TestPlanDecodeBatch:
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=24))
    def test_equals_plan_batch_field_for_field(self, loras):
        entries = [decode(str(i), lora) for i, lora in enumerate(loras)]
        fast, ref = plan_decode_batch(entries), plan_batch(entries)
        for f in dataclasses.fields(BatchPlan):
            a, b = getattr(fast, f.name), getattr(ref, f.name)
            if f.name == "seg":
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
            else:
                assert a == b
        assert all(type(n) is int for n in fast.segment_sizes)

    def test_rejects_prefill_and_empty(self):
        with pytest.raises(ValueError):
            plan_decode_batch([decode("1", "a"), prefill("p", "a", 2)])
        with pytest.raises(ValueError):
            plan_decode_batch([])
