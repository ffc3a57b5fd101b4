"""Tests for BatchLen and batch planning (paper §5/§6 rules)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.core.batch import (
    ArmedBatch,
    BatchEntry,
    BatchLen,
    BatchPlan,
    plan_batch,
    plan_grouped,
)
from repro.core.segments import segments_from_lora_ids


def prefill(rid, lora, tokens):
    return BatchEntry(request_id=rid, lora_id=lora, num_tokens=tokens, is_prefill=True)


def decode(rid, lora):
    return BatchEntry(request_id=rid, lora_id=lora, num_tokens=1, is_prefill=False)


def reference_plan_batch(entries):
    """The token-level planner ``plan_batch`` was until PR 24, kept as the
    oracle: expand the ordered batch to one LoRA id per *token*, run-length
    scan that back into segments, ``np.diff`` the result. (Its one edit:
    the run ids are no longer ``str()``-coerced — that was the bug.)"""
    if not entries:
        raise ValueError("cannot plan an empty batch")
    prefills = [e for e in entries if e.is_prefill]
    decodes = [e for e in entries if not e.is_prefill]
    order = {}
    for e in decodes:
        order.setdefault(e.lora_id, []).append(e)
    group_ids = list(order)
    if prefills:
        tail_lora = prefills[-1].lora_id
        if tail_lora in order:
            group_ids.remove(tail_lora)
            group_ids.insert(0, tail_lora)
    ordered_decodes = [e for gid in group_ids for e in order[gid]]
    ordered = list(prefills) + ordered_decodes
    starts = []
    cursor = 0
    for e in prefills:
        starts.append(cursor)
        cursor += e.num_tokens
    token_lora_ids = []
    for e in ordered:
        token_lora_ids.extend([e.lora_id] * e.num_tokens)
    seg, run_ids = segments_from_lora_ids(token_lora_ids)
    plan = BatchPlan(
        entries=tuple(ordered),
        segment_lora_ids=tuple(run_ids),
        prefill_lens=tuple(e.num_tokens for e in prefills),
        decode_ids=tuple(e.request_id for e in ordered_decodes),
        segment_sizes=tuple(np.diff(seg).tolist()),
    )
    # The oracle's own token-level ``seg`` and ``BatchLen``, in place of
    # the ones a plan derives on first read.
    vars(plan).update(
        seg=seg,
        batchlen=BatchLen(
            prefill_starts=tuple(starts),
            num_prefill_tokens=cursor,
            num_decode=len(ordered_decodes),
        ),
    )
    return plan


def reference_batchlen_check(prefill_starts, num_prefill_tokens, num_decode):
    """``BatchLen.__post_init__`` as it was with NumPy — the oracle for the
    plain-loop validation."""
    if num_prefill_tokens < 0 or num_decode < 0:
        raise ValueError("token counts must be nonnegative")
    if prefill_starts:
        if prefill_starts[0] != 0:
            raise ValueError("first prefill must start at token 0")
        diffs = np.diff(np.asarray(prefill_starts + (num_prefill_tokens,)))
        if (diffs <= 0).any():
            raise ValueError("prefill starts must be strictly increasing")
    elif num_prefill_tokens != 0:
        raise ValueError("no prefill requests but num_prefill_tokens != 0")


_DERIVED = ("seg", "batchlen")
"""The plan attributes derived on first read rather than stored."""


def assert_plans_equal(got: BatchPlan, want: BatchPlan):
    """Every ``BatchPlan`` field and derived attribute equal — ``seg`` by
    dtype, shape and values, ids by type as well as value."""
    for name in [f.name for f in dataclasses.fields(BatchPlan)] + list(_DERIVED):
        a, b = getattr(got, name), getattr(want, name)
        if name == "seg":
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tolist() == b.tolist()
        else:
            assert a == b, name
    assert [type(i) for i in got.segment_lora_ids] == [
        type(i) for i in want.segment_lora_ids
    ]
    assert all(type(n) is int for n in got.segment_sizes + got.prefill_lens)


@st.composite
def mixed_batches(draw):
    """0-4 prefills of 1-2 048 tokens and 0-32 decodes over a 1-6 adapter
    alphabet, in arbitrary submission order; three shapes are forced on
    purpose: the tail prefill sharing the head decode group, every entry
    on one adapter, every entry on its own."""
    shape = draw(st.sampled_from(["free", "tail_shares_head", "one_adapter", "distinct"]))
    n_prefill = draw(st.integers(1 if shape == "tail_shares_head" else 0, 4))
    n_decode = draw(st.integers(1 if shape == "tail_shares_head" else 0, 32))
    assume(n_prefill + n_decode > 0)
    n = n_prefill + n_decode
    alphabet = [f"lora-{i}" for i in range(draw(st.integers(1, 6)))]
    if shape == "one_adapter":
        loras = [alphabet[0]] * n
    elif shape == "distinct":
        loras = [f"own-{i}" for i in range(n)]
    else:
        loras = [draw(st.sampled_from(alphabet)) for _ in range(n)]
        if shape == "tail_shares_head":
            loras[n_prefill + draw(st.integers(0, n_decode - 1))] = loras[n_prefill - 1]
    entries = [
        prefill(f"p{i}", loras[i], draw(st.integers(1, 2048)))
        for i in range(n_prefill)
    ] + [decode(f"d{i}", loras[n_prefill + i]) for i in range(n_decode)]
    # Interleave arbitrarily, keeping the prefills' relative order (it is
    # which prefill is *last* that decides the head group).
    slots = draw(st.permutations(range(n)))
    prefill_slots = set(slots[:n_prefill])
    out, p, d = [], iter(entries[:n_prefill]), iter(entries[n_prefill:])
    for i in range(n):
        out.append(next(p) if i in prefill_slots else next(d))
    return out


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

    @given(
        st.lists(st.integers(-3, 40), max_size=5).map(tuple),
        st.integers(-3, 40),
        st.integers(-2, 8),
    )
    def test_validation_equals_numpy_oracle(self, starts, n_prefill_tokens, n_decode):
        try:
            reference_batchlen_check(starts, n_prefill_tokens, n_decode)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                BatchLen(starts, n_prefill_tokens, n_decode)
            assert str(got.value) == str(exc)
        else:
            BatchLen(starts, n_prefill_tokens, n_decode)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    def test_valid_layouts_construct_under_both(self, lens):
        # The arbitrary triples above are mostly invalid; these never are.
        starts = tuple(sum(lens[:i]) for i in range(len(lens)))
        reference_batchlen_check(starts, sum(lens), 3)
        assert BatchLen(starts, sum(lens), 3).prefill_lengths() == lens


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

    @given(mixed_batches())
    def test_equals_token_level_oracle(self, entries):
        assert_plans_equal(plan_batch(entries), reference_plan_batch(entries))

    @given(mixed_batches())
    def test_grouped_plan_equals_oracle_and_reads_only(self, entries):
        # The engine keeps its armed batch's groups across steps and lays
        # a mixed step's plan out from them: same plan, groups untouched.
        prefills = [e for e in entries if e.is_prefill]
        groups = {}
        for e in entries:
            if not e.is_prefill:
                groups.setdefault(e.lora_id, []).append(e)
        before = {k: list(g) for k, g in groups.items()}
        assert_plans_equal(
            plan_grouped(prefills, groups), reference_plan_batch(entries)
        )
        assert groups == before and list(groups) == list(before)

    def test_forced_shapes_against_oracle(self):
        # The three shapes the strategy forces, once each by hand.
        for entries in (
            [decode("1", "m1"), prefill("p", "m2", 2048), decode("2", "m2")],
            [prefill("p", "m", 7), prefill("q", "m", 3), decode("1", "m")],
            [prefill("p", "a", 5), decode("1", "b"), decode("2", "c")],
        ):
            assert_plans_equal(plan_batch(entries), reference_plan_batch(entries))
        shared = plan_batch([decode("1", "m1"), prefill("p", "m2", 2048), decode("2", "m2")])
        assert shared.segment_sizes == (2049, 1)

    def test_plan_is_immutable_plain_data(self):
        plan = plan_batch([prefill("p", "a", 3), decode("1", "b")])
        for f in dataclasses.fields(plan):
            assert isinstance(getattr(plan, f.name), tuple)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, f.name, None)
        # Derived on first read, and as frozen once read.
        assert isinstance(plan.seg, np.ndarray)
        assert isinstance(plan.batchlen, BatchLen)
        for name in _DERIVED:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, name, None)

    def test_non_str_ids_are_not_coerced(self):
        # ``int`` and ``str`` ids: the plan hands back the entries'
        # ``lora_id`` objects as given (``3`` and ``"3"`` are two adapters).
        assert plan_batch([decode("r1", 3), decode("r2", 3)]).segment_lora_ids == (3,)
        mixed = plan_batch([decode("r1", 3), decode("r2", "3")])
        assert mixed.segment_lora_ids == (3, "3")


_LORAS = st.sampled_from(["A", "B", "C", "D"])


class TestArmedBatch:
    """The armed batch edited join by join and leave by leave is the batch
    ``plan_batch`` groups from scratch over the slot order."""

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("join"), st.integers(0, 40), _LORAS,
                    st.integers(1, 4096), st.integers(1, 64), st.integers(1, 64),
                ),
                st.tuples(st.just("leave"), st.integers(0, 40)),
                st.tuples(st.just("advance"), st.integers(1, 3)),
            ),
            max_size=40,
        ),
        prefills=st.lists(
            st.tuples(_LORAS, st.integers(1, 2048)), max_size=2
        ),
    )
    @example(
        # a1, b1, a2; a1 leaves (B leads), then c1 joins at the head and
        # a3 at the head of A: both re-sort.
        ops=[
            ("join", 0, "A", 8, 5, 1), ("join", 1, "B", 8, 5, 2),
            ("join", 2, "A", 8, 5, 3), ("leave", 0), ("join", 0, "C", 8, 5, 4),
            ("join", 1, "A", 8, 5, 5),
        ],
        prefills=[("A", 16)],
    )
    def test_edits_equal_grouping_the_slot_order(self, ops, prefills):
        armed = ArmedBatch(page_size=4)
        slots = []  # (entry, kv_len, left, generated), the oracle's slot order
        pre = [prefill(f"p{i}", lora, n) for i, (lora, n) in enumerate(prefills)]
        for serial, op in enumerate(ops):
            kind = op[0]
            if kind == "join":
                _, at, lora, kv_len, left, generated = op
                pos = at % (len(slots) + 1)
                entry = decode(f"r{serial}", lora)
                armed.join(pos, entry, kv_len, left, generated)
                slots.insert(pos, (entry, kv_len, left, generated))
            elif kind == "leave":
                if not slots:
                    continue
                entry, _, _, _ = slots.pop(op[1] % len(slots))
                armed.leave(entry)
            else:
                steps = op[1]
                armed.advance(steps)
                slots = [
                    (e, kv + steps, left - steps, gen + steps)
                    for e, kv, left, gen in slots
                ]
            if kind != "advance":
                assert armed.decode_plan is None
            decodes = [e for e, _, _, _ in slots]
            assert armed.ids == [e.request_id for e in decodes]
            assert armed.total == sum(kv + 1 for _, kv, _, _ in slots)
            rem = [f - armed.steps for f in armed.fin]
            assert rem == [left for _, _, left, _ in slots]
            assert armed.next_fin == min(armed.fin, default=armed.next_fin)
            assert [
                armed.kv0[e.request_id] + armed.steps for e, _, _, _ in slots
            ] == [kv for _, kv, _, _ in slots]
            # The token offsets are the generated counts less the step count.
            assert [t + armed.steps for t in armed.tok0] == [
                gen for _, _, _, gen in slots
            ]
            # The step that starts at t opens a page for a member whose KV
            # length then fills its last page: phase (t - kv) % 4 now.
            assert armed.pages == [
                [e.request_id for e, kv, _, _ in slots if (armed.steps - kv) % 4 == p]
                for p in range(4)
            ]
            if decodes:
                assert_plans_equal(armed.plan([]), plan_batch(decodes))
            if pre or decodes:
                assert_plans_equal(armed.plan(pre), plan_batch(pre + decodes))
