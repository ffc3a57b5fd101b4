"""Tests for the paged KvCache allocator, including hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.kvcache.page import PageAllocator, pages_needed


class TestPagesNeeded:
    @pytest.mark.parametrize(
        "seq,page,expect",
        [(1, 16, 1), (16, 16, 1), (17, 16, 2), (0, 16, 0), (2048, 16, 128)],
    )
    def test_ceiling(self, seq, page, expect):
        assert pages_needed(seq, page) == expect

    def test_invalid(self):
        with pytest.raises(ValueError):
            pages_needed(1, 0)
        with pytest.raises(ValueError):
            pages_needed(-1, 16)


class TestPageAllocator:
    def test_allocate_free_roundtrip(self):
        a = PageAllocator(total_pages=8, page_size=16)
        pages = a.allocate("r1", 40)  # 3 pages
        assert len(pages) == 3
        assert a.free_pages == 5
        assert a.free("r1") == 3
        assert a.free_pages == 8

    def test_no_double_allocation(self):
        a = PageAllocator(total_pages=8, page_size=16)
        p1 = a.allocate("r1", 33)
        p2 = a.allocate("r2", 33)
        assert not set(p1) & set(p2)

    def test_duplicate_id_rejected(self):
        a = PageAllocator(total_pages=8, page_size=16)
        a.allocate("r1", 1)
        with pytest.raises(ValueError, match="already"):
            a.allocate("r1", 1)

    def test_out_of_memory(self):
        a = PageAllocator(total_pages=2, page_size=16)
        with pytest.raises(MemoryError):
            a.allocate("big", 100)
        # Failed allocation must not leak pages.
        assert a.free_pages == 2

    def test_append_within_page_free(self):
        a = PageAllocator(total_pages=4, page_size=16)
        a.allocate("r", 10)
        assert a.append("r", 1) == []  # still inside page 0
        assert a.seq_len("r") == 11

    def test_append_crosses_page_boundary(self):
        a = PageAllocator(total_pages=4, page_size=16)
        a.allocate("r", 16)
        new = a.append("r", 1)
        assert len(new) == 1
        assert a.seq_len("r") == 17

    def test_append_oom(self):
        a = PageAllocator(total_pages=1, page_size=4)
        a.allocate("r", 4)
        with pytest.raises(MemoryError):
            a.append("r", 1)

    def test_can_allocate_and_can_append(self):
        a = PageAllocator(total_pages=2, page_size=4)
        assert a.can_allocate(8)
        assert not a.can_allocate(9)
        a.allocate("r", 4)
        assert a.can_append("r", 4)
        assert not a.can_append("r", 5)

    def test_unknown_sequence(self):
        a = PageAllocator(total_pages=2, page_size=4)
        with pytest.raises(KeyError):
            a.free("ghost")
        with pytest.raises(KeyError):
            a.append("ghost")

    def test_stats(self):
        a = PageAllocator(total_pages=10, page_size=8)
        a.allocate("r1", 12)  # 2 pages, 12 tokens
        s = a.stats()
        assert s.total_pages == 10
        assert s.used_pages == 2
        assert s.num_sequences == 1
        assert s.allocated_tokens == 12
        assert s.utilization == pytest.approx(0.2)

    def test_internal_fragmentation_bounded(self):
        a = PageAllocator(total_pages=10, page_size=8)
        a.allocate("r1", 9)  # 2 pages, 7 slots wasted
        assert a.internal_fragmentation() == pytest.approx(7 / 16)
        a2 = PageAllocator(total_pages=10, page_size=8)
        assert a2.internal_fragmentation() == 0.0

    def test_paper_page_count_formula(self):
        # §5.4: total pages = sum_i ceil(S_i / P).
        a = PageAllocator(total_pages=100, page_size=16)
        lengths = [5, 16, 17, 100]
        for i, s in enumerate(lengths):
            a.allocate(f"r{i}", s)
        assert a.used_pages == sum(pages_needed(s, 16) for s in lengths)

    @settings(max_examples=50, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 20), min_size=1, max_size=6),
        start=st.integers(0, 9),
        counts=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    )
    def test_phased_run_equals_per_round_appends(self, lengths, start, counts):
        """``append_tokens_run`` over a batch held as offsets of a round
        count pops the pages ``append_tokens`` would, round by round, and
        leaves the lengths to the caller."""
        bulk, ref = PageAllocator(128, 4), PageAllocator(128, 4)
        ids = [f"r{i}" for i, _ in enumerate(lengths)]
        for a in (bulk, ref):
            for sid, n in zip(ids, lengths):
                a.allocate(sid, n)
        # The round starting at t opens a page iff the length is then a
        # multiple of 4: phase (t - length) % 4 at round ``start``.
        phases = [[sid for sid, n in zip(ids, lengths) if (start - n) % 4 == p]
                  for p in range(4)]
        t = start
        for count in counts:
            bulk.append_tokens_run(phases, t, count)
            for _ in range(count):
                ref.append_tokens(ids)
            t += count
            assert bulk._free == ref._free
            assert [bulk.pages_of(s) for s in ids] == [ref.pages_of(s) for s in ids]
        assert [bulk.seq_len(s) for s in ids] == lengths
        grown = t - start
        bulk.lengths.update({s: n + grown for s, n in zip(ids, lengths)})
        assert bulk.stats() == ref.stats()


class TestExportImport:
    def test_roundtrip_frees_then_reallocates(self):
        a = PageAllocator(total_pages=8, page_size=16)
        a.allocate("r1", 40)  # 3 pages
        tokens = a.export_sequence("r1")
        assert tokens == 40
        assert "r1" not in a
        assert a.free_pages == 8
        pages = a.import_sequence("r1", tokens)
        assert len(pages) == 3
        assert a.seq_len("r1") == 40

    def test_export_unknown_sequence(self):
        a = PageAllocator(total_pages=8, page_size=16)
        with pytest.raises(KeyError):
            a.export_sequence("ghost")

    def test_import_respects_capacity(self):
        a = PageAllocator(total_pages=2, page_size=16)
        with pytest.raises(MemoryError):
            a.import_sequence("big", 100)


class AllocatorMachine(RuleBasedStateMachine):
    """Stateful property test: the allocator never leaks or double-books."""

    def __init__(self):
        super().__init__()
        self.alloc = PageAllocator(total_pages=32, page_size=4)
        self.live: dict[str, int] = {}
        self.counter = 0

    @rule(seq_len=st.integers(1, 40))
    def allocate(self, seq_len):
        sid = f"s{self.counter}"
        self.counter += 1
        if self.alloc.can_allocate(seq_len):
            self.alloc.allocate(sid, seq_len)
            self.live[sid] = seq_len
        else:
            with pytest.raises(MemoryError):
                self.alloc.allocate(sid, seq_len)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def append(self, data):
        sid = data.draw(st.sampled_from(sorted(self.live)))
        if self.alloc.can_append(sid, 1):
            self.alloc.append(sid, 1)
            self.live[sid] += 1

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data):
        sid = data.draw(st.sampled_from(sorted(self.live)))
        self.alloc.free(sid)
        del self.live[sid]

    @invariant()
    def pages_conserved(self):
        expected_used = sum(pages_needed(s, 4) for s in self.live.values())
        assert self.alloc.used_pages == expected_used
        assert self.alloc.free_pages == 32 - expected_used

    @invariant()
    def no_double_booking(self):
        seen = set()
        for sid in self.live:
            pages = set(self.alloc.pages_of(sid))
            assert not pages & seen
            seen |= pages


TestAllocatorStateful = AllocatorMachine.TestCase
TestAllocatorStateful.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)
