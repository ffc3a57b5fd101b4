"""Tests for the SGMV operators: numpy implementation vs gold-standard reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import add_lora_sgmv
from repro.core.segments import segments_from_sizes
from repro.core.sgmv import (
    _segment_plan,
    sgmv_expand,
    sgmv_expand_reference,
    sgmv_shrink,
    sgmv_shrink_reference,
)
from repro.utils.rng import new_rng


def make_case(sizes, h_in=32, rank=4, seed=0):
    rng = new_rng(seed)
    seg = segments_from_sizes(sizes)
    bs = int(seg[-1])
    n = len(sizes)
    x = rng.standard_normal((bs, h_in))
    wa = rng.standard_normal((n, h_in, rank))
    return seg, x, wa


class TestSgmvShrink:
    def test_matches_reference(self):
        seg, x, wa = make_case([2, 3, 1])
        v1 = np.zeros((x.shape[0], wa.shape[2]))
        v2 = np.zeros_like(v1)
        sgmv_shrink(v1, x, wa, seg)
        sgmv_shrink_reference(v2, x, wa, seg)
        np.testing.assert_allclose(v1, v2, rtol=1e-12)

    def test_accumulates_not_overwrites(self):
        seg, x, wa = make_case([2, 2])
        v = np.ones((4, wa.shape[2]))
        expected = 1.0 + np.vstack([x[:2] @ wa[0], x[2:] @ wa[1]])
        sgmv_shrink(v, x, wa, seg)
        np.testing.assert_allclose(v, expected, rtol=1e-12)

    def test_segment_isolation(self):
        # Changing one model's weights must not affect other segments.
        seg, x, wa = make_case([2, 2])
        v_base = sgmv_shrink(np.zeros((4, 4)), x, wa.copy(), seg)
        wa2 = wa.copy()
        wa2[1] *= 5.0
        v_mod = sgmv_shrink(np.zeros((4, 4)), x, wa2, seg)
        np.testing.assert_array_equal(v_base[:2], v_mod[:2])
        assert not np.allclose(v_base[2:], v_mod[2:])

    def test_returns_same_array(self):
        seg, x, wa = make_case([1, 1])
        v = np.zeros((2, 4))
        assert sgmv_shrink(v, x, wa, seg) is v

    def test_shape_errors(self):
        seg, x, wa = make_case([2, 2])
        with pytest.raises(ValueError, match="models"):
            sgmv_shrink(np.zeros((4, 4)), x, wa[:1], seg)
        with pytest.raises(ValueError, match="feature"):
            sgmv_shrink(np.zeros((4, 4)), x[:, :8], wa, seg)
        with pytest.raises(ValueError, match="output shape"):
            sgmv_shrink(np.zeros((4, 5)), x, wa, seg)


class TestSgmvExpand:
    def test_matches_reference(self):
        rng = new_rng(1)
        seg = segments_from_sizes([1, 4, 2])
        v = rng.standard_normal((7, 4))
        wb = rng.standard_normal((3, 4, 32))
        y1 = np.zeros((7, 32))
        y2 = np.zeros_like(y1)
        sgmv_expand(y1, v, wb, seg)
        sgmv_expand_reference(y2, v, wb, seg)
        np.testing.assert_allclose(y1, y2, rtol=1e-12)

    def test_accumulates_into_backbone_output(self):
        rng = new_rng(2)
        seg = segments_from_sizes([3])
        v = rng.standard_normal((3, 4))
        wb = rng.standard_normal((1, 4, 16))
        backbone = rng.standard_normal((3, 16))
        y = backbone.copy()
        sgmv_expand(y, v, wb, seg)
        np.testing.assert_allclose(y, backbone + v @ wb[0], rtol=1e-12)


def pure_python_sgmv(x, weights, seg):
    """Scalar-loop oracle: no numpy arithmetic beyond element access.

    Computes ``y[r, o] = sum_k x[r, k] * w[i, k, o]`` for every row ``r``
    of segment ``i`` with plain Python floats — the slowest, most obvious
    implementation, used to cross-check both the optimized path and the
    per-row reference.
    """
    batch, h_in = x.shape
    h_out = weights.shape[2]
    y = [[0.0] * h_out for _ in range(batch)]
    for i in range(len(seg) - 1):
        for row in range(int(seg[i]), int(seg[i + 1])):
            for o in range(h_out):
                acc = 0.0
                for k in range(h_in):
                    acc += float(x[row, k]) * float(weights[i, k, o])
                y[row][o] = acc
    return np.asarray(y, dtype=float).reshape(batch, h_out)


def all_segment_layouts(batch, max_segments):
    """Every composition of ``batch`` into 1..max_segments nonneg parts —
    includes empty segments in every position."""
    layouts = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            layouts.append(prefix + [remaining])
            return
        for take in range(remaining + 1):
            rec(prefix + [take], remaining - take, slots - 1)

    for n in range(1, max_segments + 1):
        rec([], batch, n)
    return layouts


def seg_with_empties(sizes):
    """Cumulative boundaries allowing zero-sized segments."""
    seg = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=seg[1:])
    return seg


class TestSgmvExhaustiveSmallCases:
    """Every segment layout for tiny batches, numpy vs the scalar oracle.

    Covers the degenerate shapes the kernel scheduler must survive:
    empty segments (a LoRA model with no requests this invocation),
    rank-0 adapters (LoRA disabled per-model), and single-request batches.
    """

    def test_exhaustive_layouts_shrink_and_expand(self):
        rng = new_rng(123)
        for batch in (1, 2, 3, 4):
            for sizes in all_segment_layouts(batch, max_segments=3):
                seg = seg_with_empties(sizes)
                n = len(sizes)
                for h_in, rank in ((1, 1), (3, 2)):
                    x = rng.standard_normal((batch, h_in))
                    wa = rng.standard_normal((n, h_in, rank))
                    expected = pure_python_sgmv(x, wa, seg)
                    got = sgmv_shrink(np.zeros((batch, rank)), x, wa, seg)
                    np.testing.assert_allclose(
                        got, expected, rtol=1e-10, atol=1e-12,
                        err_msg=f"shrink sizes={sizes} h={h_in} r={rank}",
                    )
                    ref = sgmv_shrink_reference(
                        np.zeros((batch, rank)), x, wa, seg
                    )
                    np.testing.assert_allclose(
                        ref, expected, rtol=1e-10, atol=1e-12,
                        err_msg=f"reference sizes={sizes} h={h_in} r={rank}",
                    )
                    v = rng.standard_normal((batch, rank))
                    wb = rng.standard_normal((n, rank, h_in))
                    expected_y = pure_python_sgmv(v, wb, seg)
                    got_y = sgmv_expand(np.zeros((batch, h_in)), v, wb, seg)
                    np.testing.assert_allclose(
                        got_y, expected_y, rtol=1e-10, atol=1e-12,
                        err_msg=f"expand sizes={sizes} h={h_in} r={rank}",
                    )

    def test_empty_segments_leave_rows_untouched(self):
        # [2, 0, 1]: model 1 has no requests; its weights must not leak.
        seg = seg_with_empties([2, 0, 1])
        rng = new_rng(5)
        x = rng.standard_normal((3, 4))
        wa = rng.standard_normal((3, 4, 2))
        poisoned = wa.copy()
        poisoned[1] = np.nan  # would contaminate output if ever touched
        out = sgmv_shrink(np.zeros((3, 2)), x, poisoned, seg)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(
            out, sgmv_shrink(np.zeros((3, 2)), x, wa, seg), rtol=1e-12
        )

    def test_all_segments_empty(self):
        seg = seg_with_empties([0, 0])
        x = np.zeros((0, 4))
        wa = np.ones((2, 4, 3))
        out = sgmv_shrink(np.zeros((0, 3)), x, wa, seg)
        assert out.shape == (0, 3)

    def test_rank_zero_adapters(self):
        # rank 0: shrink produces (batch, 0); expand adds exactly nothing.
        seg = seg_with_empties([2, 1])
        rng = new_rng(6)
        x = rng.standard_normal((3, 4))
        wa = rng.standard_normal((2, 4, 0))
        v = sgmv_shrink(np.zeros((3, 0)), x, wa, seg)
        assert v.shape == (3, 0)
        wb = rng.standard_normal((2, 0, 4))
        backbone = rng.standard_normal((3, 4))
        y = backbone.copy()
        sgmv_expand(y, v, wb, seg)
        np.testing.assert_array_equal(y, backbone)

    def test_single_request_batch(self):
        seg = seg_with_empties([1])
        rng = new_rng(7)
        x = rng.standard_normal((1, 8))
        wa = rng.standard_normal((1, 8, 4))
        got = sgmv_shrink(np.zeros((1, 4)), x, wa, seg)
        np.testing.assert_allclose(
            got, pure_python_sgmv(x, wa, seg), rtol=1e-10, atol=1e-12
        )


@st.composite
def sgmv_layout_with_empties(draw):
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    h_in = draw(st.integers(1, 16))
    rank = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    return sizes, h_in, rank, seed


class TestSgmvRandomizedLayouts:
    @given(sgmv_layout_with_empties())
    @settings(max_examples=60, deadline=None)
    def test_shrink_matches_scalar_oracle(self, problem):
        sizes, h_in, rank, seed = problem
        rng = new_rng(seed)
        seg = seg_with_empties(sizes)
        batch, n = int(seg[-1]), len(sizes)
        x = rng.standard_normal((batch, h_in))
        wa = rng.standard_normal((n, h_in, rank))
        got = sgmv_shrink(np.zeros((batch, rank)), x, wa, seg)
        np.testing.assert_allclose(
            got, pure_python_sgmv(x, wa, seg), rtol=1e-9, atol=1e-11
        )

    @given(sgmv_layout_with_empties())
    @settings(max_examples=60, deadline=None)
    def test_expand_matches_scalar_oracle(self, problem):
        sizes, h_in, rank, seed = problem
        rng = new_rng(seed)
        seg = seg_with_empties(sizes)
        batch, n = int(seg[-1]), len(sizes)
        v = rng.standard_normal((batch, rank))
        wb = rng.standard_normal((n, rank, h_in))
        got = sgmv_expand(np.zeros((batch, h_in)), v, wb, seg)
        np.testing.assert_allclose(
            got, pure_python_sgmv(v, wb, seg), rtol=1e-9, atol=1e-11
        )


@st.composite
def sgmv_problem(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    h_in = draw(st.integers(1, 24))
    rank = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31 - 1))
    return sizes, h_in, rank, seed


class TestSgmvProperties:
    @given(sgmv_problem())
    @settings(max_examples=60, deadline=None)
    def test_shrink_equals_reference(self, problem):
        sizes, h_in, rank, seed = problem
        seg, x, wa = make_case(sizes, h_in=h_in, rank=rank, seed=seed)
        v1 = np.zeros((x.shape[0], rank))
        v2 = np.zeros_like(v1)
        sgmv_shrink(v1, x, wa, seg)
        sgmv_shrink_reference(v2, x, wa, seg)
        np.testing.assert_allclose(v1, v2, rtol=1e-10, atol=1e-12)

    @given(sgmv_problem())
    @settings(max_examples=60, deadline=None)
    def test_expand_equals_reference(self, problem):
        sizes, h_in, rank, seed = problem
        rng = new_rng(seed)
        seg = segments_from_sizes(sizes)
        bs, n = int(seg[-1]), len(sizes)
        v = rng.standard_normal((bs, rank))
        wb = rng.standard_normal((n, rank, h_in))
        y1 = np.zeros((bs, h_in))
        y2 = np.zeros_like(y1)
        sgmv_expand(y1, v, wb, seg)
        sgmv_expand_reference(y2, v, wb, seg)
        np.testing.assert_allclose(y1, y2, rtol=1e-10, atol=1e-12)

    @given(sgmv_problem())
    @settings(max_examples=40, deadline=None)
    def test_shrink_equals_per_segment_matmul(self, problem):
        sizes, h_in, rank, seed = problem
        seg, x, wa = make_case(sizes, h_in=h_in, rank=rank, seed=seed)
        v = np.zeros((x.shape[0], rank))
        sgmv_shrink(v, x, wa, seg)
        expected = np.vstack(
            [x[int(seg[i]) : int(seg[i + 1])] @ wa[i] for i in range(len(sizes))]
        )
        np.testing.assert_allclose(v, expected, rtol=1e-10, atol=1e-12)


# Vectors that mix the two launch schedules: a multi-row segment (a
# prefill) next to a run of one-row segments (the decode tail), a lone
# singleton between two multi-row segments, empty segments breaking a run.
MIXED_LAYOUTS = (
    [5, 1, 1, 1],
    [3, 1, 2],
    [1, 4, 1, 1],
    [2, 1, 1, 0, 1, 3, 3, 1],
    [0, 1, 1, 0],
    [1, 1, 1, 1],
    [4, 0, 0, 1],
    [1, 0, 1],
    [2, 2, 1, 2, 2, 2],
)


def check_against_scalar_oracle(sizes, h_in, rank, seed):
    rng = new_rng(seed)
    seg = seg_with_empties(sizes)
    batch, n = int(seg[-1]), len(sizes)
    x = rng.standard_normal((batch, h_in))
    wa = rng.standard_normal((n, h_in, rank))
    got = sgmv_shrink(np.zeros((batch, rank)), x, wa, seg)
    np.testing.assert_allclose(
        got, pure_python_sgmv(x, wa, seg), rtol=1e-9, atol=1e-11,
        err_msg=f"shrink sizes={sizes}",
    )
    v = rng.standard_normal((batch, rank))
    wb = rng.standard_normal((n, rank, h_in))
    backbone = rng.standard_normal((batch, h_in))
    got_y = sgmv_expand(backbone.copy(), v, wb, seg)
    np.testing.assert_allclose(
        got_y, backbone + pure_python_sgmv(v, wb, seg), rtol=1e-9, atol=1e-11,
        err_msg=f"expand sizes={sizes}",
    )


class TestSgmvLanes:
    """The launch schedule: runs of equal-size segments batch (one-row
    runs are the Distinct GEMV lane), everything else is its own GEMM."""

    @pytest.mark.parametrize("sizes", MIXED_LAYOUTS, ids=str)
    def test_mixed_layouts_match_scalar_oracle(self, sizes):
        check_against_scalar_oracle(sizes, h_in=5, rank=3, seed=sum(sizes))

    @given(
        st.lists(st.sampled_from([0, 1, 1, 1, 2, 3, 5]), min_size=1, max_size=10),
        st.integers(1, 12),
        st.integers(0, 5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_singleton_heavy_layouts_match_scalar_oracle(self, sizes, h_in, rank, seed):
        check_against_scalar_oracle(sizes, h_in, rank, seed)

    def test_decode_tail_is_one_launch(self):
        # A 5-row prefill, then three tenants decoding: one GEMM, one GEMV run.
        lanes = _segment_plan(seg_with_empties([5, 1, 1, 1])).lanes
        assert lanes == ((0, 5, 0, 1, 5), (5, 8, 1, 4, 1))

    def test_lone_singleton_between_gemms_is_its_own_launch(self):
        lanes = _segment_plan(seg_with_empties([3, 1, 2])).lanes
        assert lanes == ((0, 3, 0, 1, 3), (3, 4, 1, 2, 1), (4, 6, 2, 3, 2))

    def test_empty_segment_breaks_a_run_and_launches_nothing(self):
        lanes = _segment_plan(seg_with_empties([1, 1, 0, 1, 0])).lanes
        assert lanes == ((0, 2, 0, 2, 1), (2, 3, 3, 4, 1))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_lanes_cover_every_nonempty_segment_once(self, sizes):
        seg = seg_with_empties(sizes)
        covered = []
        for lo, hi, s0, s1, rows in _segment_plan(seg).lanes:
            assert s1 > s0 and rows > 0
            assert (lo, hi) == (int(seg[s0]), int(seg[s1]))
            assert all(sizes[i] == rows for i in range(s0, s1))
            # Maximal: the run cannot be extended on either side.
            assert s0 == 0 or sizes[s0 - 1] != rows
            assert s1 == len(sizes) or sizes[s1] != rows
            covered.extend(range(s0, s1))
        assert covered == [i for i, size in enumerate(sizes) if size]


class TestValidationMemo:
    """A vector is validated once per distinct value — and a bad one is
    never remembered as good."""

    ENTRY_POINTS = (
        lambda seg, rows: sgmv_shrink(
            np.zeros((rows, 2)), np.ones((rows, 3)), np.ones((2, 3, 2)), seg
        ),
        lambda seg, rows: sgmv_expand(
            np.zeros((rows, 3)), np.ones((rows, 2)), np.ones((2, 2, 3)), seg
        ),
        lambda seg, rows: add_lora_sgmv(
            np.zeros((rows, 3)), np.ones((rows, 3)), np.ones((2, 3, 2)),
            np.ones((2, 2, 3)), seg,
        ),
    )

    @pytest.mark.parametrize("call", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "bad, match",
        [
            ([0, 3, 2], "nondecreasing"),
            ([1, 2, 3], "start at 0"),
            ([[0, 2, 3]], "1-D"),
        ],
    )
    def test_bad_vector_rejected_on_every_presentation(self, call, bad, match):
        call(np.asarray([0, 2, 3]), 3)  # a good vector is in the memo
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                call(np.asarray(bad), 3)

    @pytest.mark.parametrize("call", ENTRY_POINTS)
    def test_same_bytes_different_batch_size(self, call):
        seg = np.asarray([0, 2, 3])
        call(seg, 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="segments cover 3 rows but batch has 4"):
                call(seg, 4)
            call(seg, 3)  # still accepted for the batch it does cover

    def test_other_dtypes_share_the_int64_entry(self):
        # int32 [0, 2, 3] and int64 [0, 2, 3] are one value; the int32
        # buffer whose *bytes* spell int64 [0, 3] is another.
        x, wa = np.ones((3, 3)), np.ones((2, 3, 2))
        expected = sgmv_shrink(np.zeros((3, 2)), x, wa, np.asarray([0, 2, 3]))
        got = sgmv_shrink(np.zeros((3, 2)), x, wa, np.asarray([0, 2, 3], dtype=np.int32))
        np.testing.assert_array_equal(got, expected)
        sgmv_shrink(np.zeros((3, 2)), x, wa[:1], np.asarray([0, 3]))
        alias = np.asarray([0, 0, 3, 0], dtype=np.int32)
        assert alias.tobytes() == np.asarray([0, 3], dtype=np.int64).tobytes()
        with pytest.raises(ValueError, match="nondecreasing"):
            sgmv_shrink(np.zeros((3, 2)), x, wa[:1], alias)
