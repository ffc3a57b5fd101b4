"""Segmented Gather Matrix-Vector multiplication (SGMV), NumPy edition.

The paper's CUDA kernel computes, for a batch partitioned into segments
(one per distinct LoRA model),

    y[seg[i]:seg[i+1]] += x[seg[i]:seg[i+1]] @ W[i]

in a single launch. Here the *semantics* are reproduced exactly in NumPy.
Two entry points mirror the kernel's two flavours:

* :func:`sgmv_shrink` — ``v += x @ A`` with ``A: (h, r)``, high-dim to rank
  (the paper's Split-K schedule).
* :func:`sgmv_expand` — ``y += v @ B`` with ``B: (r, h)``, rank to high-dim
  (the paper's output-column-split schedule).

Both are the same math; keeping both names preserves the paper's API (the
real Punica exposes ``sgmv_shrink``/``sgmv_expand`` the same way) and lets
the cost model charge each launch separately.

``*_reference`` variants are deliberately naive per-row loops, kept as the
gold standard the optimized paths are tested against.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

import numpy as np

from repro.core.segments import validate_segments


_SEG_PLAN_LIMIT = 4096
_SEG_PLAN_CACHE: "dict[bytes, SegmentPlan]" = {}


class SegmentPlan(NamedTuple):
    """What one segment vector decides, worked out once per distinct value.

    ``lanes`` is the launch schedule: one ``(row_lo, row_hi, seg_lo,
    seg_hi, rows)`` per launch, covering every non-empty segment once.
    A maximal run of two or more consecutive segments of one size is a
    single batched launch over ``rows``-row tiles — with ``rows == 1``
    the paper's GEMV schedule for the Distinct case (§4.1: every decode
    row its own adapter), so the decode tail of a mixed step is one
    launch however many tenants it carries. Any other segment is its own
    GEMM (``seg_hi == seg_lo + 1``). ``lane_segs[i]`` is lane ``i``'s
    own segment vector, ``seg[seg_lo:seg_hi + 1] - row_lo``: what one
    launch over the lane's rows takes.
    """

    seg: np.ndarray
    sizes: np.ndarray
    lanes: "tuple[tuple[int, int, int, int, int], ...]"
    lane_segs: "tuple[np.ndarray, ...]"


def _lanes(seg: np.ndarray, sizes: np.ndarray) -> "tuple[tuple[int, int, int, int, int], ...]":
    lanes = []
    i = 0
    for rows, run in groupby(sizes.tolist()):
        j = i + len(list(run))
        if rows:
            lanes.append((int(seg[i]), int(seg[j]), i, j, rows))
        i = j
    return tuple(lanes)


def _segment_plan(seg: np.ndarray, batch_size: "int | None" = None) -> SegmentPlan:
    """Validate ``seg`` (empty segments allowed) and return its plan.

    The engine reuses one segment vector across the ``7L`` launches of an
    invocation and across every decode step of an unchanged batch (paper
    §6 computes segment indices once per invocation), so validation, the
    ``np.diff`` and the lane decomposition are keyed on the vector's raw
    bytes: a vector is checked once per distinct value, and a bad one is
    never stored, so it raises :func:`validate_segments`' ``ValueError``
    every time it is presented. ``batch_size`` is not part of the value
    and is compared on every call.
    """
    seg = np.asarray(seg, dtype=np.int64)
    # Only a 1-D int64 vector is determined by its bytes; any other shape
    # misses and is rejected below.
    key = seg.tobytes() if seg.ndim == 1 else None
    plan = _SEG_PLAN_CACHE.get(key)
    if plan is None:
        seg = validate_segments(seg, allow_empty=True)
        sizes = np.diff(seg)
        lanes = _lanes(seg, sizes)
        lane_segs = tuple(seg[s0 : s1 + 1] - lo for lo, _, s0, s1, _ in lanes)
        plan = SegmentPlan(seg, sizes, lanes, lane_segs)
        if len(_SEG_PLAN_CACHE) >= _SEG_PLAN_LIMIT:
            _SEG_PLAN_CACHE.clear()
        _SEG_PLAN_CACHE[key] = plan
    if batch_size is not None and plan.seg[-1] != batch_size:
        validate_segments(plan.seg, batch_size=batch_size, allow_empty=True)
    return plan


def _check_inputs(x: np.ndarray, weights: np.ndarray, seg: np.ndarray) -> SegmentPlan:
    plan = _segment_plan(seg, batch_size=x.shape[0])
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D (batch, features), got shape {x.shape}")
    if weights.ndim != 3:
        raise ValueError(f"weights must be 3-D (num_models, in, out), got shape {weights.shape}")
    num_segments = plan.sizes.size
    if weights.shape[0] != num_segments:
        raise ValueError(
            f"weights has {weights.shape[0]} models but segments define {num_segments}"
        )
    if weights.shape[1] != x.shape[1]:
        raise ValueError(
            f"weight input dim {weights.shape[1]} != feature dim {x.shape[1]}"
        )
    return plan


def _sgmv_inplace(y: np.ndarray, x: np.ndarray, weights: np.ndarray, plan: SegmentPlan) -> None:
    """Core segmented matmul-accumulate. ``weights[i]`` is ``(h_in, h_out)``."""
    if y.shape != (x.shape[0], weights.shape[2]):
        raise ValueError(
            f"output shape {y.shape} incompatible with batch {x.shape[0]} "
            f"and out dim {weights.shape[2]}"
        )
    for lo, hi, s0, s1, rows in plan.lanes:
        if s1 - s0 == 1:
            y[lo:hi] += x[lo:hi] @ weights[s0]
        else:
            tiles = x[lo:hi].reshape(s1 - s0, rows, x.shape[1])
            y[lo:hi] += np.matmul(tiles, weights[s0:s1]).reshape(hi - lo, y.shape[1])


def sgmv_shrink(
    v: np.ndarray, x: np.ndarray, wa: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """``v[s_i:s_{i+1}] += x[s_i:s_{i+1}] @ wa[i]`` — high-dim to rank.

    Parameters
    ----------
    v:
        Accumulator, shape ``(batch, rank)``. Mutated in place and returned.
    x:
        Input features, shape ``(batch, h_in)``.
    wa:
        Stacked LoRA A matrices, shape ``(num_models, h_in, rank)``.
    seg:
        Cumulative segment indices, length ``num_models + 1``.
    """
    _sgmv_inplace(v, x, wa, _check_inputs(x, wa, seg))
    return v


def sgmv_expand(
    y: np.ndarray, v: np.ndarray, wb: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """``y[s_i:s_{i+1}] += v[s_i:s_{i+1}] @ wb[i]`` — rank to high-dim.

    Parameters mirror :func:`sgmv_shrink` with ``wb`` shaped
    ``(num_models, rank, h_out)``.
    """
    _sgmv_inplace(y, v, wb, _check_inputs(v, wb, seg))
    return y


def sgmv_shrink_reference(
    v: np.ndarray, x: np.ndarray, wa: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """Gold-standard per-row implementation of :func:`sgmv_shrink`."""
    seg = _check_inputs(x, wa, seg).seg
    for i in range(seg.size - 1):
        for row in range(int(seg[i]), int(seg[i + 1])):
            v[row] = v[row] + x[row] @ wa[i]
    return v


def sgmv_expand_reference(
    y: np.ndarray, v: np.ndarray, wb: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """Gold-standard per-row implementation of :func:`sgmv_expand`."""
    seg = _check_inputs(v, wb, seg).seg
    for i in range(seg.size - 1):
        for row in range(int(seg[i]), int(seg[i + 1])):
            y[row] = y[row] + v[row] @ wb[i]
    return y
