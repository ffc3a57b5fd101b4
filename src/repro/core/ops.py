"""The three batched LoRA-operator implementations compared in Fig 8.

All three compute the identical result

    y[seg[i]:seg[i+1]] += x[seg[i]:seg[i+1]] @ wa[i] @ wb[i]

but with the execution strategies of the paper's microbenchmark:

* :func:`add_lora_loop` — a Python/PyTorch-style for-loop over LoRA models,
  two small matmuls per model (the paper's "Loop" baseline).
* :func:`add_lora_gather_bmm` — materialize a per-*token* stack of weight
  matrices (``Gather``), then a single batched matmul (``BMM``); this is
  the ``torch.bmm`` baseline and pays ``s_n x h_in x h_out`` extra IO for
  the stacked copies.
* :func:`add_lora_sgmv` — two SGMV launches (shrink then expand), the
  paper's kernel. :func:`add_lora_sgmv_slots` is the same operator
  reading each segment's weights by slot from resident tables, as the
  serving forward does.

Numeric equality of the three is property-tested; the *latency* difference
is modelled by :class:`repro.hw.kernels.KernelCostModel`.
"""

from __future__ import annotations

import numpy as np

from repro.core.sgmv import _segment_plan, sgmv_expand, sgmv_shrink


def _check(y: np.ndarray, x: np.ndarray, wa: np.ndarray, wb: np.ndarray, seg: np.ndarray):
    seg = _segment_plan(seg, batch_size=x.shape[0]).seg
    n = seg.size - 1
    if wa.shape[0] != n or wb.shape[0] != n:
        raise ValueError(
            f"weight stacks cover {wa.shape[0]}/{wb.shape[0]} models, segments define {n}"
        )
    if wa.shape[2] != wb.shape[1]:
        raise ValueError(f"rank mismatch: wa {wa.shape} vs wb {wb.shape}")
    if wa.shape[1] != x.shape[1]:
        raise ValueError(f"wa input dim {wa.shape[1]} != x feature dim {x.shape[1]}")
    if y.shape != (x.shape[0], wb.shape[2]):
        raise ValueError(f"y shape {y.shape} incompatible with {(x.shape[0], wb.shape[2])}")
    return seg


def add_lora_loop(
    y: np.ndarray, x: np.ndarray, wa: np.ndarray, wb: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """For-loop baseline: one ``(x @ A) @ B`` pair per LoRA model."""
    seg = _check(y, x, wa, wb, seg)
    for i in range(seg.size - 1):
        lo, hi = int(seg[i]), int(seg[i + 1])
        y[lo:hi] += (x[lo:hi] @ wa[i]) @ wb[i]
    return y


def gather_weights(weights: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The Gather step: repeat each model's weight once per token.

    Returns shape ``(s_n, h_in, h_out)`` — the stacked copy ``torch.bmm``
    consumes, and the source of the baseline's extra memory traffic.
    """
    return np.repeat(weights, _segment_plan(seg).sizes, axis=0)


def add_lora_gather_bmm(
    y: np.ndarray, x: np.ndarray, wa: np.ndarray, wb: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """Gather-BMM baseline: stack weights per token, then batched matmul."""
    seg = _check(y, x, wa, wb, seg)
    wa_stacked = gather_weights(wa, seg)  # (s_n, h_in, r)
    v = np.einsum("si,sir->sr", x, wa_stacked, optimize=True)
    wb_stacked = gather_weights(wb, seg)  # (s_n, r, h_out)
    y += np.einsum("sr,sro->so", v, wb_stacked, optimize=True)
    return y


def add_lora_sgmv(
    y: np.ndarray, x: np.ndarray, wa: np.ndarray, wb: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """Punica's operator: SGMV-shrink into a rank buffer, SGMV-expand out."""
    seg = _check(y, x, wa, wb, seg)
    rank = wa.shape[2]
    v = np.zeros((x.shape[0], rank), dtype=y.dtype)
    sgmv_shrink(v, x, wa, seg)
    sgmv_expand(y, v, wb, seg)
    return y


def add_lora_sgmv_slots(
    y: np.ndarray,
    x: np.ndarray,
    table_a: np.ndarray,
    table_b: np.ndarray,
    slots: np.ndarray,
    rank: int,
    seg: np.ndarray,
) -> np.ndarray:
    """:func:`add_lora_sgmv` over ``table_a[slots, :, :rank]`` and
    ``table_b[slots, :rank]``, without stacking that copy first.

    ``table_a`` ``(num_slots, h_in, r)`` and ``table_b`` ``(num_slots, r,
    h_out)`` hold the resident adapters; ``slots[i]`` is segment ``i``'s
    row in both, Punica's ``wa_ptr``/``wb_ptr``. Each lane of the segment
    plan is one shrink and one expand over its own rows: a one-segment
    lane multiplies a view of its slot, a run of same-size segments
    gathers just its own slots. The result is bitwise that of the stacked
    operator.
    """
    plan = _segment_plan(seg, batch_size=x.shape[0])
    slots = np.asarray(slots, dtype=np.int64)
    slot_list = slots.tolist()
    num_slots = table_a.shape[0]
    if len(slot_list) != plan.sizes.size:
        raise ValueError(f"{len(slot_list)} slots for {plan.sizes.size} segments")
    if slot_list and not (0 <= min(slot_list) and max(slot_list) < num_slots):
        raise IndexError(f"slots {slot_list} outside a {num_slots}-slot table")
    if table_b.shape[0] != num_slots or not 0 < rank <= min(table_a.shape[2], table_b.shape[1]):
        raise ValueError(
            f"rank {rank} or slot count does not fit tables {table_a.shape}/{table_b.shape}"
        )
    v = np.zeros((x.shape[0], rank), dtype=y.dtype)
    for (lo, hi, s0, s1, _), lane_seg in zip(plan.lanes, plan.lane_segs):
        if s1 - s0 == 1:
            slot = slot_list[s0]
            wa = table_a[slot : slot + 1, :, :rank]
            wb = table_b[slot : slot + 1, :rank]
        else:
            wa = table_a[slots[s0:s1]][:, :, :rank]
            wb = table_b[slots[s0:s1]][:, :rank]
        sgmv_shrink(v[lo:hi], x[lo:hi], wa, lane_seg)
        sgmv_expand(y[lo:hi], v[lo:hi], wb, lane_seg)
    return y
