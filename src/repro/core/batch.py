"""Batch assembly: mixing prefill and decode in one model invocation (§5, §6).

Punica runs one prefill request and a batch of decode requests in a single
model invocation. All tokens are concatenated along the sequence dimension:
prefill tokens first, then one token per decode request. A ``BatchLen``
struct records where prefill requests start and how many decode tokens
follow, so the attention layer can route leading tokens to the BatchPrefill
kernel and trailing tokens to the BatchDecode kernel. The batch is further
ordered so that requests sharing a LoRA model are consecutive — including
letting the *tail* prefill and the *head* decode group share a model — and
the resulting token-level SGMV segment indices are computed once per
invocation (the paper notes this avoids recomputing them ``7L`` times).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.segments import segments_from_lora_ids


@dataclass(frozen=True)
class BatchEntry:
    """One request's contribution to a batched model invocation."""

    request_id: str
    lora_id: str
    num_tokens: int
    is_prefill: bool

    def __post_init__(self) -> None:
        if self.num_tokens <= 0:
            raise ValueError(f"num_tokens must be positive, got {self.num_tokens}")
        if not self.is_prefill and self.num_tokens != 1:
            raise ValueError("decode entries contribute exactly one token")


@dataclass(frozen=True)
class BatchLen:
    """The paper's BatchLen struct (§6).

    ``prefill_starts[i]`` is the token index where the i-th prefill request
    begins; ``num_prefill_tokens`` is the total length of the prefill
    section; ``num_decode`` is the count of decode requests (one token
    each) that follow it.
    """

    prefill_starts: tuple[int, ...]
    num_prefill_tokens: int
    num_decode: int

    def __post_init__(self) -> None:
        if self.num_prefill_tokens < 0 or self.num_decode < 0:
            raise ValueError("token counts must be nonnegative")
        if self.prefill_starts:
            if self.prefill_starts[0] != 0:
                raise ValueError("first prefill must start at token 0")
            diffs = np.diff(np.asarray(self.prefill_starts + (self.num_prefill_tokens,)))
            if (diffs <= 0).any():
                raise ValueError("prefill starts must be strictly increasing")
        elif self.num_prefill_tokens != 0:
            raise ValueError("no prefill requests but num_prefill_tokens != 0")

    @property
    def num_prefill(self) -> int:
        return len(self.prefill_starts)

    @property
    def total_tokens(self) -> int:
        return self.num_prefill_tokens + self.num_decode

    def prefill_lengths(self) -> list[int]:
        """Per-prefill-request sequence lengths."""
        bounds = list(self.prefill_starts) + [self.num_prefill_tokens]
        return [bounds[i + 1] - bounds[i] for i in range(len(self.prefill_starts))]


@dataclass(frozen=True)
class BatchPlan:
    """A fully planned model invocation — plain, immutable data.

    ``entries`` is the execution order (prefills then decodes, same-LoRA
    consecutive); ``seg``/``segment_lora_ids`` are the token-level SGMV
    segment indices shared by all layers of the invocation (paper §6:
    computed once per invocation, not ``7L`` times). The last three
    fields restate the plan in the shape its consumers read — the cost
    model's workload and the backends' per-request loops — filled by the
    planner so nothing is written to a plan after it is returned. The
    fast path holds one plan across every steady decode step of an
    unchanged batch (the engine's armed batch).
    """

    entries: tuple[BatchEntry, ...]
    batchlen: BatchLen
    seg: np.ndarray
    segment_lora_ids: tuple[str, ...]
    prefill_lens: tuple[int, ...]
    """Token count of each prefill entry, in plan order."""
    decode_ids: tuple[str, ...]
    """Request id of each decode entry, in plan order."""
    segment_sizes: tuple[int, ...]
    """Tokens per SGMV segment (``np.diff(seg)``)."""

    @property
    def batch_size(self) -> int:
        """Number of *requests* (the scheduler's batch-size metric)."""
        return len(self.entries)

    @property
    def total_tokens(self) -> int:
        return self.batchlen.total_tokens

    @property
    def num_lora_segments(self) -> int:
        return len(self.segment_lora_ids)

    def decode_entries(self) -> tuple[BatchEntry, ...]:
        return self.entries[len(self.prefill_lens):]


def plan_decode_batch(entries: Sequence[BatchEntry]) -> BatchPlan:
    """:func:`plan_batch` specialized to an all-decode batch.

    Field-for-field equal to ``plan_batch(entries)`` when every entry is
    a decode (same stable LoRA grouping, same segment boundaries): with
    no prefills the group order is simply first-seen submission order,
    each group is one token-level segment (adjacent groups have distinct
    LoRA ids and decodes contribute one token each), so the per-token
    segment scan collapses to a cumulative sum of group sizes. The
    engine re-arms its decode batch on every membership change, where
    this is the dominant cost.
    """
    if not entries:
        raise ValueError("cannot plan an empty batch")
    order: dict[str, list[BatchEntry]] = {}
    for e in entries:
        if e.is_prefill:
            raise ValueError("plan_decode_batch requires all-decode entries")
        group = order.get(e.lora_id)
        if group is None:
            order[e.lora_id] = [e]
        else:
            group.append(e)
    ordered: list[BatchEntry] = []
    sizes: list[int] = []
    for group in order.values():
        ordered.extend(group)
        sizes.append(len(group))
    seg = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=seg[1:])
    return BatchPlan(
        entries=tuple(ordered),
        batchlen=BatchLen(
            prefill_starts=(), num_prefill_tokens=0, num_decode=len(ordered)
        ),
        seg=seg,
        segment_lora_ids=tuple(order),
        prefill_lens=(),
        decode_ids=tuple(e.request_id for e in ordered),
        segment_sizes=tuple(sizes),
    )


def plan_batch(entries: Sequence[BatchEntry]) -> BatchPlan:
    """Order a batch and derive its ``BatchLen`` and SGMV segments.

    Ordering rules from §6:

    1. Prefill requests first (their relative order preserved), decode
       requests after.
    2. Decode requests are stably grouped by LoRA model.
    3. If any decode group matches the *last* prefill's LoRA model, that
       group is placed first so the prefill tail and decode head merge into
       one SGMV segment.
    """
    if not entries:
        raise ValueError("cannot plan an empty batch")
    prefills = [e for e in entries if e.is_prefill]
    decodes = [e for e in entries if not e.is_prefill]

    # Stable grouping of decodes by first-seen LoRA id.
    order: dict[str, list[BatchEntry]] = {}
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

    # BatchLen over the token-level layout.
    starts: list[int] = []
    cursor = 0
    for e in prefills:
        starts.append(cursor)
        cursor += e.num_tokens
    batchlen = BatchLen(
        prefill_starts=tuple(starts),
        num_prefill_tokens=cursor,
        num_decode=len(ordered_decodes),
    )

    # Token-level LoRA ids -> SGMV segments (adjacent equal ids merge).
    token_lora_ids: list[str] = []
    for e in ordered:
        token_lora_ids.extend([e.lora_id] * e.num_tokens)
    seg, run_ids = segments_from_lora_ids(token_lora_ids)

    return BatchPlan(
        entries=tuple(ordered),
        batchlen=batchlen,
        seg=seg,
        segment_lora_ids=tuple(str(r) for r in run_ids),
        prefill_lens=tuple(e.num_tokens for e in prefills),
        decode_ids=tuple(e.request_id for e in ordered_decodes),
        segment_sizes=tuple(np.diff(seg).tolist()),
    )
