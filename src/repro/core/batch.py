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

Both planners work at *entry* granularity: a segment's size is the sum of
its entries' ``num_tokens``, so planning costs the same whether a prefill
carries 8 tokens or 2 048 (the token-level form — expand to one LoRA id
per token, run-length scan it back — is kept in ``tests/test_core_batch.py``
as the oracle). ``segment_lora_ids`` are the entries' ``lora_id`` objects
as given, never coerced. :class:`ArmedBatch` keeps a decode batch grouped
across steps, edited as requests join and leave, so a step lays its plan
out from the groups instead of regrouping the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Mapping, Sequence
from itertools import accumulate

import numpy as np

_NEVER = 1 << 62
"""A finish step no batch reaches: ``next_fin`` of an empty batch."""


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
            prev = 0
            for bound in self.prefill_starts[1:] + (self.num_prefill_tokens,):
                if bound <= prev:
                    raise ValueError("prefill starts must be strictly increasing")
                prev = bound
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
    consecutive); ``segment_lora_ids`` and ``segment_sizes`` are the SGMV
    segments shared by all layers of the invocation (paper §6: computed
    once per invocation, not ``7L`` times). ``prefill_lens`` and
    ``decode_ids`` restate the plan in the shape the cost model and the
    backends' per-request loops read. The token-level ``seg`` and the
    ``BatchLen`` only the functional model reads are derived from them
    on first read. The fast path holds one plan across every steady
    decode step of an unchanged batch (the engine's armed batch).
    """

    entries: tuple[BatchEntry, ...]
    segment_lora_ids: tuple[str, ...]
    prefill_lens: tuple[int, ...]
    """Token count of each prefill entry, in plan order."""
    decode_ids: tuple[str, ...]
    """Request id of each decode entry, in plan order."""
    segment_sizes: tuple[int, ...]
    """Tokens per SGMV segment."""

    @cached_property
    def seg(self) -> np.ndarray:
        """The token-level SGMV segment indices: ``segment_sizes``
        accumulated from 0."""
        return np.array([0, *accumulate(self.segment_sizes)], dtype=np.int64)

    @cached_property
    def batchlen(self) -> BatchLen:
        """The paper's ``BatchLen`` of the invocation."""
        lens = self.prefill_lens
        return BatchLen(
            prefill_starts=tuple(accumulate(lens[:-1], initial=0)) if lens else (),
            num_prefill_tokens=sum(lens),
            num_decode=len(self.decode_ids),
        )

    @property
    def batch_size(self) -> int:
        """Number of *requests* (the scheduler's batch-size metric)."""
        return len(self.entries)

    @property
    def total_tokens(self) -> int:
        return sum(self.prefill_lens) + len(self.decode_ids)

    @property
    def num_lora_segments(self) -> int:
        return len(self.segment_lora_ids)

    def decode_entries(self) -> tuple[BatchEntry, ...]:
        return self.entries[len(self.prefill_lens):]


def _assemble(
    prefills: "list[BatchEntry]", groups: "list[list[BatchEntry]]"
) -> BatchPlan:
    """Lay out prefills then decode groups and derive the SGMV segments in
    one walk over the prefills and one over the groups: a prefill either
    extends the open run or starts the next one, and so may the first
    decode group (the prefill tail / decode head merge); every later
    group is a run of its own, since the groups' LoRA ids are distinct.
    Nothing here is per token.
    """
    run_ids: list[object] = []
    sizes: list[int] = []
    for e in prefills:
        if run_ids and run_ids[-1] == e.lora_id:
            sizes[-1] += e.num_tokens
        else:
            run_ids.append(e.lora_id)
            sizes.append(e.num_tokens)
    decodes: list[BatchEntry] = []
    for group in groups:
        decodes.extend(group)
    if groups:
        lens = [len(g) for g in groups]
        loras = [g[0].lora_id for g in groups]
        if run_ids and run_ids[-1] == loras[0]:
            sizes[-1] += lens.pop(0)
            del loras[0]
        run_ids += loras
        sizes += lens
    return BatchPlan(
        entries=(*prefills, *decodes),
        segment_lora_ids=tuple(run_ids),
        prefill_lens=tuple([e.num_tokens for e in prefills]),
        decode_ids=tuple([e.request_id for e in decodes]),
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
    prefills: list[BatchEntry] = []
    order: dict[object, list[BatchEntry]] = {}
    for e in entries:
        if e.is_prefill:
            prefills.append(e)
        else:
            order.setdefault(e.lora_id, []).append(e)
    return plan_grouped(prefills, order)


def plan_grouped(
    prefills: "list[BatchEntry]", groups: "Mapping[object, list[BatchEntry]]"
) -> BatchPlan:
    """:func:`plan_batch` for decodes already grouped by rule 2: ``groups``
    maps each LoRA id to its decode entries, groups in the order of their
    first member. Applies rule 3 and lays the batch out; nothing here
    walks the decode entries one by one before :func:`_assemble` does.
    ``groups`` is only read — an :class:`ArmedBatch` keeps its groups
    across steps and edits them."""
    head = groups.get(prefills[-1].lora_id) if prefills else None
    if head is None:
        ordered = list(groups.values())
    else:
        ordered = [head]
        ordered.extend(g for g in groups.values() if g is not head)
    return _assemble(prefills, ordered)


class ArmedBatch:
    """The fast path's decode batch, edited as requests join and leave.

    From one step to the next the batch changes by the request that
    joins or leaves (§5), so an engine that arms edits this state at each
    change instead of regrouping its batch. ``groups``, ``ids``, ``fin``
    and ``total`` always describe the working set as of its next step;
    ``decode_plan`` is its pure-decode plan, which every edit clears and
    the engine lays again where it runs one: a pure decode step or a
    bulk run.

    Every member gains one KV slot and one token per decode step, so its
    moving state is held as offsets of one step count, ``steps``: its KV
    length is ``kv0[rid] + steps``, its token count ``tok0[i] + steps``,
    it finishes at step ``fin[i]``, and the step that starts at ``t``
    opens a KV page for exactly the members in ``pages[t % page_size]``.
    Advancing the batch ``n`` steps is then ``steps += n``, whatever its
    size (like Punica's ``BatchLenInfo``, the lengths are batch state);
    ``synced`` and ``base`` tell the engine how far its members' own
    records lag behind.
    """

    def __init__(self, page_size: "int | None" = None) -> None:
        self.groups: "dict[object, list[BatchEntry]]" = {}
        """The decode entries grouped by LoRA id (:func:`plan_batch`'s
        rule 2): each group in slot order, the groups in the slot order
        of their first members."""
        self.ids: "list[str]" = []
        """The batch's request ids, in slot order."""
        self.total = 0
        """``sum(kv_len + 1)`` over the batch at its next step."""
        self.steps = 0
        """Decode steps the batch has taken: the offset every member's
        KV length and countdown move with."""
        self.kv0: "dict[str, int]" = {}
        """Each member's KV length minus ``steps``."""
        self.tok0: "list[int]" = []
        """Each member's generated-token count minus ``steps``, in slot
        order: the index of the token the step that starts at step count
        ``s`` produces is ``tok0[i] + s`` (what the tracer's run blocks
        read)."""
        self.fin: "list[int]" = []
        """The step count at which each member (slot order) has produced
        its last token under its length limit (an EOS token may end it
        sooner on an engine whose tokens are real)."""
        self.next_fin = _NEVER
        """``min(fin)``: kept at each join and leave."""
        self.pages: "list[list[str]] | None" = (
            [[] for _ in range(page_size)] if page_size else None
        )
        """Page phases, when the batch holds them (``page_size`` given):
        ``pages[p]`` lists, in slot order, the members whose KV length is
        a multiple of the page size at every step count ``t`` with
        ``t % page_size == p`` — whose next token opens a page there."""
        self.synced = 0
        """The step count the members' own records (the engine's requests
        and allocator) were last brought up to."""
        self.base = 0
        """Token counter before step ``synced``'s bulk-committed tokens."""
        self.decode_plan: "BatchPlan | None" = None
        """The pure-decode plan of ``groups``; ``None`` after an edit
        until the engine lays it again."""
        self.hits = 0
        """Steps that ran on ``decode_plan``: scalar steps plus
        bulk-committed steps (diagnostic, like ``fast_steps``)."""
        self.misses = 0
        """Plans built: every step that does not run on ``decode_plan``
        and every laying of it (the ledger's ``plan_hit_rate`` reads
        it)."""
        self.member_passes = 0
        """Passes over the members' own records: write-backs to
        ``steps``, slot-by-slot KV reservations and slot-by-slot token
        commits (diagnostic, like ``hits``)."""

    def finishing(self) -> "list[str]":
        """The members whose last token the latest step produced, in slot
        order."""
        steps = self.steps
        return [rid for rid, f in zip(self.ids, self.fin) if f == steps]

    def plan(self, prefills: "list[BatchEntry]") -> BatchPlan:
        """``prefills`` followed by the batch's decodes, as
        :func:`plan_batch` would lay them out."""
        return plan_grouped(prefills, self.groups)

    def advance(self, steps: int = 1) -> None:
        """``steps`` decode steps of the whole batch: each request's KV
        grows and its countdown falls by ``steps``."""
        self.steps += steps
        self.total += steps * len(self.ids)

    def join(
        self, pos: int, entry: BatchEntry, kv_len: int, left: int, generated: int
    ) -> None:
        """Insert ``entry``'s request at slot position ``pos``, holding
        ``kv_len`` KV tokens and ``generated`` tokens with ``left`` still
        to generate. A join at the tail appends to its group or opens one
        at the end; one mid-order inserts in slot order and re-sorts the
        groups."""
        ids = self.ids
        rid = entry.request_id
        tail = pos == len(ids)
        steps = self.steps
        self.kv0[rid] = kv_len - steps
        self.tok0.insert(pos, generated - steps)
        self.fin.insert(pos, steps + left)
        self.next_fin = min(self.next_fin, steps + left)
        if self.pages is not None:
            phase = self.pages[(steps - kv_len) % len(self.pages)]
            if tail:
                phase.append(rid)
            else:
                ahead = set(ids[:pos])
                phase.insert(sum(r in ahead for r in phase), rid)
        ids.insert(pos, rid)
        self.total += kv_len + 1
        self.decode_plan = None
        group = self.groups.get(entry.lora_id)
        if group is None:
            self.groups[entry.lora_id] = [entry]
            if not tail:
                self._resort()
        elif tail:
            group.append(entry)
        else:
            members = {e.request_id for e in group}
            at = sum(r in members for r in ids[:pos])
            group.insert(at, entry)
            if not at:
                self._resort()

    def leave(self, entry: BatchEntry) -> None:
        """Drop ``entry``'s request. A group that loses its first member
        re-sorts by its new one."""
        rid = entry.request_id
        i = self.ids.index(rid)
        del self.ids[i]
        del self.tok0[i]
        kv0 = self.kv0.pop(rid)
        if self.fin.pop(i) == self.next_fin:
            self.next_fin = min(self.fin, default=_NEVER)
        if self.pages is not None:
            self.pages[(-kv0) % len(self.pages)].remove(rid)
        self.total -= kv0 + self.steps + 1
        self.decode_plan = None
        group = self.groups[entry.lora_id]
        if len(group) == 1:
            del self.groups[entry.lora_id]
            return
        at = group.index(entry)
        del group[at]
        if not at:
            self._resort()

    def _resort(self) -> None:
        at = {rid: i for i, rid in enumerate(self.ids)}
        self.groups = dict(sorted(
            self.groups.items(), key=lambda item: at[item[1][0].request_id]
        ))
