"""Paged KvCache with real storage, in the paper's layout (§5.4).

:class:`KvPool` is the *accounting* view the scheduler and engine use: it
wraps a :class:`~repro.kvcache.page.PageAllocator` sized from a byte budget
and a model configuration. :class:`PagedKvData` adds actual NumPy storage
in the paper's ``[pages, L, 2, N, P, D]`` layout, used by the functional
(toy-scale) backend so that paged attention is numerically exercised — the
K/V vectors a request reads back are exactly the ones it wrote, regardless
of how pages were recycled in between.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.kvcache.page import PageAllocator


def kv_bytes_per_token(
    num_layers: int, num_kv_heads: int, head_dim: int, dtype_bytes: int = 2
) -> int:
    """Bytes of KvCache one token occupies: ``L * 2 * N_kv * D * dtype``."""
    if min(num_layers, num_kv_heads, head_dim, dtype_bytes) <= 0:
        raise ValueError("all KvCache dimensions must be positive")
    return num_layers * 2 * num_kv_heads * head_dim * dtype_bytes


class KvPool:
    """Byte-budgeted paged KvCache accounting for one GPU.

    Parameters
    ----------
    capacity_bytes:
        GPU memory reserved for KvCache (total memory minus backbone
        weights minus activation workspace).
    page_size:
        Tokens per page (the paper's ``P``).
    bytes_per_token:
        From :func:`kv_bytes_per_token` for the served model.
    """

    def __init__(self, capacity_bytes: float, page_size: int, bytes_per_token: int):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        if bytes_per_token <= 0:
            raise ValueError(f"bytes_per_token must be positive, got {bytes_per_token}")
        page_bytes = page_size * bytes_per_token
        total_pages = int(capacity_bytes // page_bytes)
        if total_pages <= 0:
            raise ValueError(
                f"capacity {capacity_bytes} bytes holds no {page_bytes}-byte page"
            )
        self.page_size = page_size
        self.bytes_per_token = bytes_per_token
        self.allocator = PageAllocator(total_pages=total_pages, page_size=page_size)

    # Delegation keeps one source of truth for the allocation logic.
    @property
    def total_pages(self) -> int:
        return self.allocator.total_pages

    @property
    def free_pages(self) -> int:
        """Pages guaranteed allocatable right now."""
        return self.allocator.free_pages

    @property
    def free_tokens(self) -> int:
        """Guaranteed-admittable token capacity right now."""
        return self.allocator.free_pages * self.page_size

    def can_admit(self, prompt_len: int) -> bool:
        """Whether a new request's prompt fits."""
        return self.allocator.can_allocate(prompt_len)

    def allocate(self, seq_id: str, seq_len: int) -> list[int]:
        return self.allocator.allocate(seq_id, seq_len)

    def can_append(self, seq_id: str, n: int = 1) -> bool:
        return self.allocator.can_append(seq_id, n)

    def append(self, seq_id: str, n: int = 1) -> list[int]:
        return self.allocator.append(seq_id, n)

    def append_many(self, seq_ids) -> None:
        """One token per sequence; the caller guarantees a free page each."""
        self.allocator.append_tokens(seq_ids)

    def truncate(self, seq_id: str, new_len: int) -> int:
        """Roll a sequence back to ``new_len`` tokens; returns pages released."""
        return self.allocator.truncate(seq_id, new_len)

    def free(self, seq_id: str) -> int:
        return self.allocator.free(seq_id)

    def export_sequence(self, seq_id: str) -> int:
        return self.allocator.export_sequence(seq_id)

    def import_sequence(self, seq_id: str, seq_len: int) -> list[int]:
        return self.allocator.import_sequence(seq_id, seq_len)

    def bytes_of(self, num_tokens: int) -> float:
        """Wire bytes of ``num_tokens`` of KV history (page-granular copies
        still only move the written token slots)."""
        if num_tokens < 0:
            raise ValueError(f"num_tokens must be nonnegative, got {num_tokens}")
        return float(num_tokens) * self.bytes_per_token

    def seq_len(self, seq_id: str) -> int:
        return self.allocator.seq_len(seq_id)

    def __contains__(self, seq_id: str) -> bool:
        return seq_id in self.allocator

    def used_bytes(self) -> int:
        return self.allocator.used_pages * self.page_size * self.bytes_per_token


class DecodeRows(NamedTuple):
    """Where one decode step reads and writes: one row per sequence.

    The paper's BatchDecode launch (§5.4/§6) takes every decode request's
    page list at once; this is that argument, built once per invocation
    by :meth:`PagedKvData.decode_rows` and shared by all layers.
    """

    seq_ids: tuple[str, ...]
    positions: np.ndarray
    """``(n,)`` position the step's token is written at; the token attends
    to history positions ``<= positions[i]``."""
    table: np.ndarray
    """``(n, max_pages)`` page ids, rows of shorter sequences padded with
    page 0 (whatever it holds is masked out)."""
    write_page: np.ndarray
    write_slot: np.ndarray
    masked: np.ndarray
    """``(n, max_pages * page_size)`` — True where a gathered slot lies
    past the row's position: padding, or stale K/V in a recycled page."""


class PagedKvData:
    """Paged KvCache with real storage: ``data[page, layer, kv, head, slot, dim]``.

    Writes go through ``(seq page list, in-page slot)`` indirection just
    like the CUDA kernels do; :meth:`gather` linearizes one sequence's
    history for the attention computation, and :meth:`decode_rows` /
    :meth:`write_decode` / :meth:`gather_decode` serve a whole decode
    batch with one indexed operation per tensor.
    """

    def __init__(
        self,
        total_pages: int,
        page_size: int,
        num_layers: int,
        num_kv_heads: int,
        head_dim: int,
        dtype: np.dtype = np.float32,
    ):
        self.allocator = PageAllocator(total_pages=total_pages, page_size=page_size)
        self.page_size = page_size
        self.num_layers = num_layers
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self.data = np.zeros(
            (total_pages, num_layers, 2, num_kv_heads, page_size, head_dim), dtype=dtype
        )
        self._lengths: dict[str, int] = {}

    def allocate(self, seq_id: str, seq_len: int) -> None:
        """Reserve pages for ``seq_len`` tokens (written via :meth:`write_token`)."""
        self.allocator.allocate(seq_id, seq_len)
        self._lengths[seq_id] = 0

    def append_slot(self, seq_id: str) -> None:
        """Reserve space for one more token of an existing sequence."""
        self.allocator.append(seq_id, 1)

    def truncate(self, seq_id: str, new_len: int) -> int:
        """Roll back to ``new_len`` tokens: release the pages past it and
        forget any K/V written beyond — :meth:`gather` never reads past
        the written length, so stale slots in the kept tail page are
        unobservable and get overwritten on the next append."""
        released = self.allocator.truncate(seq_id, new_len)
        self._lengths[seq_id] = min(self._lengths[seq_id], new_len)
        return released

    def free(self, seq_id: str) -> None:
        self.allocator.free(seq_id)
        del self._lengths[seq_id]

    def write_token(
        self, seq_id: str, layer: int, position: int, k: np.ndarray, v: np.ndarray
    ) -> None:
        """Store one token's K and V for one layer. Shapes ``(N_kv, D)``."""
        self.write_tokens(seq_id, layer, position, k[None], v[None])

    def write_tokens(
        self, seq_id: str, layer: int, start: int, k: np.ndarray, v: np.ndarray
    ) -> None:
        """Store K and V of the consecutive tokens ``start, start + 1, ...``
        of one sequence for one layer. Shapes ``(tokens, N_kv, D)``."""
        expected = (self.num_kv_heads, self.head_dim)
        if k.shape != v.shape or k.ndim != 3 or k.shape[1:] != expected:
            raise ValueError(
                f"k/v must have shape (tokens, {expected[0]}, {expected[1]}), "
                f"got {k.shape}/{v.shape}"
            )
        stop = start + k.shape[0]
        pages = self.allocator.pages_of(seq_id)
        if stop > len(pages) * self.page_size:
            raise IndexError(
                f"position {stop - 1} beyond allocated pages of {seq_id!r}"
            )
        page_idx, slot = np.divmod(np.arange(start, stop), self.page_size)
        page = np.asarray(pages, dtype=np.int64)[page_idx]
        self.data[page, layer, 0, :, slot, :] = k
        self.data[page, layer, 1, :, slot, :] = v
        if layer == self.num_layers - 1:
            self._lengths[seq_id] = max(self._lengths[seq_id], stop)

    def decode_rows(self, seq_ids, positions) -> DecodeRows:
        """Page table, write slots and length mask of one decode step:
        sequence ``seq_ids[i]`` writes its token at ``positions[i]``."""
        seq_ids = tuple(seq_ids)
        positions = np.asarray(positions, dtype=np.int64)
        if not seq_ids or positions.shape != (len(seq_ids),):
            raise ValueError("decode_rows needs sequences and one position for each")
        page_size = self.page_size
        page_idx, write_slot = np.divmod(positions, page_size)
        table = np.zeros((len(seq_ids), int(page_idx.max()) + 1), dtype=np.int64)
        for i, (seq_id, last) in enumerate(zip(seq_ids, page_idx.tolist())):
            pages = self.allocator.pages_of(seq_id)
            if last >= len(pages):
                raise IndexError(
                    f"position {positions[i]} beyond allocated pages of {seq_id!r}"
                )
            table[i, : last + 1] = pages[: last + 1]
        return DecodeRows(
            seq_ids=seq_ids,
            positions=positions,
            table=table,
            write_page=table[np.arange(len(seq_ids)), page_idx],
            write_slot=write_slot,
            masked=np.arange(table.shape[1] * page_size) > positions[:, None],
        )

    def write_decode(self, rows: DecodeRows, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Store every row's token for one layer. Shapes ``(n, N_kv, D)``."""
        expected = (len(rows.seq_ids), self.num_kv_heads, self.head_dim)
        if k.shape != expected or v.shape != expected:
            raise ValueError(f"k/v must have shape {expected}, got {k.shape}/{v.shape}")
        self.data[rows.write_page, layer, 0, :, rows.write_slot, :] = k
        self.data[rows.write_page, layer, 1, :, rows.write_slot, :] = v
        if layer == self.num_layers - 1:
            lengths = self._lengths
            for seq_id, position in zip(rows.seq_ids, rows.positions.tolist()):
                lengths[seq_id] = max(lengths[seq_id], position + 1)

    def gather_decode(self, rows: DecodeRows, layer: int, kv: int) -> np.ndarray:
        """K (``kv=0``) or V (``kv=1``) pages of every row:
        ``(n, N_kv, max_pages * page_size, D)``, to be read under
        ``rows.masked``."""
        n, max_pages = rows.table.shape
        heads = np.arange(self.num_kv_heads)
        pages = self.data[rows.table[:, None, :], layer, kv, heads[None, :, None]]
        return pages.reshape(n, self.num_kv_heads, max_pages * self.page_size, self.head_dim)

    def written_len(self, seq_id: str) -> int:
        """Tokens fully written (all layers) for ``seq_id``."""
        if seq_id not in self._lengths:
            raise KeyError(f"unknown sequence {seq_id!r}")
        return self._lengths[seq_id]

    def gather(self, seq_id: str, layer: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Linearize the first ``length`` tokens of K and V: ``(N_kv, length, D)``."""
        pages = self.allocator.pages_of(seq_id)
        if length > len(pages) * self.page_size:
            raise IndexError(f"length {length} beyond pages of {seq_id!r}")
        k_parts, v_parts = [], []
        remaining = length
        for page in pages:
            if remaining <= 0:
                break
            take = min(self.page_size, remaining)
            k_parts.append(self.data[page, layer, 0, :, :take, :])
            v_parts.append(self.data[page, layer, 1, :, :take, :])
            remaining -= take
        k = np.concatenate(k_parts, axis=1) if k_parts else np.zeros(
            (self.num_kv_heads, 0, self.head_dim), dtype=self.data.dtype
        )
        v = np.concatenate(v_parts, axis=1) if v_parts else np.zeros_like(k)
        return k, v
