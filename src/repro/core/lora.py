"""LoRA weight containers and the multi-tenant model registry.

A LoRA model (Hu et al., 2022) adds a rank-``r`` delta ``A @ B`` to each
targeted dense projection of the backbone. Following the paper (§7:
"LoRA is applied to all dense projections"), every projection in the
transformer layer — q, k, v, o, gate, up, down — carries its own
``(A, B)`` pair per layer.

:class:`LoraRegistry` is the tenant-facing catalogue: it owns the weights
for every registered LoRA model, reports their byte sizes (what the
on-demand loader copies over PCIe), and stacks per-model weights into the
``(num_models, h_in, h_out)`` arrays SGMV consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.rng import new_rng

if TYPE_CHECKING:
    from repro.core.batch import BatchPlan

#: Projection names LoRA attaches to, in layer order.
TARGET_PROJECTIONS = ("q", "k", "v", "o", "gate", "up", "down")


@dataclass(frozen=True)
class LoraLayerWeights:
    """The ``(A, B)`` pair for one projection in one layer.

    ``wa`` has shape ``(h_in, rank)`` and ``wb`` ``(rank, h_out)``, so the
    addon is ``x @ wa @ wb`` (row-vector convention, as in the paper's
    ``y += x A B``).
    """

    wa: np.ndarray
    wb: np.ndarray

    def __post_init__(self) -> None:
        if self.wa.ndim != 2 or self.wb.ndim != 2:
            raise ValueError("wa and wb must be 2-D")
        if self.wa.shape[1] != self.wb.shape[0]:
            raise ValueError(
                f"rank mismatch: wa is {self.wa.shape}, wb is {self.wb.shape}"
            )

    @property
    def rank(self) -> int:
        return self.wa.shape[1]

    @property
    def h_in(self) -> int:
        return self.wa.shape[0]

    @property
    def h_out(self) -> int:
        return self.wb.shape[1]

    @property
    def nbytes(self) -> int:
        """Size when stored fp16 (the paper serves fp16 weights)."""
        return 2 * (self.wa.size + self.wb.size)

    def delta(self) -> np.ndarray:
        """The dense weight delta ``A @ B`` (used by merged-weight tests)."""
        return self.wa @ self.wb

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Compute the addon ``x @ A @ B`` without materializing the delta."""
        return (x @ self.wa) @ self.wb


@dataclass(frozen=True)
class LoraModelWeights:
    """All LoRA weights for one fine-tuned model: ``layers[layer][proj]``."""

    model_id: str
    layers: tuple[dict[str, LoraLayerWeights], ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("LoRA model must cover at least one layer")
        for i, layer in enumerate(self.layers):
            missing = [p for p in TARGET_PROJECTIONS if p not in layer]
            extra = [p for p in layer if p not in TARGET_PROJECTIONS]
            if missing or extra:
                raise ValueError(
                    f"layer {i}: missing projections {missing}, unknown {extra}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def rank(self) -> int:
        return self.layers[0]["q"].rank

    @property
    def nbytes(self) -> int:
        """Total fp16 bytes — what one on-demand load transfers (§5.2)."""
        return sum(w.nbytes for layer in self.layers for w in layer.values())

    def layer_nbytes(self, layer: int) -> int:
        """Bytes of one layer's LoRA weights (the paper's ~50 us PCIe unit)."""
        return sum(w.nbytes for w in self.layers[layer].values())


def random_lora_weights(
    model_id: str,
    num_layers: int,
    proj_dims: "dict[str, tuple[int, int]]",
    rank: int,
    seed: "int | np.random.Generator | None" = None,
    dtype: np.dtype = np.float32,
    scale: float = 0.01,
) -> LoraModelWeights:
    """Create a LoRA model with random weights (the paper does the same, §7).

    ``proj_dims[p] = (h_in, h_out)`` gives each projection's backbone shape.
    """
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    if num_layers <= 0:
        raise ValueError(f"num_layers must be positive, got {num_layers}")
    rng = new_rng(seed)
    layers = []
    for _ in range(num_layers):
        layer: dict[str, LoraLayerWeights] = {}
        for proj in TARGET_PROJECTIONS:
            if proj not in proj_dims:
                raise ValueError(f"proj_dims missing projection {proj!r}")
            h_in, h_out = proj_dims[proj]
            wa = rng.standard_normal((h_in, rank)).astype(dtype) * scale
            wb = rng.standard_normal((rank, h_out)).astype(dtype) * scale
            layer[proj] = LoraLayerWeights(wa=wa, wb=wb)
        layers.append(layer)
    return LoraModelWeights(model_id=model_id, layers=tuple(layers))


@dataclass
class LoraRegistry:
    """Catalogue of every LoRA model known to the serving system."""

    _models: dict[str, LoraModelWeights] = field(default_factory=dict)

    def register(self, weights: LoraModelWeights) -> None:
        if weights.model_id in self._models:
            raise ValueError(f"LoRA model {weights.model_id!r} already registered")
        self._models[weights.model_id] = weights

    def get(self, model_id: str) -> LoraModelWeights:
        try:
            return self._models[model_id]
        except KeyError:
            raise KeyError(f"unknown LoRA model {model_id!r}") from None

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._models

    def __len__(self) -> int:
        return len(self._models)

    @property
    def model_ids(self) -> list[str]:
        return list(self._models)

    def nbytes(self, model_id: str) -> int:
        return self.get(model_id).nbytes

    def stack(
        self, model_ids: "list[str]", layer: int, proj: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack ``(A, B)`` for ``model_ids`` into SGMV weight arrays.

        Returns ``(wa_stack, wb_stack)`` with shapes
        ``(n, h_in, rank)`` and ``(n, rank, h_out)``. All models must share
        the same rank and projection dims (same backbone, as in Punica).
        """
        if not model_ids:
            raise ValueError("model_ids must be non-empty")
        pairs = [self.get(mid).layers[layer][proj] for mid in model_ids]
        ranks = {p.rank for p in pairs}
        if len(ranks) != 1:
            raise ValueError(
                f"mixed ranks in one SGMV stack: {sorted(ranks)} "
                f"(use stack_padded to serve heterogeneous ranks)"
            )
        wa = np.stack([p.wa for p in pairs])
        wb = np.stack([p.wb for p in pairs])
        return wa, wb

    def stack_padded(
        self, model_ids: "list[str]", layer: int, proj: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack ``(A, B)`` pairs of *heterogeneous* ranks, zero-padded.

        Each model's ``A`` gains zero columns and ``B`` zero rows up to the
        batch's maximum rank, which leaves ``A @ B`` bit-identical — the
        standard way to serve mixed-rank tenants through one SGMV launch
        (the paper evaluates a single rank; its follow-ons pad like this).
        The cost is SGMV executing at the max rank for every segment.
        """
        if not model_ids:
            raise ValueError("model_ids must be non-empty")
        pairs = [self.get(mid).layers[layer][proj] for mid in model_ids]
        max_rank = max(p.rank for p in pairs)
        h_in = pairs[0].h_in
        h_out = pairs[0].h_out
        for p in pairs:
            if p.h_in != h_in or p.h_out != h_out:
                raise ValueError("all models in one stack must share projection dims")
        # The widest dtype in the stack, so no adapter is rounded to the
        # precision of whichever happened to be listed first.
        wa = np.zeros(
            (len(pairs), h_in, max_rank), dtype=np.result_type(*(p.wa for p in pairs))
        )
        wb = np.zeros(
            (len(pairs), max_rank, h_out), dtype=np.result_type(*(p.wb for p in pairs))
        )
        for i, p in enumerate(pairs):
            wa[i, :, : p.rank] = p.wa
            wb[i, : p.rank, :] = p.wb
        return wa, wb


def _fit(old: "np.ndarray | None", shape: tuple[int, ...], dtype) -> np.ndarray:
    """``old`` if it already covers ``shape`` and holds ``dtype`` exactly;
    otherwise a zeroed array that does, with ``old`` copied in."""
    if old is None:
        return np.zeros(shape, dtype=dtype)
    shape = tuple(map(max, shape, old.shape))
    dtype = np.result_type(old.dtype, dtype)
    if old.shape == shape and old.dtype == dtype:
        return old
    new = np.zeros(shape, dtype=dtype)
    new[tuple(slice(0, n) for n in old.shape)] = old
    return new


class LoraSlab:
    """Adapter weights resident kernel-side, gathered by slot (paper §4).

    The "G" of SGMV: the kernel reads each segment's ``A``/``B`` through a
    per-batch index into weights that already sit in GPU memory; a step
    never copies an adapter. Per ``(layer, projection)`` the slab holds
    one ``(slots, h_in, r)`` / ``(slots, r, h_out)`` pair in the adapters'
    own dtype (widened, exactly, if a later adapter needs it). An adapter
    is copied in once, through :meth:`LoraRegistry.stack_padded`, when a
    plan first names it; :meth:`gather` is then one fancy index per
    weight array.

    The slab is a copy for the kernels, not a residency store: it holds
    the batch working set, never the registry, and is not consulted for
    admission or byte accounting (that is ``GpuAdapterStore``). Capacity
    is the largest number of distinct adapters one plan has needed; the
    adapters of the plan being placed are never replaced, anything else
    is, least recently used first.
    """

    def __init__(self, registry: LoraRegistry):
        self.registry = registry
        self._slot_of: dict[str, int] = {}
        """adapter id -> slot, least recently used first."""
        self._free: list[int] = []
        self._num_layers: int | None = None
        self._tables: dict[tuple[int, str], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        """``(layer, proj) -> (wa, wb, rank of each slot)``."""
        self._placed: "tuple[BatchPlan, np.ndarray, dict] | None" = None
        """The last plan placed, its slot vector and its padded rank per
        ``(layer, proj)``: the ``7L`` addons of an invocation, and every
        step of an unchanged batch, share them."""

    @property
    def num_slots(self) -> int:
        return len(self._slot_of) + len(self._free)

    @property
    def resident_ids(self) -> list[str]:
        """Adapters held, least recently used first."""
        return list(self._slot_of)

    def _place(self, plan: "BatchPlan") -> "tuple[BatchPlan, np.ndarray, dict]":
        placed = self._placed
        if placed is not None and placed[0] is plan:
            return placed
        self._placed = None  # replacements below invalidate its slots
        ids = plan.segment_lora_ids
        slot_of = self._slot_of
        wanted = dict.fromkeys(ids)
        for lora_id in wanted:
            self.registry.get(lora_id)  # an unknown adapter fails before any eviction
            if lora_id in slot_of:
                slot_of[lora_id] = slot_of.pop(lora_id)  # most recently used last
        self._free.extend(range(self.num_slots, len(wanted)))
        for lora_id in wanted:
            if lora_id in slot_of:
                continue
            # Every resident adapter of this plan was just moved to the
            # back, and capacity covers the plan, so with no free slot the
            # front of the LRU order is an adapter this plan does not use.
            if not self._free:
                self._free.append(slot_of.pop(next(iter(slot_of))))
            self._load(lora_id, self._free[-1])
            slot_of[lora_id] = self._free.pop()
        slots = np.fromiter((slot_of[i] for i in ids), dtype=np.int64, count=len(ids))
        self._placed = placed = (plan, slots, {})
        return placed

    def _load(self, lora_id: str, slot: int) -> None:
        """Copy one adapter into ``slot``, every layer and projection."""
        model = self.registry.get(lora_id)
        if self._num_layers is None:
            self._num_layers = model.num_layers
        if model.num_layers != self._num_layers:
            raise ValueError(
                f"{lora_id!r} covers {model.num_layers} layers, the slab's "
                f"adapters cover {self._num_layers}"
            )
        n = self.num_slots
        for layer in range(model.num_layers):
            for proj in TARGET_PROJECTIONS:
                wa, wb = self.registry.stack_padded([lora_id], layer, proj)
                _, h_in, rank = wa.shape
                h_out = wb.shape[2]
                old = self._tables.get((layer, proj), (None, None, None))
                if old[0] is not None and (
                    old[0].shape[1] != h_in or old[1].shape[2] != h_out
                ):
                    raise ValueError("all models in one stack must share projection dims")
                table_a = _fit(old[0], (n, h_in, rank), wa.dtype)
                table_b = _fit(old[1], (n, rank, h_out), wb.dtype)
                ranks = _fit(old[2], (n,), np.int64)
                # Zero first: the last tenant may have had a higher rank.
                table_a[slot] = 0
                table_b[slot] = 0
                table_a[slot, :, :rank] = wa[0]
                table_b[slot, :rank] = wb[0]
                ranks[slot] = rank
                self._tables[layer, proj] = (table_a, table_b, ranks)

    def gather(
        self, plan: "BatchPlan", layer: int, proj: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """``registry.stack_padded(plan.segment_lora_ids, layer, proj)`` read
        from the slab: one row per SGMV segment, zero-padded to the
        largest rank in the batch."""
        _, slots, ranks = self._place(plan)
        table_a, table_b, slot_ranks = self._tables[layer, proj]
        rank = ranks.get((layer, proj))
        if rank is None:
            rank = ranks[layer, proj] = int(slot_ranks[slots].max())
        return table_a[slots][:, :, :rank], table_b[slots][:, :rank]
