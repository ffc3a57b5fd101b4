"""Layer-by-layer LoRA loading (the §5.2 alternative Punica chose not to need).

The paper notes that since PCIe copies overlap with compute, "it is
feasible to implement sophisticated layer-by-layer or even matrix-by-
matrix loading to minimize the model loading delay" — but opts for simple
whole-model loading because a full LoRA load (~2-3 ms) already hides
behind one ~30 ms decode step. This module implements the sophisticated
variant so the trade-off can be quantified (``repro loading``):

* :class:`LayeredTransferPlan` — one async copy per layer, issued
  back-to-back on the PCIe link;
* :func:`pipelined_prefill_finish` — completion time of a prefill whose
  layer ``i`` may only start once layer ``i``'s weights have landed;
* :func:`time_to_first_token` — for both strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.pcie import PcieSpec
from repro.utils.validation import check_nonnegative


@dataclass(frozen=True)
class LayeredTransferPlan:
    """Per-layer asynchronous copies sharing one PCIe link (serialized)."""

    start: float
    layer_finishes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.layer_finishes:
            raise ValueError("plan needs at least one layer")
        prev = self.start
        for i, t in enumerate(self.layer_finishes):
            if t < prev:
                raise ValueError(f"layer {i} finishes at {t} before {prev}")
            prev = t

    @property
    def finish(self) -> float:
        return self.layer_finishes[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_finishes)

    def layers_ready(self, t: float) -> int:
        """How many leading layers have fully landed by time ``t``."""
        ready = 0
        for finish in self.layer_finishes:
            if finish <= t:
                ready += 1
            else:
                break
        return ready


def plan_layered_transfer(
    pcie: PcieSpec, layer_bytes: "list[float]", start: float
) -> LayeredTransferPlan:
    """Issue one copy per layer back-to-back on the link.

    Each copy pays the link's fixed latency — the overhead that makes
    many small copies slower in aggregate than one big one.
    """
    if not layer_bytes:
        raise ValueError("layer_bytes must be non-empty")
    finishes = []
    t = start
    for nbytes in layer_bytes:
        check_nonnegative("layer bytes", nbytes)
        t += pcie.transfer_time(nbytes)
        finishes.append(t)
    return LayeredTransferPlan(start=start, layer_finishes=tuple(finishes))


def pipelined_prefill_finish(
    plan: LayeredTransferPlan, layer_compute_time: float, compute_start: float
) -> float:
    """Finish time of a prefill pipelined against the layered load.

    Layer ``i``'s compute starts at ``max(previous layer done, weights of
    layer i landed)`` — the classic two-stage pipeline bound.
    """
    check_nonnegative("layer_compute_time", layer_compute_time)
    t = compute_start
    for finish in plan.layer_finishes:
        t = max(t, finish) + layer_compute_time
    return t


def time_to_first_token(
    pcie: PcieSpec,
    layer_bytes: "list[float]",
    layer_compute_time: float,
    layered: bool,
    start: float = 0.0,
) -> float:
    """TTFT of a fresh request whose LoRA is not yet resident.

    Whole-model strategy: compute starts only after the single big copy
    lands. Layered strategy: compute pipelines against per-layer copies.
    """
    if layered:
        plan = plan_layered_transfer(pcie, layer_bytes, start)
        return pipelined_prefill_finish(plan, layer_compute_time, start)
    whole = pcie.transfer_time(sum(layer_bytes))
    return start + whole + layer_compute_time * len(layer_bytes)
