"""Figure 1: batching effects in the prefill and decode stages.

Paper shape: prefill latency grows roughly linearly with batch size (the
GPU is already saturated); decode latency grows only mildly (11 -> 13 ms
for short sequences, 17 -> 34 ms for long ones over batch 1 -> 32 on a
Llama-2 7B / A100-80G).
"""

from __future__ import annotations

from repro.bench.reporting import FigureTable
from repro.hw.kernels import KernelCostModel
from repro.hw.spec import A100_80G, GpuSpec
from repro.models.config import LLAMA2_7B, LlamaConfig
from repro.models.perf import StepWorkload, model_step_latency
from repro.utils.units import MS

BATCH_SIZES = (1, 2, 4, 8, 16, 32)
SHORT_SEQ = 128
LONG_SEQ = 2048


def run_fig01(
    config: LlamaConfig = LLAMA2_7B,
    gpu: GpuSpec = A100_80G,
    batch_sizes: "tuple[int, ...]" = BATCH_SIZES,
) -> FigureTable:
    kcm = KernelCostModel(gpu)
    table = FigureTable(
        figure_id="Figure 1",
        title=f"Prefill vs decode batching latency ({config.name}, {gpu.name})",
        headers=["stage", "seq_len", "batch_size", "latency_ms"],
    )
    for seq_len in (SHORT_SEQ, LONG_SEQ):
        for bs in batch_sizes:
            work = StepWorkload(prefill_lens=(seq_len,) * bs)
            t = model_step_latency(config, kcm, work)
            table.add_row("prefill", seq_len, bs, t / MS)
    for seq_len in (SHORT_SEQ, LONG_SEQ):
        for bs in batch_sizes:
            work = StepWorkload(decode_kv_lens=(seq_len,) * bs)
            t = model_step_latency(config, kcm, work)
            table.add_row("decode", seq_len, bs, t / MS)
    table.add_note(
        "paper endpoints: decode 11->13 ms (short) and 17->34 ms (long) over bs 1->32"
    )
    return table


def fig01_claims(table: FigureTable) -> None:
    rows = {(r[0], r[1], r[2]): r[3] for r in table.rows}
    # Decode batching is nearly free for short sequences (11 -> 13 ms).
    assert rows[("decode", 128, 32)] < 1.6 * rows[("decode", 128, 1)]
    # ...but costs real time for long sequences (17 -> 34 ms).
    assert rows[("decode", 2048, 32)] > 2.0 * rows[("decode", 2048, 1)]
    # Prefill latency is roughly proportional to batch size.
    assert 12 < rows[("prefill", 2048, 32)] / rows[("prefill", 2048, 1)] < 40
