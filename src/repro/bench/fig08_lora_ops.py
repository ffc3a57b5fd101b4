"""Figure 8: LoRA operator microbenchmark — Loop vs Gather-BMM vs SGMV.

Latency (us) of the full batched LoRA addon on h=4096, rank 16, across the
four popularity distributions, batch sizes 1-64, in the standalone-op
setting the paper measures. Gather and BMM are also reported separately,
as in the paper's dagger footnote. Paper endpoints: SGMV 37 us (bs 1),
~75-116 us (Distinct bs 64), ~40 us (Identical bs 64); Loop and Gather-BMM
far above on multi-LoRA workloads.
"""

from __future__ import annotations

from repro.bench.reporting import FigureTable
from repro.hw.kernels import KernelCostModel
from repro.hw.spec import A100_80G, GpuSpec
from repro.utils.units import US
from repro.workloads.popularity import POPULARITY_NAMES, segment_sizes_for

BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64)
H = 4096
RANK = 16


def run_fig08(
    gpu: GpuSpec = A100_80G,
    batch_sizes: "tuple[int, ...]" = BATCH_SIZES,
    h: int = H,
    rank: int = RANK,
) -> FigureTable:
    kcm = KernelCostModel(gpu)
    table = FigureTable(
        figure_id="Figure 8",
        title=f"LoRA operator latency, h={h}, rank={rank} ({gpu.name})",
        headers=[
            "distribution", "batch_size",
            "loop_us", "gather_bmm_us", "sgmv_us", "gather_us", "bmm_us",
        ],
    )
    for dist in POPULARITY_NAMES:
        for bs in batch_sizes:
            segs = segment_sizes_for(dist, bs)
            n, s_n = len(segs), sum(segs)
            loop = kcm.loop_lora(segs, h, h, rank)
            gbmm = kcm.gather_bmm_lora(segs, h, h, rank)
            sgmv = kcm.lora_addon(segs, h, h, rank, standalone=True)
            gather = kcm.gather(n, s_n, h, rank) + kcm.gather(n, s_n, rank, h)
            bmm = kcm.bmm(s_n, 1, rank, h) + kcm.bmm(s_n, 1, h, rank)
            table.add_row(dist, bs, loop / US, gbmm / US, sgmv / US, gather / US, bmm / US)
    table.add_note("paper: SGMV 37us at bs1; Identical stays ~40us at bs64")
    return table


def fig08_claims(table: FigureTable) -> None:
    rows = {(r[0], r[1]): r for r in table.rows}
    # Paper endpoints: SGMV ~37us at bs1, flat for Identical.
    sgmv_bs1 = rows[("distinct", 1)][4]
    assert 30 < sgmv_bs1 < 45
    assert rows[("identical", 64)][4] < 1.25 * sgmv_bs1
    # SGMV beats Gather-BMM beats Loop on Distinct bs 64.
    dist64 = rows[("distinct", 64)]
    loop, gbmm, sgmv = dist64[2], dist64[3], dist64[4]
    assert sgmv < gbmm < loop
    assert loop > 10 * sgmv
