"""Figure 7: roofline plot of the SGMV kernel.

Places the SGMV expand launch (h_in=16, h_out=4096, the paper's case
study) on the A100 roofline for batch sizes 1-64 under the four popularity
distributions. Paper shape: Distinct keeps constant arithmetic intensity
and climbs vertically (more parallelism); Identical rides the memory-
bandwidth diagonal; Uniform/Skewed sit in between. The table carries the
same points as an ASCII roofline (:attr:`FigureTable.plot`).
"""

from __future__ import annotations

from repro.bench.reporting import FigureTable
from repro.hw.kernels import KernelCostModel, SgmvWorkload
from repro.hw.roofline import RooflinePoint, ridge_point, roofline_ascii, roofline_bound
from repro.hw.spec import A100_80G, GpuSpec
from repro.utils.units import TB
from repro.workloads.popularity import POPULARITY_NAMES, segment_sizes_for

BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64)
H_IN, H_OUT = 16, 4096


def run_fig07(
    gpu: GpuSpec = A100_80G,
    batch_sizes: "tuple[int, ...]" = BATCH_SIZES,
) -> FigureTable:
    kcm = KernelCostModel(gpu)
    table = FigureTable(
        figure_id="Figure 7",
        title=f"SGMV roofline (h_in={H_IN}, h_out={H_OUT}, {gpu.name})",
        headers=[
            "distribution", "batch_size", "intensity_flop_per_byte",
            "achieved_tflops", "roof_tflops",
        ],
    )
    for dist in POPULARITY_NAMES:
        for bs in batch_sizes:
            segs = tuple(segment_sizes_for(dist, bs))
            work = SgmvWorkload(segments=segs, h_in=H_IN, h_out=H_OUT)
            latency = kcm.sgmv(work, standalone=True)
            intensity = work.arithmetic_intensity
            table.add_row(
                dist, bs, intensity,
                work.flop / latency / TB,
                roofline_bound(gpu, intensity) / TB,
            )
    table.add_note(f"ridge point: {ridge_point(gpu):.1f} FLOP/byte")
    table.add_note(
        "paper shape: Distinct = constant intensity rising with parallelism; "
        "Identical rides the bandwidth diagonal"
    )
    table.plot = fig07_ascii_plot(gpu, batch_sizes)
    return table


def fig07_ascii_plot(
    gpu: GpuSpec = A100_80G,
    batch_sizes: "tuple[int, ...]" = BATCH_SIZES,
) -> str:
    """The Fig 7 scatter as terminal art (d/u/s/i = the four workloads)."""
    kcm = KernelCostModel(gpu)
    points = []
    for dist in POPULARITY_NAMES:
        for bs in batch_sizes:
            segs = tuple(segment_sizes_for(dist, bs))
            work = SgmvWorkload(segments=segs, h_in=H_IN, h_out=H_OUT)
            points.append(
                RooflinePoint(
                    label=dist,
                    flop=work.flop,
                    io_bytes=work.io_bytes,
                    latency=kcm.sgmv(work, standalone=True),
                )
            )
    return roofline_ascii(gpu, points)


def fig07_claims(table: FigureTable) -> None:
    by_dist = {}
    for dist, bs, intensity, achieved, roof in table.rows:
        by_dist.setdefault(dist, {})[bs] = (intensity, achieved, roof)

    # Distinct: intensity constant across batch sizes, throughput grows.
    d = by_dist["distinct"]
    assert abs(d[64][0] - d[1][0]) / d[1][0] < 0.02
    assert d[64][1] > 5 * d[1][1]

    # Identical: intensity grows with batch (weight reuse), rides bandwidth
    # roof — bounded by h_in*h_out/(h_in+h_out) ~ 16 FLOP/byte as token IO
    # starts to dominate.
    i = by_dist["identical"]
    assert i[64][0] > 10 * i[1][0]

    # Nothing exceeds the roofline bound.
    for dist, bs, intensity, achieved, roof in table.rows:
        assert achieved <= roof * 1.0001, (dist, bs)

    # Uniform/Skewed sit between Distinct and Identical at bs 64.
    assert d[64][1] <= by_dist["uniform"][64][1] <= i[64][1] * 1.05
