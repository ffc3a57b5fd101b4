"""Wall-clock of the three *numerically real* LoRA operators (Figure 8).

``repro fig08`` prints the modelled A100 latencies that reproduce the
figure; these benches time the NumPy Loop, Gather-BMM and SGMV
implementations on the host CPU, confirming SGMV's IO argument holds for
the NumPy implementations too.
"""

import numpy as np
import pytest

from repro.core.ops import add_lora_gather_bmm, add_lora_loop, add_lora_sgmv
from repro.core.segments import segments_from_sizes
from repro.utils.rng import new_rng
from repro.workloads.popularity import segment_sizes_for


def _problem(dist, bs=64, h=1024, rank=16, seed=0):
    sizes = segment_sizes_for(dist, bs)
    seg = segments_from_sizes(sizes)
    rng = new_rng(seed)
    x = rng.standard_normal((bs, h)).astype(np.float32)
    wa = rng.standard_normal((len(sizes), h, rank)).astype(np.float32)
    wb = rng.standard_normal((len(sizes), rank, h)).astype(np.float32)
    y = np.zeros((bs, h), dtype=np.float32)
    return y, x, wa, wb, seg


@pytest.mark.parametrize("dist", ["distinct", "identical"])
def test_numpy_sgmv_kernel(benchmark, dist):
    y, x, wa, wb, seg = _problem(dist)
    benchmark(lambda: add_lora_sgmv(y, x, wa, wb, seg))


@pytest.mark.parametrize("dist", ["distinct", "identical"])
def test_numpy_loop_kernel(benchmark, dist):
    y, x, wa, wb, seg = _problem(dist)
    benchmark(lambda: add_lora_loop(y, x, wa, wb, seg))


@pytest.mark.parametrize("dist", ["distinct", "identical"])
def test_numpy_gather_bmm_kernel(benchmark, dist):
    y, x, wa, wb, seg = _problem(dist)
    benchmark(lambda: add_lora_gather_bmm(y, x, wa, wb, seg))
