"""Wall-clock of the three *numerically real* LoRA operators (Figure 8).

``repro fig08`` prints the modelled A100 latencies that reproduce the
figure; these benches time the NumPy Loop, Gather-BMM and SGMV
implementations on the host CPU, confirming SGMV's IO argument holds for
the NumPy implementations too.
"""

import numpy as np
import pytest

from repro.core.ops import (
    add_lora_gather_bmm,
    add_lora_loop,
    add_lora_sgmv,
    add_lora_sgmv_slots,
)
from repro.core.segments import segments_from_sizes
from repro.models.llama import causal_attention
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


def _slab_lane(rows=32, h=128, rank=8, slots=32, seed=0):
    rng = new_rng(seed)
    table_a = rng.standard_normal((slots, h, rank)).astype(np.float32)
    table_b = rng.standard_normal((slots, rank, h)).astype(np.float32)
    x = rng.standard_normal((rows, h))
    y = np.zeros((rows, h))
    return y, x, table_a, table_b, np.asarray([slots // 2]), np.asarray([0, rows])


def test_numpy_lane_slab_slots(benchmark):
    y, x, table_a, table_b, slots, seg = _slab_lane()
    rank = table_a.shape[2]
    benchmark(lambda: add_lora_sgmv_slots(y, x, table_a, table_b, slots, rank, seg))


def test_numpy_lane_stacked_copy(benchmark):
    y, x, table_a, table_b, slots, seg = _slab_lane()
    benchmark(lambda: add_lora_sgmv(y, x, table_a[slots], table_b[slots], seg))


def _prefill_attention(n=31, heads=4, head_dim=32, seed=0):
    rng = new_rng(seed)
    q = rng.standard_normal((n, heads, head_dim))
    k = rng.standard_normal((heads, n, head_dim))
    v = rng.standard_normal((heads, n, head_dim))
    return q, k, v, np.arange(n)


def _einsum_attention(q, k, v, q_positions):
    scores = np.einsum("qhd,hsd->hqs", q, k) / np.sqrt(q.shape[-1])
    mask = np.arange(k.shape[1])[None, :] > q_positions[:, None]
    scores = np.where(mask[None, :, :], -np.inf, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return np.einsum("hqs,hsd->qhd", weights, v)


def test_numpy_prefill_attention_blas(benchmark):
    q, k, v, positions = _prefill_attention()
    benchmark(lambda: causal_attention(q, k, v, positions))


def test_numpy_prefill_attention_einsum(benchmark):
    q, k, v, positions = _prefill_attention()
    benchmark(lambda: _einsum_attention(q, k, v, positions))
