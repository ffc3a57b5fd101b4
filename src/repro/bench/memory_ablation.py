"""KvCache ablations: layout (§5.4, Fig 6), page size (§5.4) and backbone
quantization (§8).

* **Separable vs inseparable layout**: the wasted decode steps an
  inseparable layout forces on ShareGPT-like response lengths, and the
  end-to-end throughput cost, comparing the continuous engine against the
  static engine with *identical* kernels (both backbone-only) to isolate
  the layout effect.
* **Page size**: small pages bound internal fragmentation (≤ (P-1)/P per
  request) but mean more page-table entries; large pages waste tail slots.
  Swept over ShareGPT-like sequence lengths: fragmentation and effective
  capacity (sequences admitted into a fixed byte budget).
* **Quantization**: the paper's related-work section argues quantization
  "saves more headroom for KvCache, hence enabling Punica to serve
  requests of longer sequences without migration". A memory-tight
  workload is served with the backbone at fp16 / int8 / int4 footprints
  (KvCache capacity = HBM - weights - workspace).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.framework import FASTER_TRANSFORMER, VLLM, build_engine
from repro.bench.reporting import FigureTable
from repro.hw.spec import A100_80G
from repro.kvcache.contiguous import wasted_decode_steps
from repro.kvcache.page import PageAllocator
from repro.models.config import LLAMA2_7B, LLAMA2_13B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.serve import requests_from_trace, serve_requests
from repro.utils.units import GIB
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace

PAGE_SIZES = (1, 4, 8, 16, 32, 64, 128)
BUDGET_BYTES = 16 * GIB

#: Long-sequence workload that pressures the KvCache.
LONG_LENGTHS = ShareGptLengths(
    prompt_mu=6.2, prompt_sigma=0.6, response_mu=6.6, response_sigma=0.5,
    max_prompt_len=2048, max_response_len=2048,
)


def run_kvcache_ablation(n_requests: int = 96, seed: int = 0) -> FigureTable:
    table = FigureTable(
        figure_id="Ablation kvcache",
        title="Separable (paged) vs inseparable (HF-layout) KvCache",
        headers=["metric", "value"],
    )
    # (1) Analytic wasted steps for batches of 32 ShareGPT responses.
    lengths = ShareGptLengths()
    rng = np.random.default_rng(seed)
    waste_fracs = []
    for _ in range(50):
        batch = [s.response_len for s in lengths.sample_batch(32, rng)]
        waste_fracs.append(wasted_decode_steps(batch) / (32 * max(batch)))
    table.add_row("mean wasted-step fraction (batch=32)", float(np.mean(waste_fracs)))

    # (2) End-to-end: same kernels, different layout discipline.
    trace = generate_trace(n_requests, "identical", seed=seed)
    continuous = serve_requests(
        build_engine(VLLM, LLAMA2_7B), requests_from_trace(trace), keep_steps=False
    )
    static = serve_requests(
        build_engine(FASTER_TRANSFORMER, LLAMA2_7B),
        requests_from_trace(trace),
        keep_steps=False,
    )
    table.add_row("continuous (separable) tok/s", continuous.throughput)
    table.add_row("static (inseparable) tok/s", static.throughput)
    table.add_row("separable speedup", continuous.throughput / static.throughput)
    return table


def kvcache_claims(table: FigureTable) -> None:
    rows = {r[0]: r[1] for r in table.rows}
    # ShareGPT's heavy tail makes inseparable batches waste >40% of lanes.
    assert rows["mean wasted-step fraction (batch=32)"] > 0.4
    # The layout alone buys a substantial throughput win.
    assert rows["separable speedup"] > 1.5


def run_page_size_ablation(n_sequences: int = 400, seed: int = 0) -> FigureTable:
    bpt = LLAMA2_7B.kv_bytes_per_token()
    lengths = ShareGptLengths()
    rng = np.random.default_rng(seed)
    seq_lens = [s.total_len for s in lengths.sample_batch(n_sequences, rng)]

    table = FigureTable(
        figure_id="Ablation page size",
        title="KvCache page size sweep (7B, ShareGPT-like sequence lengths)",
        headers=["page_size", "internal_fragmentation", "admitted_of_400", "pages_managed"],
    )
    for p in PAGE_SIZES:
        total_pages = int(BUDGET_BYTES // (p * bpt))
        alloc = PageAllocator(total_pages=total_pages, page_size=p)
        admitted = 0
        for i, s in enumerate(seq_lens):
            if alloc.can_allocate(s):
                alloc.allocate(f"s{i}", s)
                admitted += 1
        table.add_row(p, alloc.internal_fragmentation(), admitted, alloc.used_pages)
    table.add_note("paper uses paged KvCache 'to minimize memory fragmentation' (§5.4)")
    return table


def page_size_claims(table: FigureTable) -> None:
    rows = {r[0]: r for r in table.rows}
    # Fragmentation grows with page size and is bounded by (P-1)/P.
    frags = [rows[p][1] for p in PAGE_SIZES]
    assert frags == sorted(frags)
    for p in PAGE_SIZES:
        assert rows[p][1] <= (p - 1) / p + 1e-9
    # Page-table entries shrink as pages grow.
    assert rows[128][3] < rows[1][3]
    # Tiny pages admit at least as many sequences into the same budget.
    assert rows[1][2] >= rows[128][2]
    # The paper's P=16 region: negligible fragmentation (<5%).
    assert rows[16][1] < 0.05


def run_quantization_ablation(n_requests: int = 48, seed: int = 0) -> FigureTable:
    table = FigureTable(
        figure_id="Ablation quantization",
        title="Backbone precision vs KvCache headroom (13B on A100-80G, long sequences)",
        headers=["weight_precision", "kv_capacity_gib", "evictions", "tok_per_s"],
    )
    trace = generate_trace(n_requests, "skewed", seed=seed, lengths=LONG_LENGTHS)
    for label, bytes_per_param in (("fp16", 2.0), ("int8", 1.0), ("int4", 0.5)):
        weights = LLAMA2_13B.param_count() * bytes_per_param
        kv_capacity = A100_80G.hbm_capacity - weights - 2 * GIB
        # Tighten further so the precision difference matters at this scale.
        kv_capacity *= 0.06
        backend = SimulatedBackend(
            LLAMA2_13B, gpu=A100_80G, kv_capacity_bytes=kv_capacity
        )
        engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=32))
        result = serve_requests(engine, requests_from_trace(trace), keep_steps=True)
        evictions = sum(len(s.evicted) for s in result.steps)
        table.add_row(label, kv_capacity / GIB, evictions, result.throughput)
    table.add_note("paper §8: quantization frees KvCache headroom, fewer migrations")
    return table


def quantization_claims(table: FigureTable) -> None:
    rows = {r[0]: r for r in table.rows}
    # Smaller weights -> strictly more KvCache capacity.
    assert rows["int4"][1] > rows["int8"][1] > rows["fp16"][1]
    # More headroom -> no more evictions than the tighter configurations.
    assert rows["int4"][2] <= rows["fp16"][2]
    # And at least equal throughput.
    assert rows["int4"][3] >= 0.95 * rows["fp16"][3]
