"""Operator ablations: fused LayerNorm (§6), layer-by-layer LoRA loading
(§5.2) and the LoRA operator inside the full engine (Fig 8, system level).

* **LayerNorm fusion** (110 us -> 4 us per op): with two norms per layer x
  32 layers, unfused adds ~6.8 ms to every 7B invocation.
* **Layered loading**: pipelining PCIe copies against per-layer prefill
  compute shaves time-to-first-token, but the saving is bounded by the
  (tiny) whole-model load time — which is why Punica ships the simple
  strategy.
* **LoRA operator, end to end**: the whole serving stack is identical —
  continuous batching, paged KvCache, multi-LoRA scheduling — and only the
  LoRA operator changes, isolating how much of Fig 11's throughput is the
  SGMV kernel itself rather than the batching runtime around it.
"""

from __future__ import annotations

from repro.bench.reporting import FigureTable
from repro.hw.kernels import KernelCostModel
from repro.hw.pcie import PCIE_GEN4_X16
from repro.hw.spec import A100_80G
from repro.models.config import LLAMA2_7B, LLAMA2_13B, LlamaConfig
from repro.models.perf import (
    PerfFlags,
    StepWorkload,
    decode_step_workload,
    model_step_latency,
    transformer_layer_latency,
)
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.layered_loading import time_to_first_token
from repro.runtime.serve import requests_from_trace, serve_requests
from repro.utils.units import MS, US
from repro.workloads.trace import generate_trace

LORA_IMPLS = ("sgmv", "gather_bmm", "loop")


def run_layernorm_ablation() -> FigureTable:
    kcm = KernelCostModel(A100_80G)
    table = FigureTable(
        figure_id="Ablation layernorm",
        title="Fused vs unfused LayerNorm (paper §6: 110us -> 4us)",
        headers=["variant", "per_op_us", "decode_step_ms_bs32"],
    )
    work = decode_step_workload([512] * 32, lora_segments=[1] * 32)
    for fused in (True, False):
        flags = PerfFlags(fused_layernorm=fused)
        step = model_step_latency(LLAMA2_7B, kcm, work, flags=flags)
        table.add_row(
            "fused" if fused else "unfused", kcm.layernorm(fused) / US, step / MS
        )
    return table


def layernorm_claims(table: FigureTable) -> None:
    rows = {r[0]: r for r in table.rows}
    assert rows["fused"][1] == 4.0
    assert rows["unfused"][1] == 110.0
    saved = rows["unfused"][2] - rows["fused"][2]
    # 2 norms/layer x 32 layers x 106us + final norm ~= 6.9 ms.
    assert 5.0 < saved < 9.0


def run_loading_ablation(
    configs: "tuple[LlamaConfig, ...]" = (LLAMA2_7B, LLAMA2_13B),
    prompt_len: int = 256,
    rank: int = 16,
) -> FigureTable:
    kcm = KernelCostModel(A100_80G)
    table = FigureTable(
        figure_id="Ablation loading",
        title="Whole-model vs layer-by-layer LoRA loading (TTFT of a cold request)",
        headers=["model", "whole_model_ttft_ms", "layered_ttft_ms", "saving_ms"],
    )
    for config in configs:
        layer_bytes = [config.lora_bytes(rank) / config.num_layers] * config.num_layers
        work = StepWorkload(prefill_lens=(prompt_len,), lora_segments=(prompt_len,))
        layer_compute = transformer_layer_latency(config, kcm, work)
        whole = time_to_first_token(PCIE_GEN4_X16, layer_bytes, layer_compute, layered=False)
        layered = time_to_first_token(PCIE_GEN4_X16, layer_bytes, layer_compute, layered=True)
        table.add_row(config.name, whole / MS, layered / MS, (whole - layered) / MS)
    table.add_note("paper §5.2: savings are ms-scale vs thousands of 30ms decode steps")
    return table


def loading_claims(table: FigureTable) -> None:
    for model, whole, layered, saving in table.rows:
        assert layered <= whole  # pipelining never hurts at zero-cost overlap
        assert saving < 5.0  # ms-scale: justifies the simple strategy
        assert saving >= 0.0


def run_lora_impl_ablation(n_requests: int = 96, seed: int = 0) -> FigureTable:
    table = FigureTable(
        figure_id="Ablation lora impl",
        title="LoRA operator inside the full engine (7B, Distinct, bs<=32)",
        headers=["lora_impl", "tok_per_s", "slowdown_vs_sgmv"],
    )
    trace = generate_trace(n_requests, "distinct", seed=seed)
    results = {}
    for impl in LORA_IMPLS:
        backend = SimulatedBackend(LLAMA2_7B, flags=PerfFlags(lora_impl=impl))
        engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=32))
        result = serve_requests(engine, requests_from_trace(trace), keep_steps=False)
        results[impl] = result.throughput
    for impl in LORA_IMPLS:
        table.add_row(impl, results[impl], results["sgmv"] / results[impl])
    table.add_note(
        "same runtime, same scheduling — only the batched LoRA operator differs"
    )
    return table


def lora_impl_claims(table: FigureTable) -> None:
    rows = {r[0]: r for r in table.rows}
    assert rows["sgmv"][2] == 1.0
    # Gather-BMM costs real throughput; Loop is catastrophic (Fig 8's story
    # surviving the trip through the full system).
    assert rows["gather_bmm"][2] > 1.2
    assert rows["loop"][2] > 3.0
    assert rows["loop"][1] < rows["gather_bmm"][1] < rows["sgmv"][1]
