"""Figure 11: single-GPU text generation — Punica vs four baselines.

Serves a ShareGPT-length closed-loop trace FCFS on one A100-80G at max
batch size 32, for the 7B and 13B models, across the four popularity
distributions. Paper headline: Punica ~1044 tok/s (7B) and ~693 tok/s
(13B) on every workload; baselines collapse to batch-size ~1 on
multi-LoRA workloads (12x gap); vLLM backbone-only slightly ahead of
Punica on Identical (1140 vs 1044 tok/s).

The paper's 1000-request trace takes a couple of minutes of simulation in
pure Python; ``n_requests`` defaults lower so the bench stays snappy. Set
``REPRO_PAPER_SCALE=1`` to run the full thing.
"""

from __future__ import annotations

import os

from repro.baselines.framework import ALL_SYSTEMS, FrameworkProfile, build_engine
from repro.bench.reporting import FigureTable
from repro.cluster.simulator import ClusterSimulator
from repro.hw.spec import A100_80G, GpuSpec
from repro.models.config import LLAMA2_7B, LLAMA2_13B, LlamaConfig
from repro.workloads.popularity import POPULARITY_NAMES
from repro.workloads.trace import generate_trace

DEFAULT_REQUESTS = 120


def paper_scale() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0")


def run_fig11(
    configs: "tuple[LlamaConfig, ...]" = (LLAMA2_7B, LLAMA2_13B),
    gpu: GpuSpec = A100_80G,
    systems: "tuple[FrameworkProfile, ...]" = ALL_SYSTEMS,
    n_requests: int | None = None,
    seed: int = 0,
) -> FigureTable:
    if n_requests is None:
        n_requests = 1000 if paper_scale() else DEFAULT_REQUESTS
    table = FigureTable(
        figure_id="Figure 11",
        title=f"Single-GPU text generation, {n_requests} requests ({gpu.name})",
        headers=["model", "distribution", "system", "throughput_tok_s", "mean_batch"],
    )
    for config in configs:
        for dist in POPULARITY_NAMES:
            trace = generate_trace(n_requests, dist, seed=seed)
            for profile in systems:
                engine = build_engine(profile, config, gpu=gpu)
                result = ClusterSimulator([engine]).run(trace)
                table.add_row(
                    config.name, dist, profile.name,
                    result.throughput, result.metrics.mean_batch_size(),
                )
    table.add_note(
        "paper: Punica 1044 (7B) / 693 (13B) tok/s on all workloads; "
        "baselines ~70-90 tok/s on Distinct; vLLM 1140/789 on Identical"
    )
    return table


def fig11_claims(table: FigureTable) -> None:
    """The paper's headline shapes: ~12x on multi-LoRA workloads,
    near-parity with backbone-only vLLM on Identical, Punica flat across
    workloads."""
    tput = {(r[0], r[1], r[2]): r[3] for r in table.rows}

    for model in ("llama2-7b", "llama2-13b"):
        # Headline: Punica ~12x the best baseline on Distinct.
        best_baseline = max(
            tput[(model, "distinct", s)]
            for s in ("hf", "deepspeed", "faster_transformer", "vllm")
        )
        ratio = tput[(model, "distinct", "punica")] / best_baseline
        assert ratio > 8.0, (model, ratio)

        # Punica consistent across all four workloads.
        punica = [
            tput[(model, d, "punica")]
            for d in ("distinct", "uniform", "skewed", "identical")
        ]
        assert max(punica) < 1.5 * min(punica), (model, punica)

        # vLLM backbone-only slightly ahead on Identical, but within ~25%.
        vllm_ident = tput[(model, "identical", "vllm")]
        punica_ident = tput[(model, "identical", "punica")]
        assert vllm_ident > punica_ident
        assert vllm_ident < 1.35 * punica_ident

        # HF is the slowest system on every workload.
        for dist in ("distinct", "uniform", "skewed", "identical"):
            hf = tput[(model, dist, "hf")]
            assert all(
                tput[(model, dist, s)] > hf
                for s in ("deepspeed", "faster_transformer", "vllm", "punica")
            )

    # 7B throughput exceeds 13B for every system.
    for key_7b, value in tput.items():
        if key_7b[0] == "llama2-7b":
            key_13b = ("llama2-13b",) + key_7b[1:]
            assert value > tput[key_13b]

    # Absolute band: Punica 7B in the high hundreds of tok/s (paper: 1044).
    assert 700 < tput[("llama2-7b", "distinct", "punica")] < 1500
    assert 400 < tput[("llama2-13b", "distinct", "punica")] < 1000
