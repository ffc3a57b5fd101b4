"""The experiment registry: one entry per checked-in table.

Each :class:`Experiment` names a table under ``benchmarks/results/``, the
runner that computes it, the paper-shape claims that must hold over its
rows and the CLI flags its runner accepts. The CLI builds one subcommand
per entry (``repro <name>``, ``repro list``, ``repro all``), and
``benchmarks/bench_experiments.py`` times, saves and checks every entry.
The saved file's name is :attr:`FigureTable.file_name` of the table the
runner returns.
"""

from __future__ import annotations

import argparse
import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.bench import (
    adapter_cache,
    disagg_ablation,
    extensions,
    faults_ablation,
    fig01_batching,
    fig07_roofline,
    fig08_lora_ops,
    fig09_rank,
    fig10_layer,
    fig11_textgen,
    fig12_tp70b,
    fig13_cluster,
    kernel_ablation,
    loader_bench,
    memory_ablation,
    scheduler_ablation,
    slo_ablation,
    spec_ablation,
)
from repro.bench.reporting import FigureTable, results_file_name


def _checked(kind: type, ok: Callable[[float], bool], rule: str) -> Callable[[str], float]:
    """An argparse ``type``: parse ``kind``, reject non-finite or not ``ok``."""
    noun = "an integer" if kind is int else "a number"

    def parse(value: str):
        try:
            parsed = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {value!r}")
        if not (math.isfinite(parsed) and ok(parsed)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return parsed

    return parse


positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
positive_float = _checked(float, lambda v: v > 0, "finite and > 0")
nonnegative_float = _checked(float, lambda v: v >= 0, "finite and >= 0")
zipf_alpha = _checked(float, lambda v: v > 1, "finite and > 1")


@dataclass(frozen=True)
class Flag:
    """One ``repro <name>`` option, handed to the runner as ``kwarg``."""

    option: str
    type: Callable[[str], object]
    help: str
    default: object = None
    """``None`` leaves the runner's own default in force."""
    choices: "tuple[str, ...] | None" = None
    kwarg: "str | None" = None
    """The runner's keyword; defaults to the option's argparse dest."""

    @property
    def dest(self) -> str:
        return self.option.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Experiment:
    """One checked-in table: its runner, its claims and its CLI flags."""

    name: str
    figure_id: str
    help: str
    run: Callable[..., FigureTable]
    claims: Callable[[FigureTable], None]
    flags: "tuple[Flag, ...]" = ()

    @property
    def file_name(self) -> str:
        return results_file_name(self.figure_id)

    @property
    def description(self) -> str:
        return f"{self.figure_id}: {self.help}"

    def run_with(self, args: argparse.Namespace) -> FigureTable:
        """Run with the flags parsed into ``args`` (unset flags omitted)."""
        kwargs = {
            flag.kwarg or flag.dest: getattr(args, flag.dest)
            for flag in self.flags
            if getattr(args, flag.dest) is not None
        }
        return self.run(**kwargs)


def _seed(help: str = "trace seed") -> Flag:
    return Flag("--seed", int, help, default=0)


_REQUESTS = Flag(
    "--requests", positive_int, "trace size (default: quick scale)",
    kwarg="n_requests",
)

EXPERIMENTS: "tuple[Experiment, ...]" = (
    Experiment("fig01", "Figure 1", "prefill/decode batching",
               fig01_batching.run_fig01, fig01_batching.fig01_claims),
    Experiment("fig07", "Figure 7", "SGMV roofline",
               fig07_roofline.run_fig07, fig07_roofline.fig07_claims),
    Experiment("fig08", "Figure 8", "LoRA operator comparison",
               fig08_lora_ops.run_fig08, fig08_lora_ops.fig08_claims),
    Experiment("fig09", "Figure 9", "SGMV rank sweep",
               fig09_rank.run_fig09, fig09_rank.fig09_claims),
    Experiment("fig10", "Figure 10", "transformer layer latency",
               fig10_layer.run_fig10, fig10_layer.fig10_claims),
    Experiment("fig11", "Figure 11", "single-GPU text generation",
               fig11_textgen.run_fig11, fig11_textgen.fig11_claims,
               (_REQUESTS,)),
    Experiment("fig12", "Figure 12", "70B tensor parallelism",
               fig12_tp70b.run_fig12, fig12_tp70b.fig12_claims, (_REQUESTS,)),
    Experiment("fig13", "Figure 13", "cluster deployment",
               fig13_cluster.run_fig13, fig13_cluster.fig13_claims),
    Experiment("loader", "§5.2", "on-demand LoRA loading",
               loader_bench.run_loader_bench, loader_bench.loader_claims),
    Experiment("layernorm", "Ablation layernorm",
               "fused vs unfused LayerNorm (§6)",
               kernel_ablation.run_layernorm_ablation,
               kernel_ablation.layernorm_claims),
    Experiment("loading", "Ablation loading",
               "whole-model vs layer-by-layer LoRA loading (§5.2)",
               kernel_ablation.run_loading_ablation,
               kernel_ablation.loading_claims),
    Experiment("lora-impl", "Ablation lora impl",
               "SGMV vs Gather-BMM vs Loop inside the full engine",
               kernel_ablation.run_lora_impl_ablation,
               kernel_ablation.lora_impl_claims),
    Experiment("kvcache", "Ablation kvcache",
               "separable vs inseparable KvCache layout (§5.4)",
               memory_ablation.run_kvcache_ablation,
               memory_ablation.kvcache_claims),
    Experiment("page-size", "Ablation page size",
               "KvCache page size vs fragmentation (§5.4)",
               memory_ablation.run_page_size_ablation,
               memory_ablation.page_size_claims),
    Experiment("quantization", "Ablation quantization",
               "quantized backbone frees KvCache headroom (§8)",
               memory_ablation.run_quantization_ablation,
               memory_ablation.quantization_claims),
    Experiment("migration", "Ablation migration",
               "consolidation migration on/off",
               scheduler_ablation.run_migration_ablation,
               scheduler_ablation.migration_claims),
    Experiment("max-batch-size", "Ablation max batch size",
               "max batch size sweep (why 32)",
               scheduler_ablation.run_batch_size_sweep,
               scheduler_ablation.batch_size_claims),
    Experiment("prefill-limit", "Ablation prefill limit",
               "prefills per invocation sweep",
               scheduler_ablation.run_prefill_limit_sweep,
               scheduler_ablation.prefill_limit_claims),
    Experiment("routing", "Ablation routing",
               "pack-to-busiest vs least-loaded routing (§5.1)",
               scheduler_ablation.run_routing_ablation,
               scheduler_ablation.routing_claims),
    Experiment("elastic", "Ablation elastic",
               "elastic vs static GPU pool in GPU-seconds (§5.1)",
               scheduler_ablation.run_elastic_ablation,
               scheduler_ablation.elastic_claims),
    Experiment("adapter-cache", "Ablation adapter-cache",
               "tiered adapter cache and prefetching (cold-start TTFT)",
               adapter_cache.run_adapter_cache_ablation,
               adapter_cache.adapter_cache_claims),
    Experiment("disagg", "Ablation disagg",
               "disaggregated prefill/decode with paged KV handoff",
               disagg_ablation.run_disagg_ablation,
               disagg_ablation.disagg_claims,
               (_seed(),
                Flag("--interconnect", str,
                     "interconnect model pricing the KV handoff "
                     "(default: nvlink)",
                     default="nvlink", choices=("nvlink", "pcie"),
                     kwarg="interconnect_name"))),
    Experiment("spec", "Ablation spec",
               "speculative decoding ITL vs acceptance rate vs batch",
               spec_ablation.run_spec_ablation, spec_ablation.spec_claims,
               (_seed(),
                Flag("--draft-len", positive_int,
                     "draft tokens proposed per speculative round (default: 4)",
                     default=4))),
    Experiment("slo", "Ablation slo",
               "SLO attainment vs fleet shape at equal cost",
               slo_ablation.run_slo_ablation, slo_ablation.slo_claims,
               (_seed(),
                Flag("--ttft-deadline", positive_float,
                     "TTFT deadline in seconds (default: 0.3)"),
                Flag("--itl-deadline", positive_float,
                     "mean inter-token deadline in seconds (default: 0.12)"))),
    Experiment("faults", "Ablation faults",
               "GPU crash recovery with §5.3 re-placement",
               faults_ablation.run_faults_ablation,
               faults_ablation.faults_claims,
               (_seed("trace and injector seed"),
                Flag("--crash-time", nonnegative_float,
                     "when the GPU dies (default: mid-trace)"))),
    Experiment("load-latency", "Load-latency",
               "open-loop saturation knees, Punica vs vLLM",
               extensions.run_load_latency, extensions.load_latency_claims),
    Experiment("hw-projection", "HW projection",
               "the multi-LoRA gap projected onto an H100",
               extensions.run_hardware_projection,
               extensions.hardware_projection_claims),
    Experiment("cluster-70b", "Cluster 70B",
               "Fig 13 machinery over two TP-8 70B replica groups",
               extensions.run_cluster_70b, extensions.cluster_70b_claims),
)
