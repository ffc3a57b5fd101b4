"""Framework capability profiles and the engine factory.

The capability matrix behind Fig 11 (each row documented in the paper's
"Baselines" paragraph and §5.4/§6):

===================  ==========  =========  ==========  ===========
system               batching    separable  LoRA        kernels
===================  ==========  =========  ==========  ===========
HF Transformers      static      no         PEFT        unfused, no flash,
                                                        cache concat, eager
DeepSpeed            static      no         PEFT        fused
FasterTransformer    static      no         backbone    fused (C++)
vLLM                 continuous  paged      backbone    fused
Punica               continuous  paged      SGMV multi  fused
===================  ==========  =========  ==========  ===========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adapters.store import GpuAdapterStore
from repro.hw.pcie import PcieSpec
from repro.hw.spec import A100_80G, GpuSpec
from repro.models.config import LlamaConfig
from repro.models.perf import PerfFlags
from repro.models.tp import SINGLE_GPU, TensorParallelConfig
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.utils.units import US


@dataclass(frozen=True)
class FrameworkProfile:
    """One serving system's capabilities, as modelled in this reproduction."""

    name: str
    display_name: str
    batching: str
    """"continuous" (Orca-style) or "static" (batch runs until all finish)."""
    serves_lora: bool
    """False = backbone-only relaxation (FasterTransformer, vLLM)."""
    multi_lora_batching: bool
    """Only Punica batches different LoRA models in one invocation."""
    flags: PerfFlags
    step_overhead: float = 0.5e-3
    """Host time per invocation (scheduler, sampling, streaming)."""

    def __post_init__(self) -> None:
        if self.batching not in ("continuous", "static"):
            raise ValueError(f"unknown batching mode {self.batching!r}")
        if self.multi_lora_batching and not self.serves_lora:
            raise ValueError("multi-LoRA batching implies serving LoRA")


PUNICA = FrameworkProfile(
    name="punica",
    display_name="Punica",
    batching="continuous",
    serves_lora=True,
    multi_lora_batching=True,
    flags=PerfFlags(),
)

VLLM = FrameworkProfile(
    name="vllm",
    display_name="vLLM (backbone only)",
    batching="continuous",
    serves_lora=False,
    multi_lora_batching=False,
    flags=PerfFlags(),
)

DEEPSPEED = FrameworkProfile(
    name="deepspeed",
    display_name="DeepSpeed (+PEFT)",
    batching="static",
    serves_lora=True,
    multi_lora_batching=False,
    flags=PerfFlags(framework_overhead_per_layer=20 * US),
)

FASTER_TRANSFORMER = FrameworkProfile(
    name="faster_transformer",
    display_name="FasterTransformer (backbone only)",
    batching="static",
    serves_lora=False,
    multi_lora_batching=False,
    flags=PerfFlags(),
)

HF_TRANSFORMERS = FrameworkProfile(
    name="hf",
    display_name="HuggingFace Transformers (+PEFT)",
    batching="static",
    serves_lora=True,
    multi_lora_batching=False,
    flags=PerfFlags(
        flash_attention=False,
        fused_layernorm=False,
        cache_concat=True,
        # Eager-mode Python dispatch through Transformers + PEFT dominates:
        # a 32-layer decode step measures in the hundreds of ms (the "lack
        # of critical CUDA kernel optimizations" of §7.2).
        framework_overhead_per_layer=4e-3,
    ),
    step_overhead=5e-3,
)

ALL_BASELINES = (HF_TRANSFORMERS, DEEPSPEED, FASTER_TRANSFORMER, VLLM)
ALL_SYSTEMS = ALL_BASELINES + (PUNICA,)

#: Baselines get their model switching cost waived (paper: "We omit the
#: model switching costs for baseline systems") — an effectively infinite
#: PCIe link makes every LoRA load instantaneous.
_INSTANT_PCIE = PcieSpec(name="instant (switching cost waived)",
                         effective_bandwidth=float("inf"), latency=0.0)


def build_engine(
    profile: FrameworkProfile,
    config: LlamaConfig,
    gpu: GpuSpec = A100_80G,
    tp: TensorParallelConfig = SINGLE_GPU,
    max_batch_size: int = 32,
    lora_rank: int = 16,
    gpu_id: str = "gpu0",
):
    """Build a ready-to-serve engine for ``profile``.

    Continuous systems get a :class:`GpuEngine` (Punica unrestricted,
    vLLM restricted to one LoRA model per batch); static systems get a
    :class:`~repro.baselines.static_engine.StaticBatchEngine`.
    """
    if profile.batching == "static":
        from repro.baselines.static_engine import StaticBatchEngine

        return StaticBatchEngine(
            gpu_id=gpu_id,
            profile=profile,
            config=config,
            gpu=gpu,
            tp=tp,
            max_batch_size=max_batch_size,
            lora_rank=lora_rank,
        )
    backend = SimulatedBackend(
        config,
        gpu=gpu,
        tp=tp,
        flags=profile.flags,
        lora_rank=lora_rank,
        serve_lora=profile.serves_lora,
        step_overhead=profile.step_overhead,
    )
    loader = None if profile.name == "punica" else GpuAdapterStore(pcie=_INSTANT_PCIE)
    engine_cfg = EngineConfig(
        max_batch_size=max_batch_size,
        same_lora_only=not profile.multi_lora_batching,
    )
    return GpuEngine(gpu_id, backend, engine_cfg, loader=loader)
