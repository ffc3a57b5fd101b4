"""repro — a pure-Python reproduction of *Punica: Multi-Tenant LoRA Serving*
(Chen et al., MLSYS 2024).

Quick tour
----------
>>> from repro import sgmv_shrink, sgmv_expand          # the SGMV operator
>>> from repro import LlamaModel, tiny_config            # functional Llama
>>> from repro import GpuEngine, SimulatedBackend        # serving runtime
>>> from repro import ClusterSimulator, PunicaScheduler  # every serving run
>>> from repro import generate_trace                     # workloads

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured index; ``benchmarks/`` regenerates every figure.
"""

from repro.baselines import (
    ALL_BASELINES,
    ALL_SYSTEMS,
    DEEPSPEED,
    FASTER_TRANSFORMER,
    HF_TRANSFORMERS,
    PUNICA,
    VLLM,
    FrameworkProfile,
    build_engine,
)
from repro.cluster import (
    ClusterMetrics,
    ClusterSimulator,
    ElasticConfig,
    ElasticPool,
    Frontend,
    PunicaScheduler,
    SchedulerConfig,
    SimulationResult,
)
from repro.core import (
    BatchLen,
    BatchPlan,
    LoraRegistry,
    add_lora_sgmv,
    plan_batch,
    sgmv_expand,
    sgmv_shrink,
)
from repro.core.lora import random_lora_weights
from repro.hw import A100_40G, A100_80G, GpuSpec, KernelCostModel
from repro.kvcache import KvPool, PageAllocator, PagedKvData
from repro.models import (
    LLAMA2_13B,
    LLAMA2_70B,
    LLAMA2_7B,
    LlamaConfig,
    LlamaModel,
    StepWorkload,
    TensorParallelConfig,
    model_step_latency,
    random_llama_weights,
    tiny_config,
)
from repro.obs import (
    EventKind,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    compute_breakdowns,
)
from repro.runtime import (
    EngineConfig,
    GpuEngine,
    NumpyBackend,
    Request,
    SimulatedBackend,
    SpecConfig,
    requests_from_trace,
)
from repro.workloads import ShareGptLengths, Trace, generate_trace, open_loop_trace

__version__ = "0.1.0"

__all__ = [
    "A100_40G",
    "A100_80G",
    "ALL_BASELINES",
    "ALL_SYSTEMS",
    "BatchLen",
    "BatchPlan",
    "ClusterMetrics",
    "ClusterSimulator",
    "DEEPSPEED",
    "ElasticConfig",
    "ElasticPool",
    "EngineConfig",
    "EventKind",
    "FASTER_TRANSFORMER",
    "FrameworkProfile",
    "Frontend",
    "GpuEngine",
    "GpuSpec",
    "HF_TRANSFORMERS",
    "KernelCostModel",
    "KvPool",
    "LLAMA2_13B",
    "LLAMA2_70B",
    "LLAMA2_7B",
    "LlamaConfig",
    "LlamaModel",
    "LoraRegistry",
    "MetricsRegistry",
    "NumpyBackend",
    "PUNICA",
    "PageAllocator",
    "PagedKvData",
    "PunicaScheduler",
    "Request",
    "SchedulerConfig",
    "ShareGptLengths",
    "SimulatedBackend",
    "SimulationResult",
    "SpecConfig",
    "StepWorkload",
    "TensorParallelConfig",
    "Trace",
    "TraceEvent",
    "Tracer",
    "VLLM",
    "add_lora_sgmv",
    "build_engine",
    "compute_breakdowns",
    "generate_trace",
    "model_step_latency",
    "open_loop_trace",
    "plan_batch",
    "random_llama_weights",
    "random_lora_weights",
    "requests_from_trace",
    "sgmv_expand",
    "sgmv_shrink",
    "tiny_config",
    "__version__",
]
