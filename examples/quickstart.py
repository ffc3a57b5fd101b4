"""Quickstart: batched multi-LoRA text generation with SGMV.

Builds a toy Llama backbone, registers three tenants' LoRA models, and
serves one request per tenant through the Punica engine — all three decode
in a *single* batched invocation, with the LoRA addon computed by two SGMV
launches per projection. Finally verifies the served tokens against a
merged-weight (``W + A B``) recompute, demonstrating that batching across
LoRA models changes nothing numerically.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro import (
    ClusterSimulator,
    EngineConfig,
    GpuEngine,
    LoraRegistry,
    NumpyBackend,
    generate_trace,
    random_llama_weights,
    random_lora_weights,
    requests_from_trace,
    tiny_config,
)
from repro.models.llama import reference_forward_full
from repro.workloads.lengths import ShareGptLengths


def main() -> None:
    # 1. A toy backbone (same architecture family as Llama-2: RMSNorm,
    #    RoPE, SwiGLU) and three tenants' LoRA models.
    config = tiny_config(hidden_size=64, num_layers=2, num_heads=4, vocab_size=256)
    weights = random_llama_weights(config, seed=0)
    registry = LoraRegistry()
    for i in range(3):
        registry.register(
            random_lora_weights(
                f"lora-{i}", config.num_layers, config.proj_dims(), rank=8, seed=100 + i
            )
        )
    print(f"backbone: {config.name}, {config.param_count():,} params")
    print(f"tenants:  {registry.model_ids}")

    # 2. A Punica engine over the functional NumPy backend.
    backend = NumpyBackend(weights, registry, total_pages=256, page_size=8, lora_rank=8)
    engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=32))

    # 3. One request per tenant (Distinct workload) with real prompt ids.
    lengths = ShareGptLengths(max_prompt_len=10, max_response_len=6)
    trace = generate_trace(3, "distinct", seed=7, lengths=lengths)
    requests = requests_from_trace(
        trace, with_prompt_tokens=True, vocab_size=config.vocab_size
    )
    result = ClusterSimulator([engine]).run(requests)

    batches = result.metrics.gpu_batch_size["gpu0"].values
    print(f"\n{result.summary()}")
    print(f"{len(batches)} invocations, max invocation batch {int(batches.max())}")

    # 4. Verify every generated token against a merged-weight recompute.
    for req in requests:
        history = list(req.prompt_tokens)
        for tok in req.generated_tokens:
            logits = reference_forward_full(
                weights, np.asarray(history), registry, req.lora_id
            )
            assert tok == int(np.argmax(logits)), "served token != merged-weight greedy"
            history.append(tok)
        print(f"  {req.request_id} [{req.lora_id}]: {req.generated_tokens}  (verified)")
    print("\nall tokens match the merged-weight reference — multi-LoRA batching "
          "is numerically exact")


if __name__ == "__main__":
    main()
