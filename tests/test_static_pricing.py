"""The static-batching baselines price every step by the shared formulas.

Fig 11 holds only if every system is priced the same way, so a
:class:`~repro.baselines.static_engine.StaticBatchEngine` step must cost
exactly ``model_step_latency`` over that step's per-request workload,
under the profile's flags, plus the profile's ``step_overhead``: the
whole batch prefilling as one shared-LoRA segment, then every lane,
finished or not, decoding over its own padded KvCache length.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.framework import (
    DEEPSPEED,
    FASTER_TRANSFORMER,
    HF_TRANSFORMERS,
    build_engine,
)
from repro.hw.interconnect import NVLINK_A100
from repro.hw.kernels import KernelCostModel
from repro.hw.spec import A100_80G, HwSpec
from repro.models.config import LLAMA2_7B, LLAMA2_13B
from repro.models.perf import StepWorkload, model_step_latency
from repro.models.tp import SINGLE_GPU, TensorParallelConfig
from repro.runtime.request import Request, RequestState
from repro.workloads.trace import RequestSpec

TP2 = TensorParallelConfig(world_size=2, interconnect=NVLINK_A100)


@given(
    profile=st.sampled_from([HF_TRANSFORMERS, DEEPSPEED, FASTER_TRANSFORMER]),
    config=st.sampled_from([LLAMA2_7B, LLAMA2_13B]),
    gpu=st.sampled_from([A100_80G, HwSpec.preset("h100")]),
    tp=st.sampled_from([SINGLE_GPU, TP2]),
    lora_rank=st.sampled_from([8, 16, 64]),
    lengths=st.lists(
        st.tuples(st.integers(1, 512), st.integers(1, 12)), min_size=1, max_size=8
    ),
)
@settings(max_examples=60, deadline=None)
def test_static_steps_equal_the_direct_formula(
    profile, config, gpu, tp, lora_rank, lengths
):
    engine = build_engine(profile, config, gpu=gpu, tp=tp, lora_rank=lora_rank)
    requests = [
        Request(spec=RequestSpec(f"r{i}", "m0", 0.0, prompt, response))
        for i, (prompt, response) in enumerate(lengths)
    ]
    for req in requests:
        engine.add_request(req, 0.0)
    prompts = tuple(prompt for prompt, _ in lengths)
    batch = len(prompts)
    kcm = KernelCostModel(gpu)

    def direct(work):
        return (
            model_step_latency(config, kcm, work, tp=tp, flags=profile.flags)
            + profile.step_overhead
        )

    def segments(tokens):
        return (tokens,) if profile.serves_lora else None

    now, step = 0.0, 0
    while not engine.is_idle:
        report = engine.step(now)
        if step == 0:
            work = StepWorkload(
                prefill_lens=prompts,
                lora_segments=segments(sum(prompts)),
                lora_rank=lora_rank,
            )
        else:
            work = StepWorkload(
                decode_kv_lens=tuple(prompt + step - 1 for prompt in prompts),
                lora_segments=segments(batch),
                lora_rank=lora_rank,
            )
        assert report.latency == direct(work)
        now = report.end
        step += 1
    assert step == max(response for _, response in lengths)
    assert all(req.state is RequestState.FINISHED for req in requests)
