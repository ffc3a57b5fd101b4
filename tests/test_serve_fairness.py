"""FCFS fairness properties of one-engine serving."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.workloads.trace import RequestSpec


def make_requests(specs):
    return [
        Request(
            spec=RequestSpec(
                request_id=f"r{i:03d}", lora_id=lora, arrival_time=float(arr),
                prompt_len=prompt, response_len=resp,
            )
        )
        for i, (arr, lora, prompt, resp) in enumerate(specs)
    ]


def make_engine(max_batch=4):
    return GpuEngine(
        "gpu0",
        SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
        EngineConfig(max_batch_size=max_batch),
    )


class TestFcfsProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 5.0, allow_nan=False),
                st.sampled_from(["a", "b"]),
                st.integers(1, 64),
                st.integers(1, 16),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_admission_order_is_arrival_order(self, raw):
        reqs = make_requests(raw)
        ClusterSimulator([make_engine()]).run(reqs)
        finished = [r for r in reqs if r.state is RequestState.FINISHED]
        assert len(finished) == len(reqs)
        # First admission times must be nondecreasing in arrival order.
        by_arrival = sorted(reqs, key=lambda r: (r.spec.arrival_time, r.request_id))
        admits = [r.first_admitted_time for r in by_arrival]
        assert all(a is not None for a in admits)
        assert all(b >= a - 1e-9 for a, b in zip(admits, admits[1:]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_token_conservation(self, seed):
        rng = np.random.default_rng(seed)
        specs = [
            (0.0, "a", int(rng.integers(1, 32)), int(rng.integers(1, 12)))
            for _ in range(6)
        ]
        reqs = make_requests(specs)
        result = ClusterSimulator([make_engine()]).run(reqs)
        assert result.tokens_generated == sum(resp for _, _, _, resp in specs)
        for req, (_, _, _, resp) in zip(reqs, specs):
            assert req.num_generated == resp

    def test_later_arrival_does_not_overtake_a_blocked_head(self):
        # One same-LoRA-only engine: b cannot join a's batch, and c, which
        # could, arrived after b (strict FCFS on arrival, §5.1).
        engine = GpuEngine(
            "gpu0",
            SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
            EngineConfig(max_batch_size=4, same_lora_only=True),
        )
        a, b, c = make_requests(
            [(0.0, "lora-1", 8, 4), (0.0, "lora-2", 8, 4), (0.0, "lora-1", 8, 4)]
        )
        ClusterSimulator([engine]).run([a, b, c])
        assert a.first_admitted_time < b.first_admitted_time
        assert b.first_admitted_time <= c.first_admitted_time

    def test_head_of_line_blocks_admission(self):
        # A huge head request that does not fit must not be overtaken by a
        # small later request (strict FCFS, §5.1).
        bpt = LLAMA2_7B.kv_bytes_per_token()
        backend = SimulatedBackend(LLAMA2_7B, kv_capacity_bytes=128 * bpt)
        engine = GpuEngine("gpu0", backend, EngineConfig(max_batch_size=4))
        big = make_requests([(0.0, "a", 4096, 4)])[0]  # never fits
        small = make_requests([(1.0, "a", 8, 4)])[0]
        small.spec = RequestSpec("small", "a", 1.0, 8, 4)
        result = ClusterSimulator([engine]).run([big, small])
        assert big.state is RequestState.QUEUED
        assert small.state is RequestState.QUEUED  # blocked behind the head
        assert result.tokens_generated == 0
