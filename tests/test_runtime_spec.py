"""Unit tests for the speculative decoding lane (simulated backend).

Covers the :class:`SpecConfig` validation contract, the engine's arming
checks, the geometric acceptance model's commit/rollback page accounting
at both extremes, the speculative trace-event vocabulary, and the
multi-token :class:`StepReport` surface the cluster layers consume.
"""

from __future__ import annotations

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine, StepReport
from repro.runtime.request import RequestState
from repro.runtime.serve import requests_from_trace
from repro.runtime.spec import SpecConfig
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace


class TestSpecConfigValidation:
    def test_defaults_valid(self):
        spec = SpecConfig()
        assert spec.draft_len == 4
        assert spec.max_tokens_per_round == 5

    @pytest.mark.parametrize("draft_len", [0, -1, -7])
    def test_rejects_nonpositive_draft_len(self, draft_len):
        with pytest.raises(ValueError, match="draft_len must be >= 1"):
            SpecConfig(draft_len=draft_len)

    @pytest.mark.parametrize("rate", [-0.1, 1.01, 2.0, -5.0])
    def test_rejects_acceptance_outside_unit_interval(self, rate):
        with pytest.raises(
            ValueError, match=r"acceptance_rate must be within \[0, 1\]"
        ):
            SpecConfig(acceptance_rate=rate)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_acceptance_extremes_are_valid(self, rate):
        assert SpecConfig(acceptance_rate=rate).acceptance_rate == rate

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
    def test_rejects_bad_draft_cost_ratio(self, ratio):
        with pytest.raises(ValueError, match="draft_cost_ratio"):
            SpecConfig(draft_cost_ratio=ratio)

    @pytest.mark.parametrize("layers", [0, -1])
    def test_rejects_nonpositive_draft_layers(self, layers):
        with pytest.raises(ValueError, match="draft_layers must be >= 1"):
            SpecConfig(draft_layers=layers)

    def test_max_tokens_per_round(self):
        assert SpecConfig(draft_len=7).max_tokens_per_round == 8


class TestEngineArming:
    def test_rejects_backend_without_execute_spec(self):
        class NoSpecBackend:
            pass

        with pytest.raises(ValueError, match="has no execute_spec"):
            GpuEngine(
                "gpu0", NoSpecBackend(), EngineConfig(spec=SpecConfig())
            )

    def test_disarmed_engine_accepts_any_backend(self):
        class NoSpecBackend:
            pass

        engine = GpuEngine("gpu0", NoSpecBackend(), EngineConfig())
        assert engine._spec is None
        assert engine.spec_rounds == 0

    def test_spec_seed_is_per_gpu(self):
        spec = SpecConfig(seed=3)
        a = GpuEngine("gpu0", SimulatedBackend(LLAMA2_7B), EngineConfig(spec=spec))
        b = GpuEngine("gpu1", SimulatedBackend(LLAMA2_7B), EngineConfig(spec=spec))
        assert a._spec_rng.random() != b._spec_rng.random()


def make_simulated(spec, n_requests=6, seed=0, **backend_kwargs):
    lengths = ShareGptLengths(max_prompt_len=32, max_response_len=16)
    trace = generate_trace(n_requests, "distinct", seed=seed, lengths=lengths)
    backend = SimulatedBackend(LLAMA2_7B, **backend_kwargs)
    engine = GpuEngine(
        "gpu0", backend, EngineConfig(max_batch_size=8, spec=spec)
    )
    return backend, engine, requests_from_trace(trace)


def run_simulated(spec, n_requests=6, seed=0, tracer=None, **backend_kwargs):
    backend, engine, reqs = make_simulated(
        spec, n_requests, seed, **backend_kwargs
    )
    result = ClusterSimulator([engine], tracer=tracer).run(reqs)
    return backend, engine, reqs, result


class TestSimulatedSpecRounds:
    def test_all_requests_finish_and_pages_return(self):
        backend, engine, reqs, result = run_simulated(SpecConfig(draft_len=4))
        assert all(r.state is RequestState.FINISHED for r in reqs)
        for r in reqs:
            assert r.num_generated == r.spec.response_len
        assert engine.spec_rounds > 0
        # Commit/rollback accounting nets out: every page is back.
        assert backend.kv.allocator.used_pages == 0

    def test_acceptance_one_commits_full_bursts(self):
        tracer = Tracer()
        _, engine, reqs, _ = run_simulated(
            SpecConfig(draft_len=4, acceptance_rate=1.0), tracer=tracer
        )
        verifies = tracer.by_kind(EventKind.SPEC_VERIFY)
        assert verifies
        for event in verifies:
            assert event.attrs["accepted"] == 4
            # Committed is accepted + bonus unless EOS/limit clipped it.
            assert 1 <= event.attrs["committed"] <= 5
        # Full bursts make rounds scarce: well under one per token.
        total = sum(r.num_generated for r in reqs)
        assert engine.spec_rounds <= total / 2

    def test_acceptance_zero_commits_one_per_round(self):
        """A round that accepts nothing *is* a decode step: in lockstep
        with an unarmed engine on the same requests, every step leaves the
        same request states, token counts, ``kv_len`` and page count (page
        *identity* may differ — rollbacks reorder the free list)."""
        tracer = Tracer()
        sides = [
            make_simulated(SpecConfig(draft_len=4, acceptance_rate=0.0)),
            make_simulated(None),
        ]
        engine = sides[0][1]
        engine.tracer = tracer
        for _, eng, reqs in sides:
            for req in reqs:
                eng.add_request(req, 0.0)
        # Every adapter resident before the first step, so both engines
        # admit the same prefill each step whatever their clocks say.
        start = max(engine.loader.ready_time(r.lora_id) for r in sides[0][2])
        clocks = [start, start]
        while not engine.is_idle:
            snapshots = []
            for i, (backend, eng, reqs) in enumerate(sides):
                report = eng.step(clocks[i])
                clocks[i] = report.end
                snapshots.append((
                    [(r.request_id, r.state, r.num_generated, r.kv_len)
                     for r in reqs],
                    backend.kv.allocator.used_pages,
                ))
            assert snapshots[0] == snapshots[1]
        assert sides[1][1].is_idle
        assert engine.spec_rounds > 0 and sides[1][1].spec_rounds == 0
        for event in tracer.by_kind(EventKind.SPEC_VERIFY):
            assert event.attrs["accepted"] == 0
            assert event.attrs["committed"] == 1
        # Every round rejected its whole draft: rollbacks everywhere.
        rollbacks = tracer.by_kind(EventKind.SPEC_ROLLBACK)
        assert rollbacks
        for event in rollbacks:
            assert event.attrs["tokens"] == 4

    def test_spec_trace_vocabulary(self):
        tracer = Tracer()
        run_simulated(SpecConfig(draft_len=4, acceptance_rate=0.7), tracer=tracer)
        kinds = {e.kind for e in tracer.events}
        assert EventKind.SPEC_DRAFT in kinds
        assert EventKind.SPEC_VERIFY in kinds
        assert EventKind.SPEC_ROLLBACK in kinds
        for event in tracer.by_kind(EventKind.SPEC_DRAFT):
            assert event.attrs["draft_len"] == 4
            assert event.attrs["batch"] >= 1

    def test_decode_steps_match_generated_tokens(self):
        """One DECODE_STEP per committed token, contiguous token_index —
        the kv_len = tokens - 1 bookkeeping made observable."""
        tracer = Tracer()
        _, _, reqs, _ = run_simulated(
            SpecConfig(draft_len=3, acceptance_rate=0.6), tracer=tracer
        )
        steps: "dict[str, list[int]]" = {}
        for event in tracer.by_kind(EventKind.DECODE_STEP):
            steps.setdefault(event.request_id, []).append(
                event.attrs["token_index"]
            )
        for r in reqs:
            # The first token lands with the prefill; the rest decode.
            assert steps[r.request_id] == list(range(1, r.num_generated))

    def test_spec_rounds_zero_when_disarmed(self):
        _, engine, _, _ = run_simulated(None)
        assert engine.spec_rounds == 0

    def test_spec_respects_response_limit(self):
        """Bursts never overshoot: the commit clips at response_len even
        when the round proposed more."""
        _, _, reqs, _ = run_simulated(
            SpecConfig(draft_len=6, acceptance_rate=1.0)
        )
        for r in reqs:
            assert r.num_generated == r.spec.response_len


class TestStepReportSpecSurface:
    def _report(self, committed):
        return StepReport(
            gpu_id="gpu0", start=0.0, latency=0.1, batch_size=2,
            num_prefill=0, num_decode=2, num_lora_segments=1,
            new_tokens={rid: toks[-1] for rid, toks in committed.items()},
            finished=(), evicted=(), committed=committed,
        )

    def test_tokens_generated_sums_bursts(self):
        report = self._report({"a": (1, 2, 3), "b": (4,)})
        assert report.tokens_generated == 4
        assert report.committed_tokens() == {"a": (1, 2, 3), "b": (4,)}

    def test_classic_report_is_singleton_per_request(self):
        report = StepReport(
            gpu_id="gpu0", start=0.0, latency=0.1, batch_size=2,
            num_prefill=0, num_decode=2, num_lora_segments=1,
            new_tokens={"a": 3, "b": 4}, finished=(), evicted=(),
        )
        assert report.committed is None
        assert report.tokens_generated == 2
        assert report.committed_tokens() == {"a": (3,), "b": (4,)}
