"""Tests for request lifecycle state transitions."""

import pytest

from repro.runtime.latency import LatencyStats, breakdown_of
from repro.runtime.request import Request, RequestState
from repro.workloads.trace import RequestSpec


def make_request(prompt_len=8, response_len=4, arrival=0.0):
    return Request(
        spec=RequestSpec(
            request_id="r0", lora_id="m0", arrival_time=arrival,
            prompt_len=prompt_len, response_len=response_len,
        )
    )


class TestLifecycle:
    def test_initial_state(self):
        r = make_request()
        assert r.state is RequestState.QUEUED
        assert r.needs_prefill
        assert r.num_generated == 0

    def test_run_and_finish(self):
        r = make_request(response_len=2)
        r.mark_running("gpu0", 0.0)
        r.record_token(5, now=1.0)
        r.record_token(7, now=2.0)
        assert r.reached_limit()
        r.mark_finished(2.0)
        assert r.state is RequestState.FINISHED
        assert r.generated_tokens == [5, 7]

    def test_first_token_time_stamped_once(self):
        r = make_request()
        r.mark_running("gpu0", 0.0)
        r.record_token(1, now=3.0)
        r.record_token(2, now=4.0)
        assert r.first_token_time == 3.0

    def test_record_token_requires_running(self):
        r = make_request()
        with pytest.raises(RuntimeError):
            r.record_token(1, now=0.0)


class TestEviction:
    def test_evict_preserves_progress(self):
        r = make_request(prompt_len=10)
        r.mark_running("gpu0", 0.0)
        r.record_token(1, now=1.0)
        r.record_token(2, now=2.0)
        r.kv_len = 12
        r.evict()
        assert r.state is RequestState.QUEUED
        assert r.generated_tokens == [1, 2]
        assert r.kv_len == 0
        assert r.needs_prefill
        assert r.num_migrations == 1
        # Re-prefill covers prompt + generated tokens (§5.3 recomputation).
        assert r.effective_prompt_len == 12

    def test_evict_requires_running(self):
        with pytest.raises(RuntimeError):
            make_request().evict()


class TestTransferHandoff:
    def test_suspend_preserves_kv_and_progress(self):
        r = make_request(prompt_len=10)
        r.mark_running("gpu0", 0.0)
        r.needs_prefill = False  # as the engine's prefill step leaves it
        r.record_token(1, now=1.0)
        r.kv_len = 11
        r.suspend_for_transfer()
        assert r.state is RequestState.QUEUED
        assert r.gpu_id is None
        assert r.kv_len == 11
        assert not r.needs_prefill
        # A handoff is not a migration: no KV is recomputed.
        assert r.num_migrations == 0

    def test_suspend_requires_running(self):
        with pytest.raises(RuntimeError):
            make_request().suspend_for_transfer()

    def test_drop_kv_falls_back_to_reprefill(self):
        r = make_request(prompt_len=10)
        r.mark_running("gpu0", 0.0)
        r.needs_prefill = False
        r.record_token(1, now=1.0)
        r.kv_len = 11
        r.suspend_for_transfer()
        r.drop_kv()
        assert r.kv_len == 0
        assert r.needs_prefill
        assert r.num_migrations == 1
        assert r.effective_prompt_len == 11

    def test_drop_kv_requires_queued(self):
        r = make_request()
        r.mark_running("gpu0", 0.0)
        with pytest.raises(RuntimeError):
            r.drop_kv()


class TestMetrics:
    """Latency is read from the stamps by ``repro.runtime.latency``."""

    def test_normalized_latency(self):
        r = make_request(arrival=10.0, response_len=2)
        r.mark_running("gpu0", 11.0)
        r.record_token(1, now=12.0)
        r.record_token(2, now=14.0)
        r.mark_finished(14.0)
        assert breakdown_of(r).normalized == pytest.approx(2.0)
        assert breakdown_of(r).queue_wait == 1.0
        assert LatencyStats.from_requests([r]).mean_normalized == pytest.approx(2.0)

    def test_latency_requires_finished(self):
        with pytest.raises(ValueError):
            breakdown_of(make_request())
