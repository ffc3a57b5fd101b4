"""Tests for the client-facing frontend (submit / stream / cancel)."""

import pytest

from repro.cluster.frontend import Frontend
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState


def make_frontend(n_gpus=2):
    engines = [
        GpuEngine(
            f"gpu{i}",
            SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
            EngineConfig(max_batch_size=4),
        )
        for i in range(n_gpus)
    ]
    return Frontend(ClusterSimulator(engines))


class TestSubmit:
    def test_submit_and_complete(self):
        fe = make_frontend()
        handle = fe.submit("tenant-a", prompt_len=16, response_len=5)
        fe.run()
        assert handle.state is RequestState.FINISHED
        assert len(handle.tokens) == 5

    def test_streaming_callback_per_token(self):
        fe = make_frontend()
        streamed = []

        def on_tokens(rid, tokens, times):
            assert tokens and len(tokens) == len(times)
            streamed.extend((rid, tok, t) for tok, t in zip(tokens, times))

        h1 = fe.submit("a", prompt_len=8, response_len=3, on_tokens=on_tokens)
        h2 = fe.submit("b", prompt_len=8, response_len=4, on_tokens=on_tokens)
        fe.run()
        assert len(streamed) == 7
        assert {rid for rid, _, _ in streamed} == {h1.request_id, h2.request_id}
        for h in (h1, h2):
            mine = [(tok, t) for rid, tok, t in streamed if rid == h.request_id]
            assert mine == h.streamed
            times = [t for _, t in mine]
            assert times == sorted(times)
            assert times[-1] == h.request.finish_time

    def test_one_frontend_per_simulator(self):
        fe = make_frontend()
        with pytest.raises(ValueError):
            Frontend(fe.simulator)

    def test_streamed_tokens_match_request(self):
        fe = make_frontend()
        handle = fe.submit("a", prompt_len=8, response_len=6)
        fe.run()
        assert handle.tokens == handle.request.generated_tokens

    def test_future_arrival_time(self):
        fe = make_frontend()
        handle = fe.submit("a", prompt_len=8, response_len=2, at_time=5.0)
        fe.run()
        assert handle.request.first_token_time > 5.0

    def test_duplicate_id_rejected(self):
        fe = make_frontend()
        fe.submit("a", 8, 2, request_id="dup")
        with pytest.raises(ValueError):
            fe.submit("a", 8, 2, request_id="dup")


class TestCancel:
    def test_cancel_queued_request(self):
        fe = make_frontend(n_gpus=1)
        # Fill the single 4-slot GPU, then queue one more and cancel it.
        for i in range(4):
            fe.submit("a", 16, 30, request_id=f"fill{i}")
        victim = fe.submit("a", 16, 30, request_id="victim")
        fe.run(until=0.001)  # submissions land, victim queued
        fe.cancel("victim")
        fe.run()
        assert victim.state is RequestState.CANCELLED
        assert len(victim.tokens) == 0
        for i in range(4):
            assert fe.handle(f"fill{i}").state is RequestState.FINISHED

    def test_cancel_running_request(self):
        fe = make_frontend()
        victim = fe.submit("a", 16, 500, request_id="victim")
        other = fe.submit("b", 16, 5, request_id="other")
        fe.run(until=0.3)  # both running, victim mid-generation
        assert victim.state is RequestState.RUNNING
        fe.cancel("victim")
        fe.run()
        assert victim.state is RequestState.CANCELLED
        assert other.state is RequestState.FINISHED

    def test_cancel_finished_is_noop(self):
        fe = make_frontend()
        h = fe.submit("a", 8, 2)
        fe.run()
        fe.cancel(h.request_id)  # no error
        assert h.state is RequestState.FINISHED

    def test_cancel_unknown(self):
        with pytest.raises(KeyError):
            make_frontend().cancel("ghost")


class TestNonFiniteInputs:
    """NaN and infinity are refused at the door with a named error, on both
    paths, and leave nothing scheduled. A NaN arrival once hung the event
    heap and an infinite one ran its clock to ``inf``; a NaN deadline
    failed the request at t = 0."""

    @staticmethod
    def frontend(fast_path):
        engine = GpuEngine(
            "gpu0",
            SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
            EngineConfig(max_batch_size=4),
            fast_path=fast_path,
        )
        return Frontend(ClusterSimulator([engine], fast_path=fast_path))

    @pytest.mark.parametrize("fast_path", [True, False])
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"at_time": float("nan")}, "arrival_time"),
            ({"at_time": float("inf")}, "arrival_time"),
            ({"deadline": float("inf")}, "deadline"),
            ({"deadline": float("nan")}, "deadline"),
            ({"deadline": 1.0, "retry_backoff": float("inf")}, "retry_backoff"),
            ({"deadline": 1.0, "retry_backoff": float("nan")}, "retry_backoff"),
        ],
        ids=[
            "at_time-nan", "at_time-inf", "deadline-inf", "deadline-nan",
            "retry_backoff-inf", "retry_backoff-nan",
        ],
    )
    def test_refused_before_scheduling(self, fast_path, kwargs, field):
        fe = self.frontend(fast_path)
        with pytest.raises(ValueError, match=field):
            fe.submit("a", 8, 2, request_id="bad", **kwargs)
        assert fe.simulator.loop.pending == 0
        # The id was not taken, and the frontend still serves normally.
        ok = fe.submit("a", 8, 2, request_id="bad")
        fe.run()
        assert ok.state is RequestState.FINISHED
        assert fe.simulator.now < float("inf")
