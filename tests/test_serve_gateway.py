"""Gateway tests: admission, lifecycle, tracing and metrics parity.

The :class:`~repro.serve.gateway.ServeGateway` is driven here directly on
the simulator's virtual clock — no asyncio anywhere — which is exactly how
the deterministic ``serve`` golden scenario runs it. The async server adds
transport on top; everything semantic lives at this layer.
"""

from __future__ import annotations

import pytest

from repro.cluster.frontend import Frontend
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.serve.gateway import ServeGateway
from repro.serve.limits import AdmissionController, Decision, TenantPolicy
from repro.serve.metrics import ServeMetrics


def make_gateway(
    policy: "TenantPolicy | None" = None,
    max_total_inflight: "int | None" = None,
    num_gpus: int = 2,
) -> ServeGateway:
    tracer = Tracer()
    sim = ClusterSimulator(
        [
            GpuEngine(
                f"gpu{i:02d}", SimulatedBackend(LLAMA2_7B),
                EngineConfig(max_batch_size=8),
            )
            for i in range(num_gpus)
        ],
        SchedulerConfig(),
        tracer=tracer,
    )
    return ServeGateway(
        Frontend(sim),
        AdmissionController(
            default_policy=policy
            or TenantPolicy(rate=100.0, burst=50.0, max_inflight=32),
            max_total_inflight=max_total_inflight,
        ),
        metrics=ServeMetrics(),
        tracer=tracer,
    )


def open_one(gateway, rid="r0", tenant="t0", now=0.0, response_len=4, **kwargs):
    return gateway.open(
        tenant=tenant, lora_id="m0", prompt_len=8,
        response_len=response_len, now=now, request_id=rid, **kwargs,
    )


class TestLifecycle:
    def test_admitted_stream_finishes_and_finalizes(self):
        gateway = make_gateway()
        stream, decision = open_one(gateway)
        assert decision is Decision.ADMIT
        gateway.frontend.run()
        done = gateway.poll(gateway.simulator.now)
        assert done == [stream]
        assert stream.handle.state is RequestState.FINISHED
        assert not gateway.open_streams()
        assert gateway.controller.total_inflight == 0

    def test_tokens_stream_through_on_token_callback(self):
        gateway = make_gateway()
        seen = []
        stream, _ = open_one(
            gateway, response_len=5,
            on_tokens=lambda rid, toks, ts: seen.extend(
                (rid, tok, t) for tok, t in zip(toks, ts)
            ),
        )
        gateway.frontend.run()
        gateway.poll(gateway.simulator.now)
        assert len(seen) == 5
        assert all(rid == "r0" for rid, _, _ in seen)
        times = [t for _, _, t in seen]
        assert times == sorted(times)
        assert times[0] == stream.handle.request.first_token_time
        assert times[-1] == stream.handle.request.finish_time
        assert stream.tokens_streamed == 5

    def test_client_disconnect_reaches_engine_as_cancel(self):
        gateway = make_gateway()
        stream, _ = open_one(gateway, response_len=32)
        sim = gateway.simulator
        sim.loop.run(until=0.2)  # mid-stream
        assert not stream.handle.is_done()
        gateway.client_close("r0", sim.now)
        assert stream.handle.state is RequestState.CANCELLED
        cancels = gateway.tracer.by_kind(EventKind.CANCEL)
        assert len(cancels) == 1
        assert cancels[0].request_id == "r0"
        assert cancels[0].attrs["reason"] == "disconnect"
        # The slot is released and the gateway forgot the stream.
        assert gateway.controller.total_inflight == 0
        assert not gateway.open_streams()

    def test_shed_never_reaches_the_scheduler(self):
        gateway = make_gateway(
            policy=TenantPolicy(rate=1.0, burst=1.0, max_inflight=8),
        )
        _, first = open_one(gateway, rid="ok")
        stream, decision = open_one(gateway, rid="no")
        assert first is Decision.ADMIT
        assert decision is Decision.RATE_LIMITED
        assert stream is None
        submits = gateway.tracer.by_kind(EventKind.SUBMIT)
        gateway.frontend.run()
        submits = gateway.tracer.by_kind(EventKind.SUBMIT)
        assert [e.request_id for e in submits] == ["ok"]

    def test_drain_cancels_all_open_streams(self):
        gateway = make_gateway()
        for i in range(3):
            open_one(gateway, rid=f"r{i}", response_len=64)
        closed = gateway.drain(0.0)
        assert len(closed) == 3
        assert gateway.controller.total_inflight == 0
        assert all(s.cancelled for s in closed)

    def test_double_close_is_idempotent(self):
        gateway = make_gateway()
        open_one(gateway, response_len=32)
        gateway.client_close("r0", 0.1)
        gateway.client_close("r0", 0.2)  # no KeyError, no double release
        assert gateway.controller.total_inflight == 0


class TestConnectionTraceEvents:
    def test_connection_events_carry_no_request_id(self):
        """CONNECT/DISCONNECT (and door SHED) must not join request
        timelines — the breakdown walker requires timelines to start at
        SUBMIT, and a shed connection has no request at all."""
        gateway = make_gateway(
            policy=TenantPolicy(rate=1.0, burst=1.0, max_inflight=8),
        )
        open_one(gateway, rid="ok")
        open_one(gateway, rid="no")  # shed
        gateway.frontend.run()
        gateway.poll(gateway.simulator.now)
        for kind in (EventKind.CONNECT, EventKind.DISCONNECT):
            events = gateway.tracer.by_kind(kind)
            assert events and all(e.request_id is None for e in events)
            assert all("conn" in e.attrs and "tenant" in e.attrs for e in events)
        door_sheds = [
            e for e in gateway.tracer.by_kind(EventKind.SHED)
            if e.request_id is None
        ]
        assert len(door_sheds) == 1
        assert door_sheds[0].attrs["reason"] == "rate_limited"

    def test_disconnect_causes(self):
        gateway = make_gateway(
            policy=TenantPolicy(rate=1.0, burst=2.0, max_inflight=1),
        )
        open_one(gateway, rid="served", response_len=2)
        open_one(gateway, rid="shed")  # max_inflight=1 -> queue_full
        gateway.frontend.run()
        gateway.poll(gateway.simulator.now)
        causes = {
            e.attrs["conn"]: e.attrs["cause"]
            for e in gateway.tracer.by_kind(EventKind.DISCONNECT)
        }
        assert causes == {"served": "served", "shed": "shed"}

    def test_client_disconnect_cause(self):
        gateway = make_gateway()
        open_one(gateway, response_len=64)
        gateway.client_close("r0", 0.05)
        causes = [
            e.attrs["cause"]
            for e in gateway.tracer.by_kind(EventKind.DISCONNECT)
        ]
        assert causes == ["client"]


class TestServeMetricsParity:
    """Every serve counter is observable identically through the JSON and
    Prometheus exports of the unified registry (the satellite contract)."""

    def run_mixed_load(self) -> ServeGateway:
        gateway = make_gateway(
            policy=TenantPolicy(rate=2.0, burst=2.0, max_inflight=8),
        )
        open_one(gateway, rid="a0", tenant="a", response_len=2)
        open_one(gateway, rid="a1", tenant="a", response_len=32)
        open_one(gateway, rid="a2", tenant="a")  # rate-limited
        open_one(gateway, rid="b0", tenant="b", response_len=2)
        gateway.client_close("a1", 0.1)
        gateway.frontend.run()
        gateway.poll(gateway.simulator.now)
        return gateway

    def test_counters_match_lifecycle(self):
        gateway = self.run_mixed_load()
        reg = gateway.metrics.registry
        assert reg.get("serve_connections_total").total() == 4
        assert reg.get("serve_requests_admitted_total").value(tenant="a") == 2
        assert reg.get("serve_requests_admitted_total").value(tenant="b") == 1
        assert reg.get("serve_requests_shed_total").value(
            tenant="a", reason="rate_limited"
        ) == 1
        assert reg.get("serve_requests_finished_total").total() == 2
        assert reg.get("serve_client_cancels_total").value(tenant="a") == 1
        assert reg.get("serve_tokens_streamed_total").total() > 0
        assert reg.get("serve_active_connections").total() == 0
        assert reg.get("serve_active_streams").total() == 0

    def test_json_and_prometheus_agree(self):
        gateway = self.run_mixed_load()
        reg = gateway.metrics.registry
        snapshot = reg.to_json()
        text = reg.render_prometheus()
        for name in (
            "serve_connections_total",
            "serve_requests_admitted_total",
            "serve_requests_shed_total",
            "serve_requests_finished_total",
            "serve_client_cancels_total",
            "serve_tokens_streamed_total",
            "serve_active_connections",
            "serve_active_streams",
            "serve_ttfb_seconds",
        ):
            qualified = f"repro_{name}"
            assert qualified in snapshot, name
            assert qualified in text, name
        # Spot-check one labeled sample end to end.
        assert 'repro_serve_requests_shed_total{tenant="a",reason="rate_limited"} 1' \
            in text.replace(".0 ", " ").replace(".0\n", "\n")

    def test_ttfb_histogram_observes_each_first_token(self):
        gateway = self.run_mixed_load()
        hist = gateway.metrics.registry.get("serve_ttfb_seconds")
        # a0, b0 finished; a1 cancelled after its first token window —
        # every stream that produced >= 1 token contributes exactly one
        # TTFB observation.
        streams_with_tokens = 2 + (1 if hist.to_json_obj()["count"] == 3 else 0)
        assert hist.to_json_obj()["count"] in (2, 3)
        assert hist.to_json_obj()["count"] == streams_with_tokens

    def test_idle_gateway_still_exports_schema(self):
        gateway = make_gateway()
        text = gateway.metrics.registry.render_prometheus()
        for name in ("serve_connections_total", "serve_ttfb_seconds"):
            assert f"repro_{name}" in text


class TestOverload:
    def test_global_bound_sheds_overloaded(self):
        gateway = make_gateway(max_total_inflight=2)
        assert open_one(gateway, rid="r0", tenant="a")[1] is Decision.ADMIT
        assert open_one(gateway, rid="r1", tenant="b")[1] is Decision.ADMIT
        stream, decision = open_one(gateway, rid="r2", tenant="c")
        assert stream is None and decision is Decision.OVERLOADED
        shed = gateway.metrics.registry.get("serve_requests_shed_total")
        assert shed.value(tenant="c", reason="overloaded") == 1
