"""Serving-frontend metrics: connection lifecycle and shed decisions.

One :class:`ServeMetrics` instruments a serving frontend against the
run's unified :class:`~repro.obs.metrics.MetricsRegistry` — pass the
cluster's own registry (``simulator.metrics.registry``) and a single JSON
or Prometheus snapshot covers the whole stack, from admission door to
engine steps. The schema is declared up front in ``__init__`` (the same
convention :class:`~repro.cluster.metrics.ClusterMetrics` follows) so an
idle server still exports every serve metric at zero.

The parity contract (tests/test_serve_gateway.py): every count here is
observable identically through ``registry.to_json()`` and
``registry.render_prometheus()``.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

TTFB_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)
"""Time-to-first-byte buckets (seconds of backend clock); serving tails
stretch past the generic latency buckets under queueing, hence the 30 s
top bucket."""


class ServeMetrics:
    """Per-tenant serving counters over a shared registry."""

    def __init__(self, registry: "MetricsRegistry | None" = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.connections = r.counter(
            "serve_connections_total",
            "client connections opened at the serving frontend",
            labels=("tenant",),
        )
        self.admitted = r.counter(
            "serve_requests_admitted_total",
            "requests admitted past per-tenant admission control",
            labels=("tenant",),
        )
        self.shed = r.counter(
            "serve_requests_shed_total",
            "requests shed at the door, by tenant and reason",
            labels=("tenant", "reason"),
        )
        self.finished = r.counter(
            "serve_requests_finished_total",
            "streams that completed normally",
            labels=("tenant",),
        )
        self.client_cancels = r.counter(
            "serve_client_cancels_total",
            "streams ended by client cancel or disconnect",
            labels=("tenant",),
        )
        self.tokens_streamed = r.counter(
            "serve_tokens_streamed_total",
            "tokens delivered to clients over open streams",
        )
        self.active_connections = r.gauge(
            "serve_active_connections",
            "currently open client connections",
        )
        self.active_streams = r.gauge(
            "serve_active_streams",
            "admitted requests not yet finished or cancelled",
        )
        self.ttfb = r.histogram(
            "serve_ttfb_seconds",
            "submit-to-first-streamed-token time (backend clock)",
            buckets=TTFB_BUCKETS,
        )

    # ------------------------------------------------------------------
    def record_connect(self, tenant: str) -> None:
        self.connections.inc(tenant=tenant)
        self.active_connections.inc()

    def record_disconnect(self) -> None:
        self.active_connections.dec()

    def record_admitted(self, tenant: str) -> None:
        self.admitted.inc(tenant=tenant)
        self.active_streams.inc()

    def record_shed(self, tenant: str, reason: str) -> None:
        self.shed.inc(tenant=tenant, reason=reason)

    def record_first_token(self, ttfb_seconds: float) -> None:
        self.ttfb.observe(ttfb_seconds)

    def record_tokens(self, n: int) -> None:
        if n:
            self.tokens_streamed.inc_key((), n)

    def record_end(self, tenant: str, cancelled: bool) -> None:
        """One admitted stream reached its terminal state."""
        if cancelled:
            self.client_cancels.inc(tenant=tenant)
        else:
            self.finished.inc(tenant=tenant)
        self.active_streams.dec()
