"""Metrics for cluster experiments: one store per fact.

A run's counts and latency distributions live in one per-run
:class:`~repro.obs.metrics.MetricsRegistry` under the ``repro_`` namespace
(JSON or Prometheus text, docs/observability.md). :class:`ClusterMetrics`
binds its instruments once, feeds them from the ``record_*`` calls the
simulator makes, and answers every summary (``fault_count``,
``adapter_gpu_hit_rate``, ``slo_attainment`` ...) from them.

A :class:`TimeSeries` is kept only where something reads a *series*: the
three panels of Fig 13 (``arrivals``, ``tokens``, ``gpu_batch_size``), the
host->GPU link utilisation plot (``pcie_busy``), the SLO router's
per-placement headroom samples (``slo_admits``) and each GPU's step spans
(``gpu_step_spans``: Fig 11/12's time-weighted mean batch and the mean
step time).

Series and registry are *instance* state — nothing module-level survives
a run, so two back-to-back simulations report identical numbers
(tests/test_metrics_parity.py's reset-isolation test pins this)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adapters.registry import Tier
from repro.obs.metrics import MetricsRegistry


class TimeSeries:
    """Sparse (time, value) samples with bucketed aggregation.

    Storage is a pair of growable ``float64`` arrays (amortised-O(1)
    appends, O(run) bulk :meth:`extend`) rather than Python lists — the
    per-step recording path is hot enough in million-request runs that
    list-of-float boxing dominated. ``times``/``values`` expose trimmed
    array views; equality compares contents, so differential tests keep
    their ``series_a == series_b`` shape.
    """

    __slots__ = ("_times", "_values", "_n")

    def __init__(self) -> None:
        self._times = np.empty(16, dtype=np.float64)
        self._values = np.empty(16, dtype=np.float64)
        self._n = 0

    @property
    def times(self) -> np.ndarray:
        return self._times[: self._n]

    @property
    def values(self) -> np.ndarray:
        return self._values[: self._n]

    def _grow(self, need: int) -> None:
        cap = len(self._times)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        self._times = np.resize(self._times, cap)
        self._values = np.resize(self._values, cap)

    def record(self, t: float, v: float) -> None:
        n = self._n
        if n and t < self._times[n - 1]:
            raise ValueError(
                f"samples must be time-ordered: {t} < {self._times[n - 1]}"
            )
        self._grow(n + 1)
        self._times[n] = t
        self._values[n] = v
        self._n = n + 1

    def record_unordered(self, t: float, v: float) -> None:
        """Insert a sample keeping time order (see
        :meth:`ClusterMetrics.record_slo_admit`, the one caller). An
        out-of-order sample pays an O(n) shift; ties keep insertion order
        so replays stay stable."""
        n = self._n
        if not n or t >= self._times[n - 1]:
            self.record(t, v)
            return
        idx = int(np.searchsorted(self._times[:n], t, side="right"))
        self._grow(n + 1)
        self._times[idx + 1 : n + 1] = self._times[idx:n]
        self._values[idx + 1 : n + 1] = self._values[idx:n]
        self._times[idx] = t
        self._values[idx] = v
        self._n = n + 1

    def extend(self, times, values) -> None:
        """Bulk-append an already time-ordered run of samples."""
        k = len(times)
        if k == 0:
            return
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        # ``ndarray.any`` skips the ``np.any`` dispatch: this runs per
        # engine per merged decode run.
        if (times[1:] < times[:-1]).any() or (
            self._n and times[0] < self._times[self._n - 1]
        ):
            raise ValueError("bulk samples must be time-ordered")
        n = self._n
        self._grow(n + k)
        self._times[n : n + k] = times
        self._values[n : n + k] = values
        self._n = n + k

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:
        return f"TimeSeries(n={self._n})"

    def bucket_sum(self, bucket: float, duration: float) -> "list[tuple[float, float]]":
        """Sum of values per bucket — e.g. tokens/s when divided by bucket."""
        return self._bucket(bucket, duration, np.sum)

    def bucket_mean(self, bucket: float, duration: float) -> "list[tuple[float, float]]":
        return self._bucket(bucket, duration, lambda a: float(np.mean(a)) if len(a) else 0.0)

    def _bucket(self, bucket: float, duration: float, agg) -> "list[tuple[float, float]]":
        if bucket <= 0 or duration <= 0:
            raise ValueError("bucket and duration must be positive")
        edges = np.arange(0.0, duration + bucket, bucket)
        times = self.times
        values = self.values
        # ``times`` is sorted (record enforces it), so one searchsorted pass
        # finds every bucket boundary: O(samples + buckets) instead of one
        # boolean mask per bucket. Each slice holds exactly the samples in
        # [lo, hi), in recording order, so aggregates are bit-identical to
        # the masked version.
        cuts = np.searchsorted(times, edges, side="left")
        out = []
        for i in range(len(edges) - 1):
            out.append(
                (float(edges[i]), float(agg(values[cuts[i]:cuts[i + 1]])))
            )
        return out


#: Deadline-headroom buckets (seconds). Deadlines are sub-second, so the
#: interesting resolution is around zero; negative buckets keep the
#: expected-miss placements distinguishable from comfortable admits.
SLO_HEADROOM_BUCKETS = (
    -1.0, -0.5, -0.1, 0.0, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass
class ClusterMetrics:
    """Everything one simulation run measures.

    Every ``record_*`` takes the event time first; only the series
    store it, the registry instruments count. What each instrument counts
    is its help string in ``__post_init__``.
    """

    arrivals: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per request arrival — bucket_sum/bucket = request rate."""
    tokens: TimeSeries = field(default_factory=TimeSeries)
    """(step start, tokens generated that step) — bucket_sum/bucket = tok/s."""
    gpu_batch_size: dict[str, TimeSeries] = field(default_factory=dict)
    """Per-GPU (step start, invocation batch size) — Fig 13 lower panel."""
    gpu_step_spans: dict[str, TimeSeries] = field(default_factory=dict)
    """Per-GPU (step start, step end), sample for sample beside
    ``gpu_batch_size`` — the step times behind :meth:`mean_batch_size`
    and :meth:`mean_step_seconds`."""
    pcie_busy: TimeSeries = field(default_factory=TimeSeries)
    """(copy start, copy seconds) per host->GPU transfer — busy time."""
    slo_admits: TimeSeries = field(default_factory=TimeSeries)
    """(placement time, modelled deadline headroom in seconds) per request
    the SLO router placed — negative headroom means a best-effort
    placement the model expected to miss."""
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    """The per-run registry: every count and histogram of the run."""

    def __post_init__(self) -> None:
        # The full instrument schema is declared (and bound) up front so a
        # snapshot of an idle run still exposes every metric at zero, and
        # no record_* pays a registry lookup + label validation per call.
        counter, histogram = self.registry.counter, self.registry.histogram
        self._arrivals = counter(
            "requests_arrived_total", "request arrivals at the cluster"
        )
        self._tokens_counter = counter(
            "tokens_generated_total", "tokens generated by engine steps"
        )
        self._steps_counter = counter(
            "engine_steps_total", "batched invocations per GPU", labels=("gpu",)
        )
        self._batch_gauge = self.registry.gauge(
            "gpu_batch_size", "latest invocation batch size", labels=("gpu",)
        )
        self._adapter_loads = counter(
            "adapter_loads_total", "demand adapter loads by hit tier", labels=("tier",)
        )
        self._adapter_evictions = counter(
            "adapter_evictions_total", "adapters demoted out of a GPU pool"
        )
        self._prefetch_issues = counter(
            "adapter_prefetch_issues_total", "speculative GPU promotions"
        )
        self._prefetch_hits = counter(
            "adapter_prefetch_hits_total", "prefetched adapters a demand load used"
        )
        self._pcie_busy_total = counter(
            "pcie_busy_seconds_total", "host->GPU link busy time"
        )
        self._pcie_transfer = histogram(
            "pcie_transfer_seconds", "per-transfer host->GPU copy time"
        )
        self._faults = counter("faults_injected_total", "faults the injector applied")
        self._replacements = counter(
            "replacements_total", "in-flight requests re-placed after a fault"
        )
        self._sheds = counter(
            "sheds_total", "requests shed with a FAILED terminal state"
        )
        self._recovery = histogram(
            "recovery_latency_seconds",
            "seconds from fault injection to full re-admission",
        )
        self._kv_transfers = counter(
            "kv_transfers_total", "paged KV handoffs between prefill and decode pools"
        )
        self._kv_transfer_bytes = counter(
            "kv_transfer_bytes_total", "bytes of KV history moved over the interconnect"
        )
        self._kv_transfer_time = histogram(
            "kv_transfer_seconds", "per-handoff interconnect time"
        )
        self._kv_transfer_failures = counter(
            "kv_transfer_failures_total",
            "KV handoffs lost to transfer faults (re-prefill)",
        )
        self._colocated_fallbacks = counter(
            "disagg_colocated_fallbacks_total",
            "prefilled requests decoded in place: decode pool full",
        )
        self._slo_attained = counter(
            "slo_attained_total", "requests that met their TTFT and ITL deadlines"
        )
        self._slo_missed = counter(
            "slo_missed_total", "requests that blew a deadline or never finished"
        )
        self._slo_sheds = counter(
            "slo_sheds_total", "requests the SLO router refused: no feasible placement"
        )
        self._slo_headroom = histogram(
            "slo_deadline_headroom_seconds",
            "modelled TTFT headroom at placement (negative = the "
            "cost model already expected a miss)",
            buckets=SLO_HEADROOM_BUCKETS,
        )

    def record_arrival(self, t: float) -> None:
        self.arrivals.record(t, 1.0)
        self._arrivals.inc()

    def record_step(
        self, gpu_id: str, start: float, end: float, tokens: int, batch_size: int
    ) -> None:
        ftokens = float(tokens)
        fbatch = float(batch_size)
        self.tokens.record(start, ftokens)
        series = self.gpu_batch_size.get(gpu_id)
        if series is None:
            series = self._gpu_series(gpu_id)
        series.record(start, fbatch)
        self.gpu_step_spans[gpu_id].record(start, end)
        key = (gpu_id,)
        self._tokens_counter.inc_key((), ftokens)
        self._steps_counter.inc_key(key)
        self._batch_gauge.set_key(key, fbatch)

    def record_step_merge(
        self,
        times: np.ndarray,
        tokens_per_step: np.ndarray,
        per_gpu,
    ) -> None:
        """Bulk :meth:`record_step` for the decode lane's log: engines'
        interleaved decode ticks and the scalar steps between them.

        ``times``/``tokens_per_step`` are the pop-ordered (non-decreasing)
        step samples across *all* logged engines — exactly the sequence of
        ``record_step`` calls the per-event path would have made against
        the global token series. ``per_gpu`` is an iterable of
        ``(gpu_id, bounds, batch_size, tokens)`` tuples, each GPU's in
        step order, carrying a stretch of one engine's steps: its own
        (already ascending) step bounds for its per-GPU series and the
        stretch's token total for the registry counters. Token and step
        counts are small integers, so one float add of a GPU's total
        equals the per-step adds exactly, and the gauge keeps the last
        value.
        """
        self.tokens.extend(times, tokens_per_step)
        # Coalesced per GPU, in order of first appearance (the order the
        # per-step path first touches each series): one extend per series
        # and one add per counter.
        merged: "dict[str, tuple[list, list, list, list]]" = {}
        for gpu_id, bounds, batch_size, tokens in per_gpu:
            acc = merged.get(gpu_id)
            if acc is None:
                acc = merged[gpu_id] = ([], [], [], [0.0, 0.0])
            starts, ends, sizes, totals = acc
            # ``bounds`` chains the engine's steps: bounds[k] starts step
            # k and bounds[k + 1] ends it.
            if type(bounds) is not tuple:
                bounds = bounds.tolist()
            n = len(bounds) - 1
            fbatch = float(batch_size)
            starts += bounds[:-1]
            ends += bounds[1:]
            sizes += [fbatch] * n
            totals[0] += tokens
            totals[1] += n
        for gpu_id, (starts, ends, sizes, totals) in merged.items():
            series = self.gpu_batch_size.get(gpu_id)
            if series is None:
                series = self._gpu_series(gpu_id)
            series.extend(starts, sizes)
            self.gpu_step_spans[gpu_id].extend(starts, ends)
            key = (gpu_id,)
            self._tokens_counter.inc_key((), totals[0])
            self._steps_counter.inc_key(key, totals[1])
            self._batch_gauge.set_key(key, sizes[-1])

    def _gpu_series(self, gpu_id: str) -> TimeSeries:
        """Open a GPU's per-step series; returns its batch-size series."""
        self.gpu_step_spans[gpu_id] = TimeSeries()
        series = self.gpu_batch_size[gpu_id] = TimeSeries()
        return series

    # -- adapter lifecycle ------------------------------------------------
    def record_adapter_load(self, t: float, tier: "Tier | int") -> None:
        self._adapter_loads.inc(tier=Tier(int(tier)).name.lower())

    def record_adapter_eviction(self, t: float) -> None:
        self._adapter_evictions.inc()

    def record_prefetch_issue(self, t: float) -> None:
        self._prefetch_issues.inc()

    def record_prefetch_hit(self, t: float) -> None:
        self._prefetch_hits.inc()

    def record_pcie_transfer(self, t: float, duration: float) -> None:
        duration = float(duration)
        self.pcie_busy.record(t, duration)
        self._pcie_busy_total.inc(duration)
        self._pcie_transfer.observe(duration)

    # -- fault tolerance --------------------------------------------------
    def record_fault(self, t: float) -> None:
        self._faults.inc()

    def record_replacement(self, t: float) -> None:
        self._replacements.inc()

    def record_shed(self, t: float) -> None:
        self._sheds.inc()

    def record_recovery(self, t: float, latency: float) -> None:
        self._recovery.observe(latency)

    # -- disaggregated prefill/decode ------------------------------------
    def record_kv_transfer(self, t: float, duration: float, nbytes: float) -> None:
        """One paged KV handoff completed at ``t`` after ``duration`` on
        the wire."""
        self._kv_transfers.inc()
        self._kv_transfer_bytes.inc(float(nbytes))
        self._kv_transfer_time.observe(duration)

    def record_kv_transfer_failure(self, t: float) -> None:
        self._kv_transfer_failures.inc()

    def record_colocated_fallback(self, t: float) -> None:
        self._colocated_fallbacks.inc()

    # -- SLO control plane -------------------------------------------------
    def record_slo_admit(self, t: float, headroom: float) -> None:
        """SLO router placed a request with ``headroom`` seconds of
        modelled TTFT slack (may be negative for best-effort placements).

        The router records at two interleaved clocks — loop events, and
        the end of a scalar step, whose queue drain places requests ahead
        of the loop clock on either path — hence the order-tolerant
        insert."""
        headroom = float(headroom)
        self.slo_admits.record_unordered(t, headroom)
        self._slo_headroom.observe(headroom)

    def record_slo_shed(self, t: float) -> None:
        self._slo_sheds.inc()

    def record_slo_outcome(self, t: float, attained: bool) -> None:
        (self._slo_attained if attained else self._slo_missed).inc()

    def ingest_adapter_events(self, events) -> None:
        """Fold store event logs (see
        :class:`~repro.adapters.store.AdapterEvent`) into the metrics.

        Events from several GPU stores interleave arbitrarily; they are
        sorted here so ``pcie_busy`` stays time-ordered.
        """
        for ev in sorted(events):
            if ev.kind == "load":
                self.record_adapter_load(ev.time, int(ev.value))
            elif ev.kind == "evict":
                self.record_adapter_eviction(ev.time)
            elif ev.kind == "prefetch_issue":
                self.record_prefetch_issue(ev.time)
            elif ev.kind == "prefetch_hit":
                self.record_prefetch_hit(ev.time)
            elif ev.kind == "pcie":
                self.record_pcie_transfer(ev.time, ev.value)
            else:
                raise ValueError(f"unknown adapter event kind {ev.kind!r}")

    # -- series -----------------------------------------------------------
    def request_rate_series(self, bucket: float, duration: float):
        return [(t, v / bucket) for t, v in self.arrivals.bucket_sum(bucket, duration)]

    def throughput_series(self, bucket: float, duration: float):
        return [(t, v / bucket) for t, v in self.tokens.bucket_sum(bucket, duration)]

    def batch_size_series(self, gpu_id: str, bucket: float, duration: float):
        series = self.gpu_batch_size.get(gpu_id, TimeSeries())
        return series.bucket_mean(bucket, duration)

    def pcie_utilization_series(self, bucket: float, duration: float):
        """Fraction of each bucket the host->GPU link spent copying weights."""
        return [
            (t, v / bucket) for t, v in self.pcie_busy.bucket_sum(bucket, duration)
        ]

    # -- summaries ---------------------------------------------------------
    def total_tokens(self) -> float:
        return self._tokens_counter.value()

    def mean_batch_size(self) -> float:
        """Time-weighted mean invocation batch size over every GPU's
        steps (Fig 11/12's ``mean_batch``)."""
        busy = total = 0.0
        for gpu_id, spans in self.gpu_step_spans.items():
            secs = spans.values - spans.times
            busy += float(np.dot(self.gpu_batch_size[gpu_id].values, secs))
            total += float(secs.sum())
        return busy / total if total > 0 else 0.0

    def last_step_end(self) -> float:
        """When the run's last step ended (0.0 if no step ran): a run's
        length, from t = 0. A GPU's steps run back to back, so its last
        span ends latest."""
        return max(
            (float(s.values[-1]) for s in self.gpu_step_spans.values() if len(s)),
            default=0.0,
        )

    def mean_step_seconds(self) -> float:
        """Mean time of one invocation over every GPU's steps."""
        spans = self.gpu_step_spans.values()
        steps = sum(len(s) for s in spans)
        total = sum(float((s.values - s.times).sum()) for s in spans)
        return total / steps if steps else 0.0

    def adapter_hit_counts(self) -> dict[str, int]:
        """Demand loads by the tier that satisfied them."""
        return {
            name: int(self._adapter_loads.value(tier=name))
            for name in ("gpu", "host", "disk")
        }

    def adapter_gpu_hit_rate(self) -> float:
        """Fraction of demand loads that found the adapter GPU-resident."""
        loads = self._adapter_loads.total()
        return self._adapter_loads.value(tier="gpu") / loads if loads else 0.0

    def eviction_count(self) -> int:
        return int(self._adapter_evictions.value())

    def prefetch_accuracy(self) -> float:
        """Fraction of speculative promotions a demand load later used."""
        issues = self._prefetch_issues.value()
        return self._prefetch_hits.value() / issues if issues else 0.0

    def pcie_busy_seconds(self) -> float:
        return float(np.sum(self.pcie_busy.values)) if len(self.pcie_busy) else 0.0

    def fault_count(self) -> int:
        return int(self._faults.value())

    def replacement_count(self) -> int:
        return int(self._replacements.value())

    def shed_count(self) -> int:
        return int(self._sheds.value())

    def mean_recovery_latency(self) -> float:
        """Mean seconds from fault injection until every displaced request
        was running again (or reached a terminal state)."""
        return self._recovery.mean()

    def kv_transfer_count(self) -> int:
        return int(self._kv_transfers.value())

    def kv_transfer_seconds(self) -> float:
        """Total interconnect time spent on KV handoffs."""
        return self._kv_transfer_time.sum

    def kv_transfer_failure_count(self) -> int:
        return int(self._kv_transfer_failures.value())

    def colocated_fallback_count(self) -> int:
        return int(self._colocated_fallbacks.value())

    def slo_shed_count(self) -> int:
        return int(self._slo_sheds.value())

    def slo_attained_count(self) -> int:
        return int(self._slo_attained.value())

    def slo_missed_count(self) -> int:
        return int(self._slo_missed.value())

    def slo_attainment(self) -> float:
        """Fraction of scored requests that met both deadlines."""
        attained = self.slo_attained_count()
        scored = attained + self.slo_missed_count()
        return attained / scored if scored else 0.0

    def mean_admit_headroom(self) -> float:
        if not len(self.slo_admits):
            return 0.0
        return float(np.mean(self.slo_admits.values))
