"""Discrete-event cluster simulation: trace in, Fig 13 panels out.

Each GPU runs back-to-back batches (KvCache affinity — the paper contrasts
this with Symphony's non-work-conserving scheduler): when a step finishes
at time t, the next step for that GPU is scheduled at t immediately if it
has work. Arrivals fire scheduler submissions; finished/evicted requests
trigger queue drains and re-placements; a periodic event runs the
consolidation migration pass.

With a :class:`~repro.cluster.faults.FaultInjector` attached, injected
faults are applied at their scheduled times: a crashed GPU leaves the pool
and its in-flight requests are re-placed through the same evict +
re-prefill path migration uses (§5.3); requests are shed with a FAILED
terminal state only when no surviving capacity remains (docs/faults.md).

:class:`ClusterSimulator` is the only simulator class and the only engine
driver: a one-engine pool is the paper's single-GPU system (Fig 11/12,
static baselines included). Three optional
collaborators compose onto the one event loop, in any combination:
``control=ControlConfig`` (SLO routing and run-end attainment scoring,
docs/slo.md), ``handoff=DisaggConfig`` (role-split prefill/decode with
paged KV handoff, docs/disagg.md) and ``pool=ElasticPool`` (§5.1 elastic
allocation, reactive or forecast-sized).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.cluster.control.config import ControlConfig
from repro.cluster.control.router import SloRouter
from repro.cluster.control.simulator import score_requests
from repro.cluster.disagg.config import DisaggConfig
from repro.cluster.disagg.handoff import KvHandoff
from repro.cluster.elastic import ElasticPool, GpuLease
from repro.cluster.events import EventLoop
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.scheduler import PunicaScheduler, SchedulerConfig
from repro.obs.tracer import EventKind, Tracer
from repro.cluster.vector import VectorDecodeLane
from repro.runtime.latency import LatencyStats
from repro.runtime.request import Request, RequestState
from repro.runtime.serve import requests_from_trace
from repro.utils.fastpath import fastpath_enabled
from repro.workloads.trace import Trace

TokenSink = Callable[[str, tuple[int, ...], tuple[float, ...]], None]
"""``(request_id, tokens, times)``: one chunk of a request's committed
tokens, each stamped with the end of the step that committed it."""


@dataclass
class SimulationResult:
    """Outcome of one run, on one engine or many."""

    duration: float
    metrics: ClusterMetrics
    requests: list[Request]
    num_migrations: int
    events_processed: int
    leases: "list[GpuLease]" = field(default_factory=list)
    """One billing window per GPU an elastic pool provisioned (empty for
    a static pool)."""
    scale_ups: int = 0
    releases: int = 0

    def gpu_seconds(self) -> float:
        """GPU-seconds the elastic pool paid for."""
        return sum(lease.seconds(self.duration) for lease in self.leases)

    def peak_pool_size(self) -> int:
        events = []
        for lease in self.leases:
            events.append((lease.start, 1))
            events.append((lease.end if lease.end is not None else float("inf"), -1))
        events.sort()
        cur = peak = 0
        for _, delta in events:
            cur += delta
            peak = max(peak, cur)
        return peak

    @property
    def tokens_generated(self) -> int:
        return int(self.metrics.total_tokens())

    @property
    def finished_requests(self) -> int:
        return sum(1 for r in self.requests if r.state is RequestState.FINISHED)

    @property
    def failed_requests(self) -> int:
        return sum(1 for r in self.requests if r.state is RequestState.FAILED)

    @property
    def throughput(self) -> float:
        return self.tokens_generated / self.duration if self.duration > 0 else 0.0

    def summary(self) -> str:
        """One human-readable line for logs and examples."""
        line = (
            f"{self.finished_requests}/{len(self.requests)} requests, "
            f"{self.tokens_generated} tokens in {self.duration:.1f}s | "
            f"{self.throughput:.0f} tok/s | {self.num_migrations} migrations"
        )
        if not self.finished_requests:
            return line
        stats = LatencyStats.from_requests(self.requests)
        return f"{line} | mean latency {stats.mean_normalized * 1e3:.1f} ms/tok"


class ClusterSimulator:
    """Drives a scheduler + engine pool through a request trace."""

    def __init__(
        self,
        engines: "list | None" = None,
        scheduler_config: SchedulerConfig | None = None,
        registry=None,
        prefetcher=None,
        fault_injector: "FaultInjector | None" = None,
        tracer: "Tracer | None" = None,
        fast_path: bool | None = None,
        *,
        control: "ControlConfig | None" = None,
        handoff: "DisaggConfig | None" = None,
        pool: "ElasticPool | None" = None,
    ):
        """``registry`` (an :class:`~repro.adapters.registry.AdapterRegistry`)
        receives per-adapter arrival feeds for popularity EWMAs;
        ``prefetcher`` (a :class:`~repro.adapters.prefetch.Prefetcher`) is
        attached to every engine's adapter store and ticked periodically;
        ``fault_injector`` (a :class:`~repro.cluster.faults.FaultInjector`)
        schedules deterministic faults the simulator applies and recovers
        from; ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) is threaded
        through the scheduler, engines, adapter stores and injector so the
        whole run emits one request-level event stream.

        ``control`` routes through an SLO router and scores attainment at
        run end; ``handoff`` splits role-typed engines into prefill and
        decode pools joined by paged KV transfers (consolidation then
        defaults off: migration inside the prefill pool re-prefills work
        that was about to be handed off anyway); ``pool`` provisions the
        engines itself — ``engines`` must then be omitted — and grows and
        shrinks the pool while the run lasts."""
        if pool is not None:
            if engines:
                raise ValueError("an elastic pool provisions its own engines")
            pool.sim = self
            engines = [pool.new_engine() for _ in range(pool.config.min_gpus)]
        if handoff is not None and scheduler_config is None:
            scheduler_config = SchedulerConfig(consolidation=False)
        self.fast_path = fastpath_enabled(fast_path)
        self._vector = VectorDecodeLane(self)
        self.loop = EventLoop(self._vector.settle if self.fast_path else None)
        self.metrics = ClusterMetrics()
        self.control = control
        if control is None:
            self.scheduler = PunicaScheduler(
                engines, scheduler_config, prefetcher, tracer=tracer
            )
        else:
            self.scheduler = SloRouter(
                engines, scheduler_config, prefetcher, tracer=tracer,
                control=control, metrics=self.metrics,
            )
            self.scheduler.on_shed = lambda req, now: self._shed(
                req, now, "shed: deadline infeasible"
            )
        self.registry = registry
        self.prefetcher = prefetcher
        self.fault_injector = fault_injector
        self.tracer = tracer
        if tracer is not None and fault_injector is not None:
            fault_injector.tracer = tracer
        self.pool = pool
        self._gpu_busy: dict[str, bool] = {}
        self._departed: list = []
        """Engines that left mid-run (released or crashed); their adapter
        event logs still fold into the metrics at run end."""
        for engine in engines:
            self._adopt_engine(engine, 0.0)
        self._pool_changed()
        self.handoff = KvHandoff(self, handoff) if handoff is not None else None
        self._requests: dict[str, Request] = {}
        self._step_actions: dict[str, "object"] = {}
        """One reusable step closure per GPU — scheduling thousands of
        decode continuations must not allocate a fresh closure each."""
        self._pending_arrivals = 0
        self._recovering: list[tuple[float, list[Request]]] = []
        """(fault time, displaced requests) sets not yet fully re-admitted."""
        self.token_sink: "TokenSink | None" = None
        """Where committed tokens go: one chunk per request per step or
        bulk-committed run (the §5 runner -> scheduler -> frontend
        stream). A :class:`~repro.cluster.frontend.Frontend` subscribes;
        ``None`` streams nothing."""

    @property
    def now(self) -> float:
        """The simulated clock — what the serving bridge warps to wall time."""
        return self.loop.now

    @property
    def inline_steps(self) -> int:
        """Steps the decode lane committed instead of ``engine.step``
        (diagnostic only — kept out of the metrics registry so
        differential runs compare equal)."""
        return self._vector.merged_steps

    # ------------------------------------------------------------------
    def run(
        self, workload: "Trace | list[Request]", until: float | None = None
    ) -> SimulationResult:
        """Serve ``workload`` — a trace, or prebuilt requests (functional
        runs need their prompt ids) — plus every request already handed
        to :meth:`schedule_arrival`, until the work runs out or ``until``.

        The result covers every one of those requests, and its duration
        lasts until the last token: a bulk decode run commits stamps past
        the loop's last event, which is the last step's *start*."""
        if isinstance(workload, Trace):
            workload = requests_from_trace(workload)
        self._stream_arrivals(workload)
        requests = list(self._requests.values())
        cfg = self.scheduler.config
        # Consolidation needs a second engine to move work to: a static
        # one-engine pool arms no tick (it would only stretch the run).
        if cfg.consolidation and (
            self.pool is not None or len(self.scheduler.engines) > 1
        ):
            self.loop.schedule(cfg.migration_interval, self._migration_tick)
        if self.prefetcher is not None:
            self.loop.schedule(0.0, self._prefetch_tick)
        if self.fault_injector is not None:
            self.fault_injector.arm(self.loop, self._apply_fault)
        pool = self.pool
        if pool is not None:
            self.loop.schedule(pool.config.check_interval, pool.tick)
        end = self.loop.run(until=until)
        self._drain_adapter_events()
        if self.control is not None:
            # Run-end scoring keeps the vector lane armed (docs/slo.md);
            # sheds and still-live requests count as misses.
            for t, attained in score_requests(requests, self.control, end):
                self.metrics.record_slo_outcome(t, attained)
        last_finish = max(
            (r.finish_time for r in requests if r.finish_time is not None),
            default=end,
        )
        result = SimulationResult(
            duration=max(end, last_finish),
            metrics=self.metrics,
            requests=requests,
            num_migrations=self.scheduler.num_migrations,
            events_processed=self.loop.processed,
        )
        if pool is not None:
            result.leases = pool.lease_log
            result.scale_ups = pool.scale_ups
            result.releases = pool.releases
        return result

    # ------------------------------------------------------------------
    def schedule_arrival(self, req: Request, at: "float | None" = None) -> None:
        """Register one future request arrival on the event loop.

        ``at`` overrides the spec's arrival time — the frontend's retry
        path resubmits a request at failure time + backoff, not at its
        original arrival.
        """
        self._requests[req.request_id] = req
        self._pending_arrivals += 1
        time = req.spec.arrival_time if at is None else at
        self.loop.schedule(time, self._make_arrival(req))

    def _stream_arrivals(self, workload: "list[Request]") -> None:
        """Register ``workload`` as one :meth:`schedule_arrival` call per
        request would, but keep only its next arrival queued.

        Each request takes the seq that call would have given it (one
        reserved block), the stream is sorted by ``(arrival time, seq)`` —
        the order the loop pops them in — and each arrival queues its
        successor before its body runs. Every arrival therefore keeps its
        ``(time, seq)`` key and pops exactly when it would have, while the
        queue holds one pending arrival instead of the whole trace."""
        first = self.loop.reserve(len(workload))
        for req in workload:
            self._requests[req.request_id] = req
        self._pending_arrivals += len(workload)
        stream = iter(sorted(
            (req.spec.arrival_time, first + i, req)
            for i, req in enumerate(workload)
        ))
        self._queue_arrival(next(stream, None), stream)

    def _queue_arrival(
        self, item: "tuple | None", stream: "Iterator[tuple]"
    ) -> None:
        """Queue the stream's ``(time, seq, request)`` ``item`` under its
        reserved seq (nothing once the stream is spent)."""
        if item is None:
            return
        time, seq, req = item
        self.loop.schedule(time, self._make_arrival(req, stream), seq)

    def work_remaining(self) -> bool:
        """Whether any request is still queued, running, or yet to arrive.

        Periodic ticks (migration, autoscaling) key their rescheduling on
        this — not on ``loop.pending``, which would count the ticks
        themselves and livelock the loop.
        """
        if self._pending_arrivals > 0 or self.scheduler.queue_depth > 0:
            return True
        if self.handoff is not None and self.handoff.work_remaining():
            return True
        return any(not e.is_idle for e in self.scheduler.engines.values())

    def _make_arrival(self, req: Request, stream: "Iterator[tuple] | None" = None):
        def arrival(now: float) -> None:
            if stream is not None:
                self._queue_arrival(next(stream, None), stream)
            self._arrive(req, now)

        return arrival

    def _arrive(self, req: Request, now: float) -> None:
        """One request's arrival: the scheduler's submit, the metrics and
        trace records around it, and a kick for the GPU it lands on."""
        self._pending_arrivals -= 1
        if req.state.is_terminal:
            # Cancelled (or failed) before the simulated arrival: the
            # stale event must not reach the scheduler — submitting a
            # CANCELLED request used to crash mark_running and with it
            # the whole event loop.
            return
        self.metrics.record_arrival(now)
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.SUBMIT, req.request_id,
                lora=req.lora_id, prompt=req.spec.prompt_len,
                response=req.spec.response_len, retries=req.num_retries,
            )
        if self.registry is not None and req.lora_id in self.registry:
            self.registry.record_request(req.lora_id, now)
        lost = self._placement_lost()
        if lost is not None:
            self._shed(req, now, lost)
            return
        gpu = self.scheduler.submit(req, now)
        if gpu is not None:
            self._kick(gpu, now)

    # ------------------------------------------------------------------
    # Cancellation (user disconnect — frontends call this)
    # ------------------------------------------------------------------
    def cancel(
        self, request: Request, now: "float | None" = None, reason: str = "user"
    ) -> None:
        """Cancel a request wherever it is, then re-admit queued work.

        The drain kick is load-bearing: cancelling the last running request
        frees batch/KvCache capacity, but no step report fires for it, so
        without an explicit drain the FCFS queue would stay stranded until
        some other request finished — forever, if none was running.
        """
        now = self.loop.now if now is None else now
        handoff = self.handoff
        in_flight = handoff is not None and handoff.abort_transfer(request)
        gpu = None if in_flight else self.scheduler.cancel(request)
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.CANCEL, request.request_id, gpu, reason=reason
            )
        if in_flight:
            return  # a handoff on the wire held no batch slot or pages
        self._drain_queue(now)
        if handoff is not None:
            # Cancelling a decode-pool request frees import capacity the
            # scheduler's main-queue drain knows nothing about.
            handoff.drain(now)

    def _drain_queue(self, now: float) -> None:
        """Place whatever queued work now fits and start its GPUs."""
        for gid in set(self.scheduler.drain_queue(now)):
            self._kick(gid, now)

    # ------------------------------------------------------------------
    # Pool membership: the one place an engine joins or leaves a run
    # ------------------------------------------------------------------
    def _adopt_engine(self, engine, now: float) -> None:
        if self.tracer is not None:
            engine.tracer = self.tracer
            engine.loader.tracer = self.tracer
        self._gpu_busy[engine.gpu_id] = False
        if self.pool is not None:
            self.pool.open_lease(engine.gpu_id, now)

    def add_engine(self, engine, now: float) -> None:
        """Bring a newly provisioned GPU into the running pool."""
        self.scheduler.add_engine(engine)
        self._adopt_engine(engine, now)
        self._pool_changed()
        self._drain_queue(now)

    def drop_engine(self, engine, now: float) -> None:
        """Forget an engine the scheduler already let go (idle release or
        crash): its busy flag and step closure, its prefetch target and
        its lease."""
        gpu_id = engine.gpu_id
        self._gpu_busy.pop(gpu_id, None)
        self._step_actions.pop(gpu_id, None)
        self._departed.append(engine)
        if self.pool is not None:
            self.pool.close_lease(gpu_id, now)
        self._pool_changed()

    def _pool_changed(self) -> None:
        """Re-read the pool after an engine joined or left: the
        prefetcher's targets, and whether prefill capacity is gone for
        good — no live engine may prefill and no elastic pool could
        provision one (a role-split run whose last prefill GPU died)."""
        self._prefill_lost = self.pool is None and not any(
            map(PunicaScheduler._prefill_capable, self.scheduler.engines.values())
        )
        if self.prefetcher is not None:
            self.prefetcher.attach(
                {gid: e.loader for gid, e in self.scheduler.engines.items()}
            )

    def _prefetch_tick(self, now: float) -> None:
        self.prefetcher.tick(now)
        if self.work_remaining():
            self.loop.schedule(
                now + self.prefetcher.config.interval, self._prefetch_tick
            )

    def _drain_adapter_events(self) -> None:
        """Fold every engine's adapter-store event log into the metrics."""
        events = []
        for engine in [*self.scheduler.engines.values(), *self._departed]:
            events.extend(engine.loader.drain_events())
        if events:
            self.metrics.ingest_adapter_events(events)

    def _migration_tick(self, now: float) -> None:
        moved = self.scheduler.consolidate(now)
        if moved:
            for gid in self.scheduler.engines:
                self._kick(gid, now)
        if self.work_remaining():
            self.loop.schedule(
                now + self.scheduler.config.migration_interval, self._migration_tick
            )

    def _kick(self, gpu_id: str, now: float) -> None:
        """Ensure a step event is scheduled for an idle-but-loaded GPU."""
        if self._gpu_busy[gpu_id]:
            return
        engine = self.scheduler.engines[gpu_id]
        if engine.is_idle:
            return
        self._gpu_busy[gpu_id] = True
        self.loop.schedule_step(now, self._step_action(gpu_id))

    def _step_action(self, gpu_id: str):
        """The cached step closure for one GPU (see ``_step_actions``)."""
        action = self._step_actions.get(gpu_id)
        if action is None:
            action = self._step_actions[gpu_id] = self._make_step(gpu_id)
        return action

    def _make_step(self, gpu_id: str):
        def step(now: float) -> None:
            engine = self.scheduler.engines.get(gpu_id)
            if engine is None or not getattr(engine, "alive", True):
                # The GPU crashed (or was released) after this step event
                # was armed; its requests were already re-placed.
                self._gpu_busy.pop(gpu_id, None)
                return
            # On the fast path the decode lane takes the pop when it can:
            # a tick of the engine's staged run, or the first tick of a
            # run staged from now. Disaggregated and mid-recovery
            # simulations keep the scalar step: their bookkeeping
            # observes individual steps.
            if self.fast_path and self._vector.try_merge(gpu_id, engine, now):
                return
            report = engine.step(now)
            if report is None:
                # Blocked on an in-flight LoRA load: wake when it lands.
                self._gpu_busy[gpu_id] = False
                wake = engine.next_ready_time()
                if wake is not None and not engine.is_idle:
                    self._gpu_busy[gpu_id] = True
                    self.loop.schedule_step(
                        max(wake, now), self._step_action(gpu_id)
                    )
                return

            self._vector.record_step(gpu_id, report)
            if self._after_step(gpu_id, engine, report):
                self.loop.schedule_step(report.end, self._step_action(gpu_id))

        return step

    def _after_step(self, gpu_id: str, engine, report) -> bool:
        """Everything one scalar step sets off past its metrics sample:
        evicted requests re-placed, the queue drained after a finish or an
        eviction, the handoff, the token sink, fault recoveries and the
        GPU's busy flag. Returns whether the engine is still busy —
        scheduling its successor step is the caller's."""
        end = report.end
        if report.finished or report.evicted:
            if report.evicted or self.scheduler.queue_depth:
                # Placement reads the fleet: apply every staged run's
                # popped steps first.
                self._vector.settle(False)
            for rid in report.evicted:
                req = self._requests[rid]
                lost = self._placement_lost()
                if lost is not None:
                    self._shed(req, end, lost)
                    continue
                target = self.scheduler.submit(req, end)
                if target is not None:
                    self._kick(target, end)
            self._drain_queue(end)

        if self.handoff is not None:
            self.handoff.on_step(engine, report)
        if self.token_sink is not None:
            self._stream_step(report)
        if self._recovering:
            self._check_recoveries(end)
        if engine.is_idle:
            self._gpu_busy[gpu_id] = False
            return False
        return True

    def _stream_step(self, report) -> None:
        """One chunk per request the step committed tokens for, stamped
        with the step's end. A token committed while its request has no
        ``first_token_time`` is held — a handed-off prefill token, which
        the decode GPU delivers — and rides the chunk of the step that
        sets it."""
        end = report.end
        stamp = (end,)
        requests = self._requests
        sink = self.token_sink
        for rid, tokens in report.committed_tokens().items():
            req = requests[rid]
            first = req.first_token_time
            if first is None:
                continue
            if first == end:
                tokens = tuple(req.generated_tokens)
            sink(rid, tokens, stamp * len(tokens))

    # ------------------------------------------------------------------
    # Fault application and recovery (docs/faults.md)
    # ------------------------------------------------------------------
    def _apply_fault(self, spec: FaultSpec, now: float) -> "tuple[str | None, bool]":
        """Apply one injected fault; returns (target gpu, applied?)."""
        inj = self.fault_injector
        engines = self.scheduler.engines
        if spec.kind is FaultKind.KV_TRANSFER_FAIL:
            # A colocated simulator has no transfers: the fault is dropped.
            if self.handoff is None:
                return spec.gpu_id, False
            return self.handoff.fail_transfer(spec, now)

        if spec.kind is FaultKind.ADAPTER_LOAD_FAIL:
            gpu_id, lora_id = self._pick_load_failure(spec, now)
            if gpu_id is None or lora_id is None:
                return gpu_id, False
            engine = engines[gpu_id]
            self.metrics.record_fault(now)
            # Displace the pending requests waiting on the failed copy
            # (they hold the only pins an in-flight adapter can have),
            # then drop the entry so a re-placement reissues the load.
            victims = [
                r
                for r in engine.all_requests()
                if r.needs_prefill and r.lora_id == lora_id
            ]
            for req in victims:
                engine.cancel(req.request_id, requeue=True)
            engine.loader.fail_load(lora_id, now)
            self._replace_requests(victims, now)
            return gpu_id, True

        # The remaining kinds hit one live GPU, named or drawn.
        gpu_id = spec.gpu_id or inj.pick_gpu(engines)
        engine = engines.get(gpu_id) if gpu_id is not None else None
        if engine is None or not getattr(engine, "alive", True):
            return gpu_id, False

        if spec.kind is FaultKind.GPU_CRASH:
            if len(engines) == 1 and not inj.allow_last_gpu_crash:
                return gpu_id, False
            self.metrics.record_fault(now)
            displaced = self.scheduler.fail_engine(gpu_id, now)
            self.drop_engine(engine, now)
            self._replace_requests(displaced, now)
            if self.handoff is not None:
                # A decode-pool crash shrank import capacity — or killed
                # the pool entirely; reroute (or re-prefill) the waiters.
                self.handoff.drain(now)
            return gpu_id, True

        if spec.kind is FaultKind.GPU_SLOWDOWN:
            self.metrics.record_fault(now)
            engine.slowdown_factor = max(engine.slowdown_factor, spec.factor)

            def restore(_t: float, engine=engine) -> None:
                engine.slowdown_factor = 1.0

            self.loop.schedule(now + spec.duration, restore)
            return gpu_id, True

        if spec.kind is FaultKind.PCIE_STALL:
            self.metrics.record_fault(now)
            engine.loader.stall(now, spec.duration)
            # Step events armed on the pre-stall ready time fire early,
            # see the load still in flight, and re-arm on the new time —
            # but only if one was armed at all; kick to be safe.
            self._kick(gpu_id, now)
            return gpu_id, True

        raise ValueError(f"unknown fault kind {spec.kind!r}")

    def _pick_load_failure(
        self, spec: FaultSpec, now: float
    ) -> "tuple[str | None, str | None]":
        """Resolve the (gpu, adapter) target of an ADAPTER_LOAD_FAIL."""
        inj = self.fault_injector
        engines = self.scheduler.engines
        if spec.gpu_id is not None:
            candidates = {spec.gpu_id: engines.get(spec.gpu_id)}
        else:
            candidates = {
                gid: e
                for gid, e in engines.items()
                if getattr(e, "alive", True) and e.loader.inflight_models(now)
            }
        if not candidates or any(e is None for e in candidates.values()):
            return spec.gpu_id, None
        gpu_id = spec.gpu_id or inj.pick_gpu(candidates, prefer_busy=False)
        engine = candidates[gpu_id]
        lora_id = spec.lora_id or inj.pick_inflight_lora(engine, now)
        return gpu_id, lora_id

    def _replace_requests(self, displaced: "list[Request]", now: float) -> None:
        """Re-place requests a fault knocked off their GPU (§5.3 re-prefill),
        shedding only when no surviving capacity remains — then the wait
        queue goes too, since nothing could ever admit it."""
        lost = self._placement_lost()
        if lost is not None:
            for req in displaced + self.scheduler.drain_all_queued():
                self._shed(req, now, lost)
            return
        if not displaced:
            return
        for req in displaced:
            self.metrics.record_replacement(now)
            gpu = self.scheduler.submit(req, now)
            if gpu is not None:
                self._kick(gpu, now)
        self._drain_queue(now)
        self._recovering.append((now, list(displaced)))
        self._check_recoveries(now)

    def _placement_lost(self) -> "str | None":
        """The shed reason when nothing could ever place a request that
        needs a prefill, else None."""
        if not self.scheduler.engines:
            return "shed: no GPUs in the pool"
        if self._prefill_lost:
            return "shed: no prefill GPUs"
        return None

    def _shed(self, request: Request, now: float, reason: str) -> None:
        request.mark_failed(reason)
        self.metrics.record_shed(now)
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.SHED, request.request_id, reason=reason
            )

    def _check_recoveries(self, now: float) -> None:
        """Record recovery latency once a fault's displaced set is fully
        re-admitted (no survivor still waiting in the FCFS queue)."""
        still_pending = []
        for fault_time, reqs in self._recovering:
            if any(r.state is RequestState.QUEUED for r in reqs):
                still_pending.append((fault_time, reqs))
            else:
                self.metrics.record_recovery(now, now - fault_time)
        self._recovering = still_pending
