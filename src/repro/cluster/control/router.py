"""SLO-aware admission and routing (thread (a) of the control plane).

:class:`SloRouter` replaces Punica's pack rule and FCFS queue with
deadline-headroom placement over the shared
:class:`~repro.cluster.control.costmodel.FleetCostModel`:

* **Placement** ranks every feasible engine by modelled fitness (the
  min-normalized-headroom score), so a prefill-heavy request prefers the
  high-FLOPs part and a long-decode request the high-bandwidth part of a
  mixed fleet. Placement is best-effort: when every candidate's headroom
  is negative the *least bad* one still wins — the prediction is a
  coarse prior, and parking the request in a queue can only lose more
  budget.
* **Queueing** is earliest-deadline-first with no head blocking: any
  queued request that fits is placed on a drain pass, and a queued
  request whose remaining budget falls below the fleet's optimistic
  floor is shed instead of waiting for a miss.
* **Shedding** happens only on provable hopelessness: no engine in the
  pool could meet the deadline even solo on an empty batch. The shed is
  surfaced as an SLO_SHED trace event plus the standard FAILED terminal
  path (via :attr:`SloRouter.on_shed`).

The router supplies only keys, discipline and shed rules; the admission
loops are :class:`~repro.cluster.scheduler.PunicaScheduler`'s.
"""

from __future__ import annotations

from repro.cluster.control.config import ControlConfig
from repro.cluster.control.costmodel import FleetCostModel
from repro.cluster.scheduler import PunicaScheduler, SchedulerConfig
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.request import Request


class SloRouter(PunicaScheduler):
    """Deadline-headroom router over a (possibly heterogeneous) pool.

    Queue entries are ``(absolute deadline, seq, request)`` — the same
    3-tuple shape as the base FCFS heap, so the inherited ``drain_queue``,
    ``cancel`` and ``drain_all_queued`` work on it unchanged.
    """

    def __init__(
        self,
        engines: "list",
        config: "SchedulerConfig | None" = None,
        prefetcher=None,
        tracer: "Tracer | None" = None,
        control: "ControlConfig | None" = None,
        cost: "FleetCostModel | None" = None,
        metrics=None,
    ):
        if config is not None and config.routing != "pack":
            raise ValueError(
                f"SchedulerConfig(routing={config.routing!r}) conflicts with "
                "control=: the SLO router ranks engines by modelled fitness, "
                "not by working set"
            )
        super().__init__(engines, config, prefetcher, tracer=tracer)
        self.control = control or ControlConfig()
        self.cost = cost or FleetCostModel(self.control)
        self.metrics = metrics
        """Optional :class:`~repro.cluster.metrics.ClusterMetrics` fed the
        SLO admit/shed series (the owning simulator passes its own)."""
        self.on_shed = None
        """``(request, now) -> None`` terminal-shed callback; the owning
        simulator points this at its ``_shed`` path so refused requests
        get the standard FAILED state + SHED event + sheds_total count."""
        self.num_slo_sheds = 0

    # ------------------------------------------------------------------
    # benchmarks/ledger/boundaries.py hooks the router layer through
    # ``vars(SloRouter)``, so the inherited loops are bound here by name:
    # without these three lines the router's own calls would go uncounted.
    submit = PunicaScheduler.submit
    drain_queue = PunicaScheduler.drain_queue
    route_decode = PunicaScheduler.route_decode

    def _deadline(self, request: Request) -> float:
        policy = self.control.policy_for(request.lora_id)
        return request.spec.arrival_time + policy.ttft_deadline

    def _remaining_budget(self, request: Request, now: float) -> float:
        return self._deadline(request) - now

    # -- policy hooks (see PunicaScheduler) ------------------------------
    queue_head_blocks = False

    def _new_pass(self) -> None:
        """What one ``submit`` / ``drain_queue`` pass knows regardless of
        the request is worked out once: which prefill-capable engines have
        a free batch slot, and (lazily) each one's cost-model snapshot and
        the pool's device classes. So a pass over a saturated fleet quotes
        nobody and costs each waiter only its hopelessness check."""
        self._open = {
            gid: e for gid, e in self.engines.items()
            if self._prefill_capable(e) and e.has_free_slot
        }
        self._states = {}
        self._quotes = {}
        self._floor_engines = None

    def _prefill_keys(self, request: Request, now: float) -> "list[tuple]":
        """``(fitness, adapter locality, gid)`` over the pass's open
        engines, each quoted against its snapshot; the quotes are kept
        for :meth:`_admit`."""
        states, quotes = self._states, self._quotes
        keys = []
        for gid, engine in self._open.items():
            state = states.get(gid)
            if state is None:
                state = states[gid] = self.cost.snapshot(engine)
            est = quotes[gid] = self.cost.estimate(engine, request, now, state)
            keys.append((est.fitness, self._adapter_locality(engine, request), gid))
        return keys

    def _decode_keys(self, request: Request) -> "list[tuple]":
        """ITL fitness first: the engine whose predicted inter-token
        latency leaves the most deadline headroom wins (ties -> adapter
        locality -> largest working set -> max UUID). Subsumes the
        adapter-locality-first rule: on a homogeneous idle pool every
        candidate quotes the same ITL and locality decides, exactly as
        before."""
        itl_deadline = self.control.policy_for(request.lora_id).itl_deadline
        return [
            (itl_deadline - self.cost.predict_itl(e, request),
             self._adapter_locality(e, request), e.working_set_size, gid)
            for gid, e in self.engines.items()
            if self._decode_capable(e)
        ]

    def _admit(self, request: Request, gpu: str, now: float) -> None:
        """Admit, then drop the engine's snapshot — its batch just
        changed — and the engine too once it is full."""
        super()._admit(request, gpu, now)
        est = self._quotes[gpu]
        del self._states[gpu]
        if not self.engines[gpu].has_free_slot:
            del self._open[gpu]
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.SLO_ADMIT, request.request_id, gpu,
                headroom=round(est.ttft_headroom, 9),
                ttft=round(est.ttft, 9),
            )
        if self.metrics is not None:
            self.metrics.record_slo_admit(now, est.ttft_headroom)

    def _queue_key(self, request: Request) -> "tuple[float, str]":
        return self._deadline(request), "slo_wait"

    def _shed_hopeless(self, request: Request, now: float) -> bool:
        """Shed when no engine could meet the TTFT deadline even solo and
        empty; the floor is asked of one prefill-capable engine per device
        class (a floor is the same on every engine of a class)."""
        if self._floor_engines is None:
            self._floor_engines = self.cost.device_classes(
                e for e in self.engines.values() if self._prefill_capable(e)
            )
        floor = self.cost.best_floor(self._floor_engines, request)
        if floor is not None and self._remaining_budget(request, now) >= floor:
            return False
        self._shed_slo(request, now)
        return True

    def _shed_slo(self, request: Request, now: float) -> None:
        self.num_slo_sheds += 1
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.SLO_SHED, request.request_id,
                reason="deadline_infeasible",
                budget=round(self._remaining_budget(request, now), 9),
            )
        if self.metrics is not None:
            self.metrics.record_slo_shed(now)
        if self.on_shed is not None:
            self.on_shed(request, now)
        else:
            request.mark_failed("shed: deadline infeasible")

    # Decode-queue discipline (see PunicaScheduler): earliest deadline
    # first, no head blocking, and a waiter whose TTFT deadline has
    # passed is shed instead of occupying decode capacity it can no
    # longer use.
    decode_head_blocks = False

    def decode_queue_key(self, request: Request, ready: float, seq: int) -> tuple:
        return (self._deadline(request), ready, seq)

    def shed_if_expired(self, request: Request, now: float) -> bool:
        # Only waiters still owed their first token: a request whose TTFT
        # already landed (handoff after a mid-decode migration) keeps its
        # place however late the clock runs.
        if request.first_token_time is None and now > self._deadline(request):
            self._shed_slo(request, now)
            return True
        return False
