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
"""

from __future__ import annotations

import heapq

from repro.cluster.control.config import ControlConfig
from repro.cluster.control.costmodel import FleetCostModel
from repro.cluster.scheduler import PunicaScheduler, SchedulerConfig
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.request import Request


class SloRouter(PunicaScheduler):
    """Deadline-headroom router over a (possibly heterogeneous) pool.

    Queue entries are ``(absolute deadline, seq, request)`` — the same
    3-tuple shape as the base FCFS heap, so the inherited ``cancel`` and
    ``drain_all_queued`` bookkeeping keeps working unchanged.
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
    def _deadline(self, request: Request) -> float:
        policy = self.control.policy_for(request.lora_id)
        return request.spec.arrival_time + policy.ttft_deadline

    def _remaining_budget(self, request: Request, now: float) -> float:
        return self._deadline(request) - now

    def _open_engines(self) -> dict:
        """Prefill-capable engines with a free batch slot — the part of
        placement feasibility that does not depend on the request."""
        return {
            gid: e for gid, e in self.engines.items()
            if self._prefill_capable(e) and e.has_free_slot
        }

    def _place_best(
        self, request: Request, now: float, open_engines: dict, states: dict
    ) -> "str | None":
        """Admit onto the highest-fitness feasible engine (ties break to
        adapter locality, then max UUID, like the base rule).

        ``open_engines`` (:meth:`_open_engines`) and ``states`` (cost-model
        snapshots by GPU id, filled lazily) belong to the caller's one
        ``submit`` / ``drain_queue`` pass; an admit drops the engine's
        snapshot — its batch just changed — and the engine too once it is
        full."""
        best = None
        for gid, engine in open_engines.items():
            if not engine.can_accept(request):
                continue
            state = states.get(gid)
            if state is None:
                state = states[gid] = self.cost.snapshot(engine)
            est = self.cost.estimate(engine, request, now, state)
            key = (est.fitness, self._adapter_locality(engine, request), gid)
            if best is None or key > best[0]:
                best = (key, gid, est)
        if best is None:
            return None
        _, gpu, est = best
        engine = open_engines[gpu]
        engine.add_request(request, now)
        del states[gpu]
        if not engine.has_free_slot:
            del open_engines[gpu]
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.SLO_ADMIT, request.request_id, gpu,
                headroom=round(est.ttft_headroom, 9),
                ttft=round(est.ttft, 9),
            )
        if self.metrics is not None:
            self.metrics.record_slo_admit(now, est.ttft_headroom)
        return gpu

    def _floor_engines(self) -> list:
        """One prefill-capable engine per device class (a floor is the
        same on every engine of a class)."""
        return self.cost.device_classes(
            e for e in self.engines.values() if self._prefill_capable(e)
        )

    def _hopeless(self, request: Request, now: float, floor_engines: list) -> bool:
        """No engine could meet the TTFT deadline even solo and empty."""
        floor = self.cost.best_floor(floor_engines, request)
        if floor is None:
            return True
        return self._remaining_budget(request, now) < floor

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

    # ------------------------------------------------------------------
    def submit(self, request: Request, now: float) -> "str | None":
        if request.state.is_terminal:
            return None
        gpu = self._place_best(request, now, self._open_engines(), {})
        if gpu is not None:
            return gpu
        if self.control.shed_infeasible and self._hopeless(
            request, now, self._floor_engines()
        ):
            self._shed_slo(request, now)
            return None
        self._enqueue(request, now, self._deadline(request), "slo_wait")
        return None

    def drain_queue(self, now: float) -> "list[str]":
        """EDF drain with no head blocking: place whatever fits, shed
        whatever has become hopeless, keep the rest in deadline order.

        What a pass knows regardless of the waiter — which engines have a
        free slot, which device classes exist, each engine's batch — is
        worked out once, so a pass over a saturated fleet costs one
        emptiness test per waiter plus its hopelessness check."""
        if not self._queue:
            return []
        open_engines = self._open_engines()
        states: dict = {}
        floor_engines = None
        placed: "list[str]" = []
        keep: "list[tuple[float, int, Request]]" = []
        while self._queue:
            entry = heapq.heappop(self._queue)
            request = entry[2]
            if request.state.is_terminal:
                continue
            if open_engines:
                gpu = self._place_best(request, now, open_engines, states)
                if gpu is not None:
                    placed.append(gpu)
                    continue
            if self.control.shed_infeasible:
                if floor_engines is None:
                    floor_engines = self._floor_engines()
                if self._hopeless(request, now, floor_engines):
                    self._shed_slo(request, now)
                    continue
            keep.append(entry)
        self._queue = keep
        heapq.heapify(self._queue)
        return placed

    def route_decode(self, request: Request, kv_tokens: int) -> "str | None":
        """ITL-fitness-first decode admission: the engine whose predicted
        inter-token latency leaves the most deadline headroom wins (ties
        -> adapter locality -> largest working set -> max UUID). Subsumes
        the adapter-locality-first rule: on a homogeneous idle pool every
        candidate quotes the same ITL and locality decides, exactly as
        before."""
        policy = self.control.policy_for(request.lora_id)
        best = None
        for gid, engine in self.engines.items():
            if not self._decode_capable(engine) or not engine.can_accept(
                request, kv_tokens
            ):
                continue
            itl_headroom = policy.itl_deadline - self.cost.predict_itl(
                engine, request
            )
            key = (
                itl_headroom,
                self._adapter_locality(engine, request),
                engine.working_set_size,
                gid,
            )
            if best is None or key > best[0]:
                best = (key, gid)
        return best[1] if best is not None else None

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
        if (
            self.control.shed_infeasible
            and request.first_token_time is None
            and now > self._deadline(request)
        ):
            self._shed_slo(request, now)
            return True
        return False
