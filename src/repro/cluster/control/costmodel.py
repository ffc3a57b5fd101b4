"""The shared fleet cost model: predicted TTFT/ITL per candidate engine.

One model serves all three control-plane threads (router, decode
admission, autoscaler), so their decisions cannot disagree about what a
placement costs. Predictions reuse the calibrated analytical pricing in
:mod:`repro.models.perf` against each engine's own
:class:`~repro.hw.spec.GpuSpec`/:class:`~repro.hw.spec.HwSpec` — that is
the whole heterogeneity story: an H100 candidate quotes a cheaper prefill
and an L4 candidate a dearer long-context decode through the *same*
formulas, and per-role fitness falls out of the arithmetic.

The prediction is an **admission prior**, not a simulation: it prices the
batch the engine would run *right now* and folds queueing in as coarse,
documented terms. It is deliberately optimistic-but-monotone — good
enough to rank candidates and to detect hopeless requests, cheap enough
to evaluate per (request, engine) pair at submit time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.cluster.control.config import ControlConfig
from repro.runtime.request import Request

#: Residency-tier load-stall priors (seconds): the paper's §5.2 ~2 ms
#: host->GPU PCIe copy for a rank-16 7B adapter, and a 16x multiple for a
#: cold DISK hit (NVMe read + host staging before the PCIe copy).
HOST_LOAD_SECONDS = 0.002
DISK_LOAD_SECONDS = 0.032


@dataclass(frozen=True)
class LatencyEstimate:
    """Predicted service quality of placing one request on one engine."""

    ttft: float
    """Predicted seconds until the request's first token on this engine."""
    itl: float
    """Predicted steady inter-token seconds once it joins the batch."""
    ttft_headroom: float
    """``ttft_deadline - elapsed - ttft`` (negative = modelled miss)."""
    itl_headroom: float
    """``itl_deadline - itl`` (negative = modelled miss)."""
    fitness: float
    """min of the deadline-normalized headrooms — the router's sort key.
    Normalizing by each deadline makes TTFT and ITL slack comparable, so
    one score ranks a fast-prefill part against a fast-decode part."""


class EngineState(NamedTuple):
    """Everything a quote reads from an engine, read once.

    Immutable and unversioned: it describes the engine at the moment
    :meth:`FleetCostModel.snapshot` ran, and whoever keeps one across an
    engine mutation (an admit, a step) prices the stale batch. The router
    holds them for one ``submit`` / ``drain_queue`` call and drops the
    admitted engine's."""

    running: int
    """Requests already decoding (or holding imported KV) on the engine."""
    kv_total: int
    """``sum(kv_len + 1)`` over them: all the analytical model reads of
    their KvCache lengths."""
    pending: "tuple[tuple[str, float], ...]"
    """``(request id, solo prefill seconds)`` of every request waiting to
    prefill, in admission order (the order ``predict_ttft`` adds them)."""


class FleetCostModel:
    """Prices candidate placements across a (possibly mixed) engine pool.

    Every quote is the engine's own pricer pricing a batch *shape* plus a
    decode KV total (``backend.pricer``, :meth:`StepPricer.step_seconds
    <repro.runtime.pricing.StepPricer.step_seconds>`), so it shares the
    shape-keyed latency terms of every engine of that pricer identity
    and is bit-identical to pricing the per-request workload from
    scratch."""

    def __init__(
        self,
        control: "ControlConfig | None" = None,
        host_load_seconds: float = HOST_LOAD_SECONDS,
        disk_load_seconds: float = DISK_LOAD_SECONDS,
    ) -> None:
        self.control = control or ControlConfig()
        self.host_load_seconds = host_load_seconds
        self.disk_load_seconds = disk_load_seconds

    # -- pieces ----------------------------------------------------------
    def load_stall(self, engine, request: Request) -> float:
        """Adapter residency cost: GPU-resident adapters are free, HOST
        pays one PCIe copy, DISK pays the cold-read prior."""
        tier_of = getattr(engine, "adapter_tier", None)
        tier = tier_of(request.lora_id) if tier_of is not None else 0
        if tier >= 2:
            return 0.0
        return self.host_load_seconds if tier == 1 else self.disk_load_seconds

    def snapshot(self, engine) -> EngineState:
        """Read ``engine``'s load once (``GpuEngine.batch_load``), pricing
        each pending prefill's solo step on the way."""
        step_seconds = engine.backend.pricer.step_seconds
        running, kv_total, waiting = engine.batch_load()
        pending = tuple([
            (r.request_id, step_seconds((max(1, r.effective_prompt_len),), 0, 0))
            for r in waiting
        ])
        return EngineState(running, kv_total, pending)

    def _ttft(self, engine, request: Request, state: EngineState) -> float:
        prompt = max(1, request.effective_prompt_len)
        t = self.load_stall(engine, request)
        t += engine.backend.pricer.step_seconds(
            (prompt,), state.running, state.kv_total
        )
        rid = request.request_id
        for other, solo in state.pending:
            if other != rid:
                t += solo
        return t

    @staticmethod
    def _itl(engine, request: Request, state: EngineState) -> float:
        prompt = max(1, request.effective_prompt_len)
        return engine.backend.pricer.step_seconds(
            (), state.running + 1, state.kv_total + prompt + 1
        )

    # -- predictions -----------------------------------------------------
    def predict_ttft(self, engine, request: Request) -> float:
        """Seconds from placement to the request's first token.

        Terms: adapter load stall + one mixed prefill invocation (the
        request's full effective prompt alongside the engine's current
        decodes — Punica batches prefill with running decodes, §5) + a
        queue-depth term charging one solo prefill step for every request
        already waiting to prefill on this engine (the engine prefills at
        most one per invocation, so pending prefills serialize ahead of
        ours — a coarse upper-ish prior, documented in docs/slo.md).
        """
        return self._ttft(engine, request, self.snapshot(engine))

    def predict_itl(self, engine, request: Request) -> float:
        """Steady per-token seconds once the request decodes here: one
        all-decode invocation over the engine's running batch plus this
        request attending over its own prompt-length history."""
        return self._itl(engine, request, self.snapshot(engine))

    def estimate(
        self,
        engine,
        request: Request,
        now: float,
        state: "EngineState | None" = None,
    ) -> LatencyEstimate:
        """Full candidate scoring against the request's tenant policy.

        ``state`` is a :meth:`snapshot` of ``engine`` the caller vouches
        is current; without one the engine is read afresh."""
        if state is None:
            state = self.snapshot(engine)
        policy = self.control.policy_for(request.lora_id)
        elapsed = max(0.0, now - request.spec.arrival_time)
        ttft = self._ttft(engine, request, state)
        itl = self._itl(engine, request, state)
        ttft_headroom = policy.ttft_deadline - elapsed - ttft
        itl_headroom = policy.itl_deadline - itl
        fitness = min(
            ttft_headroom / policy.ttft_deadline,
            itl_headroom / policy.itl_deadline,
        )
        return LatencyEstimate(
            ttft=ttft, itl=itl,
            ttft_headroom=ttft_headroom, itl_headroom=itl_headroom,
            fitness=fitness,
        )

    # -- the optimistic floor (hopelessness test) ------------------------
    def optimistic_floor(self, engine, request: Request) -> float:
        """The best TTFT this engine could ever offer the request: a solo
        prefill on an empty batch with the adapter already GPU-resident.
        Placement-state-free, and remembered where every other quote is —
        in the price list of the engine's pricer identity, so two engines
        share a floor only when their pricers share a whole identity."""
        return engine.backend.pricer.step_seconds(
            (max(1, request.effective_prompt_len),), 0, 0
        )

    @staticmethod
    def device_classes(engines) -> list:
        """One live engine per distinct pricer identity: engines
        of one class quote the same floor for every request."""
        classes: dict = {}
        for e in engines:
            if getattr(e, "alive", True):
                classes.setdefault(e.backend.pricer.identity, e)
        return list(classes.values())

    def best_floor(self, engines, request: Request) -> "float | None":
        """Minimum optimistic floor over a candidate pool (None if empty).
        A caller that asks for many requests passes
        :meth:`device_classes` of its pool, so each class is asked once."""
        floors = [
            self.optimistic_floor(e, request)
            for e in engines
            if getattr(e, "alive", True)
        ]
        return min(floors) if floors else None

    # -- fleet pricing ---------------------------------------------------
    @staticmethod
    def engine_cost_per_hour(engine) -> float:
        """Relative dollar rate of one engine (1.0 when its spec predates
        :class:`~repro.hw.spec.HwSpec` and carries no price)."""
        return float(getattr(engine.backend.pricer.gpu, "cost_per_hour", 1.0))

    @classmethod
    def fleet_cost_per_hour(cls, engines) -> float:
        return sum(cls.engine_cost_per_hour(e) for e in engines)
