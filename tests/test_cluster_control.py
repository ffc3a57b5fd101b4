"""Tests for the SLO-aware control plane (docs/slo.md).

Covers the three threads over the shared cost model: deadline-headroom
admission/routing (with provable-hopelessness shedding), heterogeneous
per-role fitness on mixed HwSpec fleets, and the EWMA predictive
autoscaler with its warm-up-aware shrink. The disaggregated variant's
EDF decode queue and its shed guard round out the matrix.
"""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.control import (
    ControlConfig,
    EwmaForecast,
    FleetCostModel,
    PredictiveConfig,
    SloClusterSimulator,
    SloPolicy,
    SloRouter,
    score_requests,
    slo_attainment,
)
from repro.cluster.disagg import DisaggConfig
from repro.cluster.elastic import ElasticConfig, ElasticPool
from repro.cluster.scheduler import PunicaScheduler, SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.hw.spec import HwSpec
from repro.models.config import LLAMA2_7B, LLAMA2_13B
from repro.models.perf import PUNICA_FLAGS, PerfFlags, StepWorkload, model_step_latency
from repro.obs.scenarios import run_scenario
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import RequestSpec, generate_trace
from tests.test_cluster_scheduler import CountedAdmission, asked_at_most


def make_engine(gpu_id, preset="a100-80g", max_batch=4, step_overhead=0.0,
                role="both", config=LLAMA2_7B):
    return GpuEngine(
        gpu_id,
        SimulatedBackend(
            config, gpu=HwSpec.preset(preset), step_overhead=step_overhead
        ),
        EngineConfig(max_batch_size=max_batch),
        role=role,
    )


def make_request(rid, arrival=0.0, prompt=64, response=8, lora="lora-0"):
    return Request(spec=RequestSpec(rid, lora, arrival, prompt, response))


def make_trace(seed=0, n=40, rate=8.0, duration=4.0, prompt=64, response=8):
    return generate_trace(
        n, "skewed", seed=seed,
        lengths=ShareGptLengths(max_prompt_len=prompt, max_response_len=response),
        arrivals=PoissonArrivals(rate=constant_rate(rate), duration=duration),
    )


class TestConfig:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SloPolicy(ttft_deadline=0.0)
        with pytest.raises(ValueError):
            SloPolicy(itl_deadline=-0.1)

    def test_per_tenant_policy_lookup(self):
        premium = SloPolicy(ttft_deadline=0.1, itl_deadline=0.01)
        cfg = ControlConfig(per_tenant={"lora-vip": premium})
        assert cfg.policy_for("lora-vip") is premium
        assert cfg.policy_for("lora-other") is cfg.default_policy

    def test_predictive_validation(self):
        with pytest.raises(ValueError):
            PredictiveConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            PredictiveConfig(ewma_alpha=1.5)
        with pytest.raises(ValueError):
            PredictiveConfig(service_rate_per_gpu=0.0)
        with pytest.raises(ValueError):
            PredictiveConfig(headroom_fraction=-0.1)


class TestEwmaForecast:
    def test_primes_on_first_sample(self):
        f = EwmaForecast(alpha=0.5)
        assert f.update(10.0) == 10.0

    def test_smooths_toward_samples(self):
        f = EwmaForecast(alpha=0.5)
        f.update(0.0)
        assert f.update(8.0) == 4.0
        assert f.update(8.0) == 6.0

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            EwmaForecast(alpha=0.0)


class TestFleetCostModel:
    def test_h100_prefill_beats_l4(self):
        cost = FleetCostModel()
        req = make_request("r", prompt=768)
        h100 = make_engine("h", preset="h100")
        l4 = make_engine("l", preset="l4")
        assert cost.predict_ttft(h100, req) < cost.predict_ttft(l4, req)

    def test_bandwidth_rules_decode(self):
        cost = FleetCostModel()
        req = make_request("r", prompt=512)
        a100 = make_engine("a", preset="a100-80g")
        l4 = make_engine("l", preset="l4")
        # Decode is memory-bound: 1935 GB/s vs 300 GB/s.
        assert cost.predict_itl(a100, req) < cost.predict_itl(l4, req)

    def test_load_stall_by_residency_tier(self):
        cost = FleetCostModel()
        req = make_request("r")
        for tier, expected in (
            (2, 0.0),
            (1, cost.host_load_seconds),
            (0, cost.disk_load_seconds),
        ):
            engine = types.SimpleNamespace(adapter_tier=lambda _l, t=tier: t)
            assert cost.load_stall(engine, req) == expected

    def test_optimistic_floor_is_a_lower_bound_and_cached(self):
        cost = FleetCostModel()
        engine = make_engine("g")
        req = make_request("r", prompt=256)
        floor = cost.optimistic_floor(engine, req)
        assert 0.0 < floor <= cost.predict_ttft(engine, req)
        # Busy the engine: the floor must not move (it is state-free).
        engine.add_request(make_request("other", prompt=256), 0.0)
        assert cost.optimistic_floor(engine, req) == floor
        assert cost.predict_ttft(engine, req) > floor
        # Two engines on one GPU preset that price differently (model,
        # host overhead) keep their own floors, whichever is asked first.
        for fleet in (
            [make_engine("7b"), make_engine("13b", config=LLAMA2_13B)],
            [make_engine("sim", step_overhead=0.0005),
             make_engine("serve", step_overhead=0.0)],
        ):
            alone = {
                e.gpu_id: FleetCostModel().optimistic_floor(e, req) for e in fleet
            }
            assert len(set(alone.values())) == 2
            for order in (fleet, fleet[::-1]):
                cost = FleetCostModel()
                asked = {e.gpu_id: cost.optimistic_floor(e, req) for e in order}
                assert asked == alone
                for e in fleet:
                    assert asked[e.gpu_id] <= cost.predict_ttft(e, req)
                assert cost.best_floor(fleet, req) == min(alone.values())

    @pytest.mark.parametrize("scenario", ["slo", "disagg", "composed"])
    def test_batch_load_equals_the_request_walk_at_every_arrival(
        self, scenario, monkeypatch
    ):
        """``GpuEngine.batch_load``, which ``snapshot`` prices an engine
        from, equals walking the engine's requests at every arrival of
        the scenario — also while an armed batch's requests lag its bulk
        commits, since it reads the batch without writing them back."""
        arrive = ClusterSimulator._arrive
        lagging = []

        def checking(sim, req, now):
            for engine in sim.scheduler.engines.values():
                steady = engine._steady
                lagging.append(steady.steps != steady.synced)
                load = engine.batch_load()
                reqs = engine.all_requests()
                held = [r for r in reqs if not r.needs_prefill]
                assert load == (
                    len(held), sum(r.kv_len + 1 for r in held),
                    [r for r in reqs if r.needs_prefill],
                )
            arrive(sim, req, now)

        monkeypatch.setattr(ClusterSimulator, "_arrive", checking)
        run_scenario(scenario, seed=0)
        assert lagging
        if scenario == "slo":
            assert any(lagging)

    def test_estimate_headroom_goes_negative_past_deadline(self):
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=0.5, itl_deadline=0.05)
        )
        cost = FleetCostModel(control)
        engine = make_engine("g")
        est = cost.estimate(engine, make_request("r", arrival=0.0), now=10.0)
        assert est.ttft_headroom < 0
        assert est.fitness < 0

    def test_fleet_cost_sums_presets_and_defaults_unpriced_specs(self):
        engines = [
            make_engine("h", preset="h100"),
            make_engine("l", preset="l4"),
        ]
        assert FleetCostModel.fleet_cost_per_hour(engines) == pytest.approx(2.25)
        plain = GpuEngine(
            "p", SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=2)
        )
        assert FleetCostModel.engine_cost_per_hour(plain) == 1.0


class DirectQuotes:
    """The quote oracle: every prediction priced from scratch, one
    validated per-request ``StepWorkload`` through ``model_step_latency``
    per step — the pricing ``FleetCostModel`` itself ran (as ``_price``,
    ``_segments``, ``_running_kv_lens``, ``_pending_prefill_lens``) before
    it quoted from batch shape and KV total, moved here from ``src/``."""

    def __init__(self, cost):
        self.cost = cost

    @staticmethod
    def _running_kv_lens(engine):
        return [r.kv_len for r in engine.all_requests() if not r.needs_prefill]

    @staticmethod
    def _pending_prefill_lens(engine, request):
        return [
            r.effective_prompt_len
            for r in engine.all_requests()
            if r.needs_prefill and r.request_id != request.request_id
        ]

    @staticmethod
    def _price(pricer, work):
        return (
            model_step_latency(
                pricer.config, pricer.cost_model, work,
                tp=pricer.tp, flags=pricer.flags,
            )
            + pricer.step_overhead
        )

    @staticmethod
    def _segments(pricer, prefill_tokens, decodes):
        if not pricer.serve_lora:
            return None
        segs = [prefill_tokens] if prefill_tokens else []
        segs.extend([1] * decodes)
        return tuple(segs)

    def _solo(self, pricer, prompt):
        return self._price(
            pricer,
            StepWorkload(
                prefill_lens=(prompt,),
                lora_segments=self._segments(pricer, prompt, 0),
                lora_rank=pricer.lora_rank,
            ),
        )

    def predict_ttft(self, engine, request):
        pricer = engine.backend.pricer
        prompt = max(1, request.effective_prompt_len)
        running = self._running_kv_lens(engine)
        work = StepWorkload(
            prefill_lens=(prompt,),
            decode_kv_lens=tuple(running),
            lora_segments=self._segments(pricer, prompt, len(running)),
            lora_rank=pricer.lora_rank,
        )
        t = self.cost.load_stall(engine, request) + self._price(pricer, work)
        for other in self._pending_prefill_lens(engine, request):
            t += self._solo(pricer, max(1, other))
        return t

    def predict_itl(self, engine, request):
        pricer = engine.backend.pricer
        kv_lens = self._running_kv_lens(engine)
        kv_lens.append(max(1, request.effective_prompt_len))
        work = StepWorkload(
            decode_kv_lens=tuple(kv_lens),
            lora_segments=self._segments(pricer, 0, len(kv_lens)),
            lora_rank=pricer.lora_rank,
        )
        return self._price(pricer, work)

    def estimate(self, engine, request, now):
        policy = self.cost.control.policy_for(request.lora_id)
        elapsed = max(0.0, now - request.spec.arrival_time)
        ttft = self.predict_ttft(engine, request)
        itl = self.predict_itl(engine, request)
        ttft_headroom = policy.ttft_deadline - elapsed - ttft
        itl_headroom = policy.itl_deadline - itl
        return (
            ttft, itl, ttft_headroom, itl_headroom,
            min(ttft_headroom / policy.ttft_deadline,
                itl_headroom / policy.itl_deadline),
        )

    def optimistic_floor(self, engine, request):
        return self._solo(
            engine.backend.pricer, max(1, request.effective_prompt_len)
        )

    def best_floor(self, engines, request):
        return min(self.optimistic_floor(e, request) for e in engines)


_ORACLE_FLAGS = (
    PUNICA_FLAGS,
    PerfFlags(lora_impl="loop"),
    PerfFlags(lora_impl="gather_bmm"),
    PerfFlags(cache_concat=True),
)


@st.composite
def busy_engines(draw, gpu_id="g"):
    """A real engine driven into a drawn state: 0-8 requests decoding over
    drawn KV lengths, 0-3 more waiting to prefill."""
    fast_path = draw(st.sampled_from([None, False]))
    backend = SimulatedBackend(
        draw(st.sampled_from([LLAMA2_7B, LLAMA2_13B])),
        gpu=HwSpec.preset(draw(st.sampled_from(["h100", "a100-80g", "l4"]))),
        flags=draw(st.sampled_from(_ORACLE_FLAGS)),
        serve_lora=draw(st.booleans()),
        step_overhead=draw(st.sampled_from([0.0, 0.0005])),
        # Sized by hand: a 13B backbone does not fit an L4, and the quote
        # does not depend on how much KvCache is left.
        kv_capacity_bytes=8 * 2**30,
        fast_path=fast_path,
    )
    engine = GpuEngine(
        gpu_id, backend, EngineConfig(max_batch_size=16), fast_path=fast_path
    )
    now = 0.0
    for i in range(draw(st.integers(0, 8))):
        engine.add_request(
            make_request(f"{gpu_id}-run{i}", prompt=draw(st.integers(1, 700)),
                         response=64, lora=f"lora-{draw(st.integers(0, 3))}"),
            now,
        )
    while any(r.needs_prefill for r in engine.all_requests()):
        now += 1.0  # past every adapter load; one prompt prefills per step
        engine.step(now)
    for i in range(draw(st.integers(0, 3))):
        engine.add_request(
            make_request(f"{gpu_id}-wait{i}", prompt=draw(st.integers(1, 700)),
                         lora=f"lora-{draw(st.integers(0, 3))}"),
            now,
        )
    return engine, now


class TestQuoteOracle:
    @given(
        drawn=busy_engines(),
        others=st.lists(
            st.tuples(
                st.sampled_from(["h100", "a100-80g", "l4"]),
                st.sampled_from([LLAMA2_7B, LLAMA2_13B]),
            ),
            max_size=3,
        ),
        prompt=st.integers(1, 768),
        already_pending=st.booleans(),
        waited=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_quotes_equal_the_direct_formula(
        self, drawn, others, prompt, already_pending, waited
    ):
        """Every number the cost model hands out is ``==`` — not approx —
        the per-request ``StepWorkload`` -> ``model_step_latency`` price."""
        engine, now = drawn
        request = make_request("r", arrival=now, prompt=prompt, lora="lora-1")
        if already_pending:
            # Re-quoting a request that already waits on this engine must
            # not charge it its own prefill (the ``request_id !=`` rule).
            engine.add_request(request, now)
        now += waited
        cost = FleetCostModel(
            ControlConfig(default_policy=SloPolicy(ttft_deadline=0.3,
                                                   itl_deadline=0.12))
        )
        direct = DirectQuotes(cost)
        assert cost.predict_ttft(engine, request) == direct.predict_ttft(engine, request)
        assert cost.predict_itl(engine, request) == direct.predict_itl(engine, request)
        expected = direct.estimate(engine, request, now)
        for est in (
            cost.estimate(engine, request, now),
            cost.estimate(engine, request, now, cost.snapshot(engine)),
        ):
            assert (
                est.ttft, est.itl, est.ttft_headroom, est.itl_headroom,
                est.fitness,
            ) == expected
        fleet = [engine] + [
            make_engine(f"o{i}", preset=preset, config=config)
            for i, (preset, config) in enumerate(others)
            if (preset, config) != ("l4", LLAMA2_13B)  # does not fit
        ]
        for e in fleet:
            assert cost.optimistic_floor(e, request) == direct.optimistic_floor(e, request)
        best = direct.best_floor(fleet, request)
        assert cost.best_floor(fleet, request) == best
        assert cost.best_floor(cost.device_classes(fleet), request) == best

    def test_device_classes_split_on_every_pricing_input(self):
        base = dict(gpu=HwSpec.preset("a100-80g"))
        variants = [
            SimulatedBackend(LLAMA2_7B, **base),
            SimulatedBackend(LLAMA2_7B, **base),  # same class as the first
            SimulatedBackend(LLAMA2_13B, **base),
            SimulatedBackend(LLAMA2_7B, gpu=HwSpec.preset("l4")),
            SimulatedBackend(LLAMA2_7B, step_overhead=0.0, **base),
            SimulatedBackend(LLAMA2_7B, lora_rank=8, **base),
            SimulatedBackend(LLAMA2_7B, serve_lora=False, **base),
            SimulatedBackend(LLAMA2_7B, flags=PerfFlags(lora_impl="loop"), **base),
        ]
        engines = [GpuEngine(f"g{i}", b) for i, b in enumerate(variants)]
        classes = FleetCostModel.device_classes(engines)
        assert [e.gpu_id for e in classes] == ["g0", "g2", "g3", "g4", "g5", "g6", "g7"]
        engines[0].alive = False  # a dead engine cannot stand for its class
        assert FleetCostModel.device_classes(engines)[0].gpu_id == "g1"


class TestSloRouter:
    def _router(self, engines, ttft=100.0, itl=1.0, tracer=None):
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=ttft, itl_deadline=itl)
        )
        return SloRouter(engines, tracer=tracer, control=control)

    def test_prefill_heavy_request_routes_to_the_h100(self):
        router = self._router(
            [make_engine("l4-0", preset="l4"), make_engine("h100-0", preset="h100")]
        )
        gpu = router.submit(make_request("r", prompt=768), 0.0)
        assert gpu == "h100-0"

    def test_decode_admission_prefers_bandwidth(self):
        router = self._router(
            [make_engine("l4-0", preset="l4"), make_engine("a100-0")]
        )
        assert router.route_decode(make_request("r", prompt=512), 512) == "a100-0"

    def test_queue_drains_in_deadline_order_not_fcfs(self):
        tracer = Tracer()
        blocker = make_engine("g0", max_batch=1)
        blocker.add_request(make_request("hog"), 0.0)
        router = self._router([blocker], ttft=100.0, tracer=tracer)
        # Submit the *later* deadline first: FCFS would drain it first,
        # EDF must not.
        late = make_request("late", arrival=5.0)
        early = make_request("early", arrival=1.0)
        assert router.submit(late, 6.0) is None
        assert router.submit(early, 6.0) is None
        assert router.queue_depth == 2
        router.add_engine(make_engine("g1", max_batch=4))
        placed = router.drain_queue(7.0)
        assert placed == ["g1", "g1"]
        admits = [
            e.request_id for e in tracer.by_kind(EventKind.SLO_ADMIT)
        ]
        assert admits == ["early", "late"]

    def test_drain_pass_requotes_an_engine_it_just_admitted_onto(self):
        # One engine, two waiters that both fit: the pass must quote the
        # second against the engine *after* the first admit — a snapshot
        # kept across the admit would miss the first one's queued prefill.
        tracer = Tracer()
        blocker = make_engine("g0", max_batch=1)
        blocker.add_request(make_request("hog"), 0.0)
        router = self._router([blocker], tracer=tracer)
        first = make_request("first", arrival=1.0, prompt=300)
        second = make_request("second", arrival=2.0, prompt=200)
        assert router.submit(first, 3.0) is None
        assert router.submit(second, 3.0) is None
        engine = make_engine("g1", max_batch=4)
        router.add_engine(engine)
        probe = make_request("second", arrival=2.0, prompt=200)
        empty_ttft = router.cost.predict_ttft(engine, probe)
        assert router.drain_queue(4.0) == ["g1", "g1"]
        admits = {e.request_id: e for e in tracer.by_kind(EventKind.SLO_ADMIT)}
        # ``second`` itself now waits on g1; the probe has its id, so the
        # cost model leaves its own prefill out, as it did during the pass.
        after_first = router.cost.predict_ttft(engine, probe)
        assert after_first > empty_ttft
        assert admits["second"].attrs["ttft"] == round(after_first, 9)
        policy = router.control.default_policy
        assert admits["second"].attrs["headroom"] == round(
            policy.ttft_deadline - (4.0 - 2.0) - after_first, 9
        )

    def test_estimate_without_a_snapshot_reads_the_engine_afresh(self):
        cost = FleetCostModel()
        engine = make_engine("g", max_batch=8)
        req = make_request("r", prompt=128)
        stale = cost.snapshot(engine)
        before = cost.estimate(engine, req, 0.0)
        assert before == cost.estimate(engine, req, 0.0, stale)
        engine.add_request(make_request("a", prompt=256, lora="lora-a"), 0.0)
        queued = cost.estimate(engine, req, 0.0)
        assert queued.ttft > before.ttft and queued.itl == before.itl
        assert cost.estimate(engine, req, 0.0, stale) == before  # caller's risk
        engine.step(1.0)  # "a" prefills and joins the decode batch
        running = cost.estimate(engine, req, 1.0)
        assert running.itl > before.itl
        assert running == cost.estimate(engine, req, 1.0, cost.snapshot(engine))

    def test_negative_headroom_still_places_best_effort(self):
        router = self._router([make_engine("g")], ttft=0.001)
        req = make_request("r", prompt=512)
        assert router.submit(req, 0.0) == "g"
        assert req.state is RequestState.RUNNING
        assert router.num_slo_sheds == 0

    def test_hopeless_request_is_shed_not_queued(self):
        tracer = Tracer()
        blocker = make_engine("g", max_batch=1)
        blocker.add_request(make_request("hog"), 0.0)
        router = self._router([blocker], ttft=0.5, tracer=tracer)
        req = make_request("r", arrival=0.0)
        assert router.submit(req, 10.0) is None
        assert req.state is RequestState.FAILED
        assert router.num_slo_sheds == 1
        assert router.queue_depth == 0
        sheds = tracer.by_kind(EventKind.SLO_SHED)
        assert [e.request_id for e in sheds] == ["r"]
        assert sheds[0].attrs["reason"] == "deadline_infeasible"
        assert sheds[0].attrs["budget"] < 0

    def test_queued_request_sheds_once_budget_drops_below_floor(self):
        blocker = make_engine("g", max_batch=1)
        blocker.add_request(make_request("hog"), 0.0)
        router = self._router([blocker], ttft=2.0)
        req = make_request("r", arrival=0.0)
        router.submit(req, 0.1)
        assert router.queue_depth == 1
        router.drain_queue(50.0)
        assert req.state is RequestState.FAILED
        assert router.num_slo_sheds == 1

    def test_remembered_floor_follows_the_fleet_classes(self):
        # The router remembers the fleet floor per prompt length. When the
        # cheaper class leaves (its only engine dies) the floor must rise
        # to the remaining class's, and fall back when one rejoins — a
        # memo keyed on the prompt alone would keep the stale floor.
        def busy(gpu_id, config):
            engine = make_engine(gpu_id, max_batch=1, config=config)
            engine.add_request(make_request(f"{gpu_id}-hog"), 0.0)
            return engine

        cheap, dear = busy("7b", LLAMA2_7B), busy("13b", LLAMA2_13B)
        router = self._router([cheap, dear], ttft=10.0)
        probe = make_request("probe", arrival=0.0)
        f7 = router.cost.optimistic_floor(cheap, probe)
        f13 = router.cost.optimistic_floor(dear, probe)
        assert f7 < f13
        now = 10.0 - (f7 + f13) / 2  # the budget sits between the floors
        first, second = (make_request(r, arrival=0.0) for r in ("a", "b"))
        router.submit(first, now)
        assert router.queue_depth == 1  # above the 7B floor: it waits
        router.fail_engine("7b", now)
        router.drain_queue(now)
        assert first.state is RequestState.FAILED  # below the 13B floor
        router.add_engine(busy("7b-again", LLAMA2_7B))
        router.submit(second, now)
        assert second.state is RequestState.QUEUED
        assert router.num_slo_sheds == 1

    def test_router_is_built_at_construction_and_sheds_through_the_simulator(self):
        # No scheduler swap after construction: the simulator owns an SLO
        # router from the start, wired to its metrics and its shed path.
        tracer = Tracer()
        sim = ClusterSimulator(
            [make_engine("g", max_batch=1)], tracer=tracer,
            control=ControlConfig(
                default_policy=SloPolicy(ttft_deadline=0.5, itl_deadline=1.0)
            ),
        )
        assert isinstance(sim.scheduler, SloRouter)
        assert sim.scheduler.metrics is sim.metrics
        assert sim.scheduler.queue_depth == 0
        sim.scheduler.engines["g"].add_request(make_request("hog"), 0.0)
        late = make_request("late", arrival=0.0)
        assert sim.scheduler.submit(late, 10.0) is None
        assert late.state is RequestState.FAILED
        assert sim.metrics.slo_shed_count() == 1
        assert [e.request_id for e in tracer.by_kind(EventKind.SHED)] == ["late"]


    def test_spread_routing_conflicts_with_slo_control(self):
        # The SLO router ranks by fitness and never reads ``routing``, so
        # asking for the spread ablation under control= is an error, not a
        # silent fitness run.
        with pytest.raises(ValueError, match="routing='spread'.*control="):
            ClusterSimulator(
                [make_engine("g")], SchedulerConfig(routing="spread"),
                control=ControlConfig(),
            )
        sim = ClusterSimulator(
            [make_engine("g")], SchedulerConfig(routing="pack"),
            control=ControlConfig(),
        )
        assert isinstance(sim.scheduler, SloRouter)


# ----------------------------------------------------------------------
# Placement: the merged first-fit loop == the exhaustive SLO scans it
# replaced (admit-test every engine, then estimate and take the max)
# ----------------------------------------------------------------------
PAGE = 16
PROBE_LORA = "probe-lora"


def oracle_slo_place(router, request, now):
    """The SLO prefill scan as it was: every open engine that admits the
    request is quoted afresh, and the max ``(fitness, locality, gid)``
    wins."""
    best = None
    for gid, engine in router.engines.items():
        if not (router._prefill_capable(engine) and engine.has_free_slot):
            continue
        if not engine.can_accept(request):
            continue
        est = router.cost.estimate(engine, request, now)
        key = (est.fitness, router._adapter_locality(engine, request), gid)
        if best is None or key > best[0]:
            best = (key, gid)
    return None if best is None else best[1]


def oracle_slo_route_decode(router, request, kv_tokens):
    """The SLO decode scan as it was: ITL headroom, locality, working set,
    gid over every decode-capable engine that admits the history."""
    policy = router.control.policy_for(request.lora_id)
    best = None
    for gid, engine in router.engines.items():
        if not router._decode_capable(engine):
            continue
        if not engine.can_accept(request, kv_tokens):
            continue
        key = (
            policy.itl_deadline - router.cost.predict_itl(engine, request),
            router._adapter_locality(engine, request),
            engine.working_set_size,
            gid,
        )
        if best is None or key > best[0]:
            best = (key, gid)
    return None if best is None else best[1]


@st.composite
def slo_fleets(draw):
    """1-6 engines of mixed presets and roles, each with 0-4 requests
    (decoding or still waiting to prefill, up to a full batch), some
    KvCache-tight and some with the probe's adapter warm; plus a probe
    request, the clock and an imported KV length."""
    engines = []
    now = 1.0
    for i in range(draw(st.integers(1, 6))):
        max_batch = draw(st.integers(1, 4))
        engine = make_engine(
            f"g{i}", preset=draw(st.sampled_from(["l4", "a100-80g", "h100"])),
            max_batch=max_batch,
            role=draw(st.sampled_from(["both", "both", "prefill", "decode"])),
        )
        if draw(st.booleans()):
            engine.loader.request_load(PROBE_LORA, 40e6, now=0.0)
        n_running = draw(st.integers(0, min(4, max_batch)))
        for j in range(n_running):
            engine.add_request(
                make_request(f"g{i}-r{j}", prompt=draw(st.integers(1, 256)),
                             response=32,
                             lora=draw(st.sampled_from(["bg", PROBE_LORA]))),
                0.0,
            )
        if draw(st.booleans()):  # prefill what is there: decoding, not pending
            while any(r.needs_prefill for r in engine.all_requests()):
                engine.step(now)
        if draw(st.booleans()):  # KvCache-tight: leave 0-5 pages free
            filler = engine.kv_free_tokens() - draw(st.integers(0, 5)) * PAGE
            if filler > 0:
                engine.backend.kv.allocate(f"filler-g{i}", filler)
        engines.append(engine)
    router = SloRouter(
        engines,
        control=ControlConfig(default_policy=SloPolicy(
            ttft_deadline=draw(st.sampled_from([0.05, 0.3, 2.0])),
            itl_deadline=draw(st.sampled_from([0.01, 0.12])),
        )),
    )
    now += 1.0
    probe = make_request(
        "probe", arrival=now - draw(st.floats(0.0, 0.5)),
        prompt=draw(st.integers(1, 6 * PAGE)), lora=PROBE_LORA,
    )
    return router, probe, now, draw(st.integers(1, 6 * PAGE))


class TestSloPlacementOracle:
    """The merge turned SLO placement from "admit-test, then estimate"
    into "estimate, then admit-test down to the winner"; the winner must
    not move, and ``can_accept`` must stop at it."""

    @given(slo_fleets())
    @settings(max_examples=60, deadline=None)
    def test_picks_equal_the_exhaustive_scans(self, fleet):
        router, probe, now, kv_tokens = fleet
        engines = router.engines
        loc = {gid: router._adapter_locality(e, probe) for gid, e in engines.items()}

        want = oracle_slo_place(router, probe, now)
        keys = {
            gid: (router.cost.estimate(e, probe, now).fitness, loc[gid], gid)
            for gid, e in engines.items()
            if router._prefill_capable(e) and e.has_free_slot
        }
        router._new_pass()
        with CountedAdmission(router) as counted:
            assert router._route(probe, now) == want
        assert counted.calls <= asked_at_most(want, keys)

        want_decode = oracle_slo_route_decode(router, probe, kv_tokens)
        itl_deadline = router.control.default_policy.itl_deadline
        keys = {
            gid: (itl_deadline - router.cost.predict_itl(e, probe), loc[gid],
                  e.working_set_size, gid)
            for gid, e in engines.items() if router._decode_capable(e)
        }
        with CountedAdmission(router) as counted:
            assert router.route_decode(probe, kv_tokens) == want_decode
        assert counted.calls <= asked_at_most(want_decode, keys)

        # The public path: submit places on the same engine, or else
        # queues or sheds the probe.
        assert router.submit(probe, now) == want
        if want is None:
            assert router.queue_depth + router.num_slo_sheds == 1
        else:
            assert engines[want].has_request("probe")


class TestHeadBlocking:
    """One KvCache-tight engine: the queue head needs more KV than is
    free, and the waiter behind it fits."""

    def _queued_pair(self, scheduler_cls, **kwargs):
        engine = make_engine("g", max_batch=2)
        hog = make_request("hog", prompt=16)
        engine.add_request(hog, 0.0)
        engine.add_request(make_request("hog2", prompt=16), 0.0)
        sched = scheduler_cls([engine], **kwargs)
        head = make_request("head", arrival=0.0, prompt=8 * PAGE)
        tail = make_request("tail", arrival=0.5, prompt=PAGE)
        assert sched.submit(head, 1.0) is None
        assert sched.submit(tail, 1.0) is None
        # A slot frees up, but only two pages of KvCache stay free.
        engine.cancel("hog")
        engine.backend.kv.allocate("filler", engine.kv_free_tokens() - 2 * PAGE)
        assert not engine.can_accept(head) and engine.can_accept(tail)
        return sched, engine

    def test_fcfs_head_blocks_the_waiter_behind_it(self):
        sched, engine = self._queued_pair(PunicaScheduler)
        assert sched.drain_queue(2.0) == []
        assert [r.request_id for r in sched.drain_all_queued()] == ["head", "tail"]
        assert not engine.has_request("tail")

    def test_edf_places_the_waiter_behind_a_head_that_does_not_fit(self):
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=100.0, itl_deadline=1.0)
        )
        sched, engine = self._queued_pair(SloRouter, control=control)
        assert sched.drain_queue(2.0) == ["g"]
        assert engine.has_request("tail")
        assert sched.num_slo_sheds == 0
        assert [r.request_id for r in sched.drain_all_queued()] == ["head"]


class TestSloClusterSimulator:
    def test_attainment_recorded_and_matches_helper(self):
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=1.0, itl_deadline=0.25)
        )
        sim = SloClusterSimulator(
            [make_engine(f"g{i}") for i in range(2)], control=control
        )
        result = sim.run(make_trace())
        assert result.requests
        recorded = sim.metrics.slo_attainment()
        assert recorded == pytest.approx(
            slo_attainment(result.requests, control, result.duration)
        )
        assert (
            sim.metrics.slo_attained_count() + sim.metrics.slo_missed_count()
            == len(result.requests)
        )

    def test_deterministic(self):
        def run():
            tracer = Tracer()
            sim = SloClusterSimulator(
                [make_engine(f"g{i}", step_overhead=0.01) for i in range(2)],
                tracer=tracer,
            )
            sim.run(make_trace(rate=12.0))
            return tracer.dumps_jsonl()

        assert run() == run()

    def test_cancelled_requests_are_not_scored(self):
        control = ControlConfig()
        req = make_request("r")
        req.mark_cancelled()
        assert score_requests([req], control, 1.0) == []
        assert slo_attainment([req], control, 1.0) == 0.0


class TestPredictiveAutoscaler:
    def _sim(self, tracer=None, control=None, **cfg):
        defaults = dict(
            min_gpus=1, max_gpus=4, provision_delay=1.0,
            release_idle_after=0.5, check_interval=0.5,
        )
        defaults.update(cfg)
        return ClusterSimulator(
            pool=ElasticPool(
                lambda gid: make_engine(gid, max_batch=4),
                ElasticConfig(**defaults),
                predictive=PredictiveConfig(service_rate_per_gpu=2.0),
            ),
            tracer=tracer, control=control,
        )

    def test_burst_grows_the_pool_ahead_of_the_queue(self):
        tracer = Tracer()
        sim = self._sim(tracer=tracer)
        result = sim.run(make_trace(rate=12.0, duration=3.0))
        assert result.scale_ups > 0
        ups = tracer.by_kind(EventKind.SCALE_UP)
        assert ups and all(e.attrs["forecast"] > 0 for e in ups)
        # Forecast sizing can add several GPUs in one decision.
        assert sum(e.attrs["add"] for e in ups) == result.scale_ups

    def test_drain_tail_releases_back_to_the_floor(self):
        tracer = Tracer()
        sim = self._sim(tracer=tracer)
        result = sim.run(make_trace(rate=12.0, duration=2.0))
        assert result.releases > 0
        assert len(sim.scheduler.engines) == 1
        downs = tracer.by_kind(EventKind.SCALE_DOWN)
        assert len(downs) == result.releases
        assert all(e.gpu_id is not None for e in downs)

    def test_warm_up_veto_blocks_immediate_release(self):
        # Grace period far below the provisioning delay: without the
        # warm-up veto every landed GPU would be released the tick after
        # its burst passed, before amortizing its provisioning cost.
        sim = self._sim(provision_delay=2.0, release_idle_after=0.1)
        result = sim.run(make_trace(rate=12.0, duration=2.0))
        closed = [l for l in result.leases if l.end is not None]
        assert closed, "expected the drain tail to release grown GPUs"
        for lease in closed:
            assert lease.end - lease.start >= 2.0

    def test_deterministic(self):
        r1 = self._sim().run(make_trace(seed=3, rate=12.0))
        r2 = self._sim().run(make_trace(seed=3, rate=12.0))
        assert r1.gpu_seconds() == r2.gpu_seconds()
        assert r1.scale_ups == r2.scale_ups

    def test_pool_with_control_scores_attainment(self):
        # The same run() serves every composition, so a pool-attached
        # simulator under SLO control populates the attainment counters.
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=1.0, itl_deadline=0.25)
        )
        sim = self._sim(control=control)
        result = sim.run(make_trace(rate=12.0, duration=2.0))
        assert result.scale_ups > 0
        assert (
            sim.metrics.slo_attained_count() + sim.metrics.slo_missed_count()
            == len(result.requests)
        )
        assert sim.metrics.slo_attainment() == pytest.approx(
            slo_attainment(result.requests, control, result.duration)
        )


class TestSloDisagg:
    def test_late_waiters_shed_but_delivered_requests_keep_their_place(self):
        from repro.hw.interconnect import InterconnectSpec

        slow_wire = InterconnectSpec(
            name="slow", bus_bandwidth=1e9, latency=0.6
        )
        tracer = Tracer()
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=0.5, itl_deadline=1.0)
        )
        sim = ClusterSimulator(
            [make_engine("p0", role="prefill"), make_engine("d0", role="decode")],
            control=control,
            handoff=DisaggConfig(interconnect=slow_wire),
            tracer=tracer,
        )
        result = sim.run(make_trace(n=6, rate=4.0, duration=1.0))
        # Every handoff lands after the 0.6 s wire beats the 0.5 s TTFT
        # deadline: all first-token waiters are shed at the EDF drain.
        sheds = tracer.by_kind(EventKind.SLO_SHED)
        assert sheds
        shed_ids = {e.request_id for e in sheds}
        for req in result.requests:
            if req.request_id in shed_ids:
                assert req.state is RequestState.FAILED
        assert sim.metrics.slo_shed_count() == len(sheds)

    def test_drain_guard_never_sheds_a_delivered_request(self):
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=0.5, itl_deadline=1.0)
        )
        sim = ClusterSimulator(
            [make_engine("p0", role="prefill"), make_engine("d0", role="decode")],
            control=control, handoff=DisaggConfig(),
        )
        # Simulate a re-transfer after a mid-decode migration: the waiter
        # already has its first token, so however late the clock runs the
        # EDF drain must route it instead of shedding.
        req = make_request("r", prompt=16, response=8)
        req.needs_prefill = False
        req.mark_running("p0", 0.0)
        req.first_token_time = 0.2
        sim.handoff.decode_queue.append((10.0, 0, req, 16, None))
        handled = sim.handoff.drain(10.0)
        assert handled == ["r"]
        assert req.state is not RequestState.FAILED
        assert sim.scheduler.engines["d0"].has_request("r")

    def test_deterministic(self):
        def run():
            tracer = Tracer()
            sim = ClusterSimulator(
                [make_engine(f"p{i}", role="prefill") for i in range(2)]
                + [make_engine(f"d{i}", role="decode") for i in range(2)],
                handoff=DisaggConfig(),
                control=ControlConfig(
                    default_policy=SloPolicy(
                        ttft_deadline=0.8, itl_deadline=0.25
                    )
                ),
                tracer=tracer,
            )
            sim.run(make_trace(rate=10.0))
            return tracer.dumps_jsonl()

        assert run() == run()
