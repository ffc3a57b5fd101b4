"""The shared price list: every live :class:`StepPricer` of one identity
prices through one kernel cost model and one shape memo
(``repro.runtime.pricing._PRICE_LISTS``), and that sharing never moves
a price."""

import gc
import pathlib
import weakref
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.control.costmodel import FleetCostModel
from repro.hw.spec import HwSpec
from repro.models.config import LLAMA2_7B, LLAMA2_13B
from repro.models.perf import PerfFlags
from repro.obs.scenarios import run_scenario
from repro.runtime import pricing
from repro.runtime.backend import SimulatedBackend
from repro.runtime.pricing import StepPricer

A100 = HwSpec.preset("a100-80g")


def fresh_pricer(**identity) -> StepPricer:
    """A pricer on a price list nobody else has touched."""
    with mock.patch.object(pricing, "_PRICE_LISTS", weakref.WeakValueDictionary()):
        return StepPricer(**identity)


def test_one_identity_holds_one_price_list():
    a, b = (SimulatedBackend(LLAMA2_7B, gpu=A100).pricer for _ in range(2))
    assert a._prices is b._prices
    assert a.cost_model is b.cost_model
    assert a._terms_memo is b._terms_memo
    # The pair the old private floor cache aliased (one GPU preset, two
    # models) and a pair differing only in host step overhead.
    for other in (
        SimulatedBackend(LLAMA2_13B, gpu=A100).pricer,
        SimulatedBackend(LLAMA2_7B, gpu=A100, step_overhead=0.0).pricer,
    ):
        assert other.identity != a.identity
        assert other._prices is not a._prices
        assert other._terms_memo is not a._terms_memo
        assert other.cost_model is not a.cost_model


def test_the_registry_forgets_an_identity_with_its_last_pricer():
    # A step overhead no other test uses: an identity of this test's own.
    identity = dict(config=LLAMA2_7B, step_overhead=0.000123)
    first, second = StepPricer(**identity), StepPricer(**identity)
    key = first.identity
    first.step_seconds((64,), 0, 0)
    del first
    gc.collect()
    assert key in pricing._PRICE_LISTS  # the second pricer keeps it
    assert second._terms_memo
    del second
    gc.collect()
    assert key not in pricing._PRICE_LISTS
    assert StepPricer(**identity)._terms_memo == {}


@st.composite
def identities(draw):
    return dict(
        config=draw(st.sampled_from([LLAMA2_7B, LLAMA2_13B])),
        gpu=HwSpec.preset(draw(st.sampled_from(["a100-80g", "h100", "l4"]))),
        flags=PerfFlags(
            lora_impl=draw(st.sampled_from(["sgmv", "gather_bmm", "loop"])),
            cache_concat=draw(st.booleans()),
        ),
        serve_lora=draw(st.booleans()),
        step_overhead=draw(st.sampled_from([0.0, 0.001])),
    )


@st.composite
def shapes(draw):
    """``(prefill_lens, n_decode, total_kv, segments)``: segments group
    consecutive requests (a prefill counts its tokens, a decode one), or
    are ``None`` — a quote, every request on its own adapter."""
    prefill = tuple(draw(st.lists(st.integers(1, 512), max_size=3)))
    n_decode = draw(st.integers(0 if prefill else 1, 8))
    total_kv = n_decode + draw(st.integers(0, 4096)) if n_decode else 0
    if draw(st.booleans()):
        return prefill, n_decode, total_kv, None
    tokens = list(prefill) + [1] * n_decode
    segments = [tokens[0]]
    for size in tokens[1:]:
        if draw(st.booleans()):
            segments.append(size)
        else:
            segments[-1] += size
    return prefill, n_decode, total_kv, tuple(segments)


@settings(max_examples=60, deadline=None)
@given(identity=identities(), warmup=st.lists(shapes(), max_size=6),
       probes=st.lists(shapes(), min_size=1, max_size=6))
def test_a_memo_warmed_by_other_pricers_prices_like_a_fresh_one(
    identity, warmup, probes
):
    warmers = [StepPricer(**identity) for _ in range(2)]
    # Warm the shared list with the drawn shapes and with each probe's
    # shape under another KV total and the other segment assumption (a
    # quote where the probe is a step and vice versa): the entries a
    # probe hits were built from a different request.
    for prefill, n_decode, total_kv, segments in probes:
        other = None if segments is not None else prefill + (1,) * n_decode
        warmup.append((prefill, n_decode, total_kv + n_decode, other))
    for i, shape in enumerate(warmup):
        warmers[i % 2].step_seconds(*shape)
    warm = StepPricer(**identity)
    assert warm._terms_memo is warmers[0]._terms_memo
    for shape in probes:
        fresh = fresh_pricer(**identity)
        assert fresh._terms_memo is not warm._terms_memo
        assert warm.step_seconds(*shape) == fresh.step_seconds(*shape)


def test_slo_scenario_builds_each_shape_and_each_floor_once(monkeypatch):
    """On the ``slo`` scenario every (identity, shape) is built once,
    however many engines and quotes ask for it, and the router prices
    the fleet floor once per (device-class set, prompt length). Its
    engines run SGMV, whose memo key is the segment count."""
    monkeypatch.setattr(pricing, "_PRICE_LISTS", weakref.WeakValueDictionary())
    builds = []
    build = pricing.step_latency_terms

    def counted_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    shapes_seen = set()
    lookup = StepPricer._terms

    def watched(self, prefill_lens, n_decode, total_kv, segments):
        assert self.flags.lora_impl == "sgmv" and self.serve_lora
        count = (
            len(segments) if segments is not None
            else len(prefill_lens) + n_decode
        )
        shapes_seen.add((self.identity, prefill_lens, n_decode, count))
        return lookup(self, prefill_lens, n_decode, total_kv, segments)

    floors = []
    best_floor = FleetCostModel.best_floor

    def watched_floor(self, engines, request):
        engines = list(engines)
        floors.append((
            frozenset(e.backend.pricer.identity for e in engines),
            max(1, request.effective_prompt_len),
        ))
        return best_floor(self, engines, request)

    monkeypatch.setattr(pricing, "step_latency_terms", counted_build)
    monkeypatch.setattr(StepPricer, "_terms", watched)
    monkeypatch.setattr(FleetCostModel, "best_floor", watched_floor)
    golden = (
        pathlib.Path(__file__).parent / "golden" / "slo.jsonl"
    ).read_text()
    assert run_scenario("slo", seed=0).tracer.dumps_jsonl() == golden
    assert builds and len(builds) == len(shapes_seen)
    assert floors and len(floors) == len(set(floors))
