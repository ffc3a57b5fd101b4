"""Tests for the continuous-batching engine with the simulated backend."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.runtime.engine as engine_module
from repro.core.batch import BatchEntry, plan_batch
from repro.models.config import LLAMA2_7B, tiny_config
from repro.models.perf import PUNICA_FLAGS, PerfFlags
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.utils.units import GIB
from repro.workloads.trace import RequestSpec
from tests.test_core_batch import assert_plans_equal


def make_request(rid, lora="m0", prompt=16, response=4, arrival=0.0):
    return Request(
        spec=RequestSpec(
            request_id=rid, lora_id=lora, arrival_time=arrival,
            prompt_len=prompt, response_len=response,
        )
    )


def make_engine(
    max_batch=32, same_lora_only=False, kv_capacity=None, config=LLAMA2_7B,
    fast_path=None, prefill_batch_limit=1,
):
    backend = SimulatedBackend(config, kv_capacity_bytes=kv_capacity, step_overhead=0.0)
    return GpuEngine(
        "gpu0",
        backend,
        EngineConfig(
            max_batch_size=max_batch, same_lora_only=same_lora_only,
            prefill_batch_limit=prefill_batch_limit,
        ),
        fast_path=fast_path,
    )


def run_until_idle(engine, now=0.0, limit=10_000):
    reports = []
    for _ in range(limit):
        r = engine.step(now)
        if r is None:
            if engine.is_idle:
                break
            now += 1e-3  # waiting on LoRA load
            continue
        reports.append(r)
        now = r.end
    return reports, now


class TestAdmission:
    def test_add_and_serve_one_request(self):
        engine = make_engine()
        req = make_request("r0", response=3)
        engine.add_request(req, now=0.0)
        reports, _ = run_until_idle(engine)
        assert req.state is RequestState.FINISHED
        assert req.num_generated == 3
        # prefill step + 2 decode steps
        assert len(reports) == 3
        assert reports[0].num_prefill == 1

    def test_max_batch_size_enforced(self):
        engine = make_engine(max_batch=2)
        engine.add_request(make_request("r0"), 0.0)
        engine.add_request(make_request("r1"), 0.0)
        assert not engine.can_accept(make_request("r2"))
        with pytest.raises(RuntimeError):
            engine.add_request(make_request("r2"), 0.0)

    def test_kv_capacity_enforced(self):
        # Tiny pool: ~2000 tokens.
        engine = make_engine(kv_capacity=2000 * LLAMA2_7B.kv_bytes_per_token())
        assert not engine.can_accept(make_request("big", prompt=4000))

    def test_duplicate_rejected(self):
        engine = make_engine()
        engine.add_request(make_request("r0"), 0.0)
        with pytest.raises(ValueError):
            engine.add_request(make_request("r0"), 0.0)

    def test_working_set_counts_pending(self):
        engine = make_engine()
        engine.add_request(make_request("r0"), 0.0)
        assert engine.working_set_size == 1
        assert not engine.is_idle


class TestLoraLoading:
    def test_request_waits_for_lora_load(self):
        engine = make_engine()
        engine.add_request(make_request("r0"), now=0.0)
        # The ~2ms PCIe copy hasn't finished at t=0: no prefill possible.
        assert engine.step(0.0) is None
        ready = engine.loader.ready_time("m0")
        report = engine.step(ready)
        assert report is not None and report.num_prefill == 1

    def test_resident_lora_needs_no_wait(self):
        engine = make_engine()
        engine.add_request(make_request("r0", lora="m0"), 0.0)
        run_until_idle(engine)
        # Second request for the same model: weights already resident.
        engine.add_request(make_request("r1", lora="m0"), now=100.0)
        assert engine.step(100.0) is not None


class TestContinuousBatching:
    def test_multi_lora_requests_share_batches(self):
        engine = make_engine()
        t = 0.0
        for i in range(4):
            engine.add_request(make_request(f"r{i}", lora=f"m{i}", response=8), t)
        reports, _ = run_until_idle(engine)
        assert any(r.num_lora_segments >= 3 for r in reports)
        assert max(r.batch_size for r in reports) == 4

    def test_one_prefill_per_step(self):
        engine = make_engine()
        for i in range(3):
            engine.add_request(make_request(f"r{i}", response=6), 0.0)
        reports, _ = run_until_idle(engine)
        assert all(r.num_prefill <= 1 for r in reports)

    def test_finished_request_leaves_immediately(self):
        # Separable KvCache: short request exits while long one continues.
        engine = make_engine()
        engine.add_request(make_request("short", response=4), 0.0)
        engine.add_request(make_request("long", response=10), 0.0)
        reports, _ = run_until_idle(engine)
        sizes = [r.num_decode for r in reports]
        assert 1 in sizes and 2 in sizes  # batch shrank mid-flight

    def test_armed_batch_counts_reuse_against_plans_built(self):
        # ``_plan_cache`` is the armed batch: a hit is a step on the plan
        # the previous step armed, a miss is a plan built.
        engine = make_engine()
        engine.add_request(make_request("short", response=4), 0.0)
        engine.add_request(make_request("long", response=10), 0.0)
        reports, _ = run_until_idle(engine)
        # Two steps carry a prefill and plan from scratch; the second arms
        # {short, long} (2 armed steps until short finishes), the re-arm on
        # {long} carries the remaining 7.
        assert len(reports) == 11
        assert engine._plan_cache.hits == 9
        assert engine._plan_cache.misses == 2 + 2

    def test_same_lora_only_mode_blocks_other_models(self):
        engine = make_engine(same_lora_only=True)
        engine.add_request(make_request("r0", lora="a", response=6), 0.0)
        assert not engine.can_accept(make_request("r1", lora="b"))
        assert engine.can_accept(make_request("r2", lora="a"))

    def test_tokens_counted_per_step(self):
        engine = make_engine()
        engine.add_request(make_request("r0", response=5), 0.0)
        reports, _ = run_until_idle(engine)
        assert sum(r.tokens_generated for r in reports) == 5


class TestEviction:
    def test_memory_pressure_evicts_newest(self):
        bpt = LLAMA2_7B.kv_bytes_per_token()
        # Pool of exactly 48 tokens (page_size 16 -> 3 pages).
        engine = make_engine(kv_capacity=48 * bpt)
        old = make_request("old", prompt=16, response=40)
        new = make_request("new", prompt=16, response=40)
        engine.add_request(old, 0.0)
        reports, now = [], 1.0
        engine.add_request(new, 0.5)
        for _ in range(200):
            r = engine.step(now)
            if r is None:
                if engine.is_idle:
                    break
                now += 1e-3
                continue
            reports.append(r)
            now = r.end
            if r.evicted:
                break
        evicted = [rid for r in reports for rid in r.evicted]
        assert evicted == ["new"]  # newest evicted, FCFS preserved
        assert new.state is RequestState.QUEUED
        assert new.needs_prefill
        assert new.num_generated > 0  # progress preserved

    def test_cancel_requeue_preserves_tokens(self):
        engine = make_engine()
        req = make_request("r0", response=10)
        engine.add_request(req, 0.0)
        ready = engine.loader.ready_time("m0")
        engine.step(ready)
        engine.step(ready + 1.0)
        assert req.num_generated == 2
        returned = engine.cancel("r0", requeue=True)
        assert returned is req
        assert req.state is RequestState.QUEUED
        assert req.num_generated == 2
        assert engine.is_idle

    def test_cancel_without_requeue(self):
        engine = make_engine()
        req = make_request("r0")
        engine.add_request(req, 0.0)
        engine.cancel("r0")
        assert req.state is RequestState.CANCELLED

    def test_cancel_unknown(self):
        with pytest.raises(KeyError):
            make_engine().cancel("ghost")


class TestConfigValidation:
    def test_prefill_batch_limit_zero_rejected(self):
        # 0 used to slip through a `< 0` check and starve every queued
        # request forever.
        with pytest.raises(ValueError, match="prefill_batch_limit"):
            EngineConfig(prefill_batch_limit=0)

    def test_prefill_batch_limit_negative_rejected(self):
        with pytest.raises(ValueError, match="prefill_batch_limit"):
            EngineConfig(prefill_batch_limit=-1)

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_eos_rejected_on_counter_tokens(self, fast_path):
        # The simulated backend's tokens are counters: an EOS id would
        # end whichever request drew that count.
        with pytest.raises(ValueError, match="eos_token_id"):
            GpuEngine(
                "gpu0", SimulatedBackend(LLAMA2_7B),
                EngineConfig(eos_token_id=2), fast_path=fast_path,
            )


class TestKvHandoff:
    def test_export_then_import_resumes_without_reprefill(self):
        src = make_engine()
        dst = make_engine()
        req = make_request("r0", prompt=16, response=4)
        src.add_request(req, 0.0)
        ready = src.loader.ready_time("m0")
        report = src.step(ready)
        assert report.num_prefill == 1 and req.num_generated == 1

        request, kv_tokens, payload = src.export_request("r0", report.end)
        assert request is req
        assert kv_tokens == req.kv_len and kv_tokens >= 16
        assert src.is_idle
        assert not req.needs_prefill

        assert dst.can_accept(req, kv_tokens)
        dst.import_request(req, kv_tokens, payload, report.end)
        assert req.state is RequestState.RUNNING
        reports, _ = run_until_idle(dst, now=report.end)
        assert req.state is RequestState.FINISHED
        assert req.num_generated == 4
        # The whole point of the handoff: no prefill on the decode side.
        assert all(r.num_prefill == 0 for r in reports)

    def test_export_requires_active_request(self):
        engine = make_engine()
        req = make_request("r0")
        engine.add_request(req, 0.0)
        # Still pending (prefill hasn't run): nothing to export.
        with pytest.raises(KeyError):
            engine.export_request("r0", 0.0)
        with pytest.raises(KeyError):
            engine.export_request("ghost", 0.0)

    def test_import_rejected_when_batch_full(self):
        src = make_engine()
        dst = make_engine(max_batch=1)
        dst.add_request(make_request("occupant"), 0.0)
        req = make_request("r0", prompt=16, response=4)
        src.add_request(req, 0.0)
        report = src.step(src.loader.ready_time("m0"))
        _, kv_tokens, payload = src.export_request("r0", report.end)
        assert not dst.can_accept(req, kv_tokens)
        with pytest.raises(RuntimeError):
            dst.import_request(req, kv_tokens, payload, report.end)


class TestStepReport:
    def test_report_fields(self):
        engine = make_engine()
        engine.add_request(make_request("r0", prompt=32), 0.0)
        ready = engine.loader.ready_time("m0")
        r = engine.step(ready)
        assert r.gpu_id == "gpu0"
        assert r.start == ready
        assert r.end == ready + r.latency
        assert r.latency > 0
        assert r.num_prefill == 1 and r.num_decode == 0
        assert r.batch_size == 1


class TestEvictionOrderingRegression:
    """Pin §5.3's newest-victim-first ordering under sustained KvCache
    pressure, with multiple victims in one run and on both engine paths.

    The scenario: four requests admitted in order, then the remaining
    KvCache pages are consumed by a blocker allocation. As each request's
    sequence crosses a page boundary it needs a fresh page, so victims
    must fall in exact reverse-admission order (d first, then c) while
    the two oldest requests run to completion — FCFS preserved.
    """

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_multi_victim_newest_first(self, fast_path):
        bpt = LLAMA2_7B.kv_bytes_per_token()
        backend = SimulatedBackend(
            LLAMA2_7B, kv_capacity_bytes=8 * 16 * bpt, step_overhead=0.0,
            fast_path=fast_path,
        )
        engine = GpuEngine(
            "gpu0", backend, EngineConfig(max_batch_size=8),
            fast_path=fast_path,
        )
        reqs = {
            rid: make_request(rid, prompt=8, response=12)
            for rid in ("a", "b", "c", "d")
        }
        now = 0.0
        reports = []
        for rid in ("a", "b", "c", "d"):
            engine.add_request(reqs[rid], now)
            for _ in range(100):
                r = engine.step(now)
                if r is None:
                    now += 1e-3
                    continue
                reports.append(r)
                now = r.end
                if not reqs[rid].needs_prefill:
                    break
            assert not reqs[rid].needs_prefill
        # Eat every remaining page: the next boundary crossing must evict.
        backend.kv_admit("blocker", backend.kv.free_pages * 16)
        assert backend.kv.free_pages == 0
        for _ in range(400):
            r = engine.step(now)
            if r is None:
                if engine.is_idle:
                    break
                now += 1e-3
                continue
            reports.append(r)
            now = r.end
        evicted = [rid for r in reports for rid in r.evicted]
        assert evicted == ["d", "c"]  # strict newest-first, one per crossing
        assert reqs["a"].state is RequestState.FINISHED
        assert reqs["b"].state is RequestState.FINISHED
        assert reqs["c"].state is RequestState.QUEUED
        assert reqs["d"].state is RequestState.QUEUED
        # Victims keep their generated prefix for re-placement (§5.3).
        assert reqs["c"].num_generated > 0
        assert reqs["d"].num_generated > 0

    def test_fast_and_reference_evictions_agree(self):
        """Step for step: starts, exact latencies, batches, finishes and
        evictions. Under ``cache_concat`` a layer term reads the KV
        lengths, so no shape-keyed latency memo may serve the fast path."""

        def run(fast_path, flags):
            bpt = LLAMA2_7B.kv_bytes_per_token()
            backend = SimulatedBackend(
                LLAMA2_7B, kv_capacity_bytes=6 * 16 * bpt, step_overhead=0.0,
                flags=flags, fast_path=fast_path,
            )
            engine = GpuEngine(
                "gpu0", backend, EngineConfig(max_batch_size=8),
                fast_path=fast_path,
            )
            reqs = [
                make_request(f"r{i}", prompt=8, response=20, arrival=0.1 * i)
                for i in range(5)
            ]
            now, i = 0.0, 0
            log = []
            for _ in range(600):
                while i < len(reqs) and reqs[i].spec.arrival_time <= now:
                    if engine.can_accept(reqs[i]):
                        engine.add_request(reqs[i], now)
                        i += 1
                    else:
                        break
                r = engine.step(now)
                if r is None:
                    if engine.is_idle and i >= len(reqs):
                        break
                    now += 1e-3
                    continue
                log.append(
                    (round(r.start, 9), r.latency, r.batch_size, r.finished,
                     r.evicted)
                )
                now = r.end
            return log, [(q.request_id, q.state) for q in reqs]

        for flags in (PUNICA_FLAGS, PerfFlags(cache_concat=True)):
            assert run(True, flags) == run(False, flags), flags


def _decode_entries(engine):
    return [
        BatchEntry(s.request.request_id, s.request.lora_id, 1, False)
        for s in engine._working_order
    ]


def assert_armed_is_fresh(engine):
    """The armed batch, however it got there, is what arming the working
    set from scratch gives: ``plan_batch`` over ``_working_order``, its
    ids, KV total and countdowns — always, pending work or not — and its
    laid plan, whenever one is laid. A prefill that joined this step
    counts its first token once: in ``fin`` and in ``total``. Bulk
    commits leave each request ``lag`` steps behind the batch's step
    count until a reader writes them back; this check reads nothing that
    writes back."""
    steady = engine._steady
    slots = engine._working_order
    decodes = _decode_entries(engine)
    lag = steady.steps - steady.synced
    assert [e for g in steady.groups.values() for e in g] == (
        list(plan_batch(decodes).entries) if decodes else []
    )
    if steady.decode_plan is not None:
        assert_plans_equal(steady.decode_plan, plan_batch(decodes))
    assert steady.ids == [s.request.request_id for s in slots]
    assert steady.total == sum(s.request.kv_len + lag + 1 for s in slots)
    assert [f - steady.steps for f in steady.fin] == [
        s.request.spec.response_len - s.request.num_generated - lag for s in slots
    ]


def assert_matches_reference(engine, ref, seen, lagging=()):
    """Every request in ``seen`` (id -> the request on ``engine`` and its
    twin on ``ref``) — running, finished, cancelled — holds the state,
    time stamps, ``kv_len`` and tokens of its twin on ``ref``, a
    reference-path engine stepped one step at a time, and the two
    allocators hold the same page lists, lengths and free list. Requests
    in ``lagging`` (an armed batch not yet written back) skip the
    per-request lengths and tokens, never their pages."""
    for rid, (req, twin) in seen.items():
        assert (req.state, req.first_token_time, req.finish_time) == (
            twin.state, twin.first_token_time, twin.finish_time
        ), rid
        if rid not in lagging:
            assert (req.kv_len, req.generated_tokens) == (
                twin.kv_len, twin.generated_tokens
            ), rid
    alloc, ref_alloc = engine.backend.kv.allocator, ref.backend.kv.allocator
    assert alloc._free == ref_alloc._free
    assert alloc._pages == ref_alloc._pages
    assert {rid: n for rid, n in alloc.lengths.items() if rid not in lagging} == {
        rid: n for rid, n in ref_alloc.lengths.items() if rid not in lagging
    }


def watch_plans(engine):
    """Check every executed plan against ``plan_batch`` over the step's
    prefills followed by its decodes in slot order (the working slots
    when the backend runs: this step's prefills join after it)."""
    backend = engine.backend
    execute = backend.execute
    seen = []

    def checked(plan, past_lens, **kwargs):
        prefills = list(plan.entries[:len(plan.prefill_lens)])
        decodes = _decode_entries(engine)
        assert_plans_equal(plan, plan_batch(prefills + decodes))
        seen.append((len(prefills), len(decodes)))
        return execute(plan, past_lens, **kwargs)

    backend.execute = checked
    return seen


def watch_regroupings(monkeypatch):
    """Record the entries of every ``plan_batch`` call engines make."""
    calls = []
    planner = engine_module.plan_batch

    def recording(entries):
        calls.append([e.is_prefill for e in entries])
        return planner(entries)

    monkeypatch.setattr(engine_module, "plan_batch", recording)
    return calls


class TestArmedBatchEdits:
    """Every join and leave edits the armed batch; the result must be
    what planning from scratch gives."""

    def test_first_member_leaving_reorders_groups(self, monkeypatch):
        # Working order a1, b1, a2: the plan groups A (a1, a2) before B.
        # When a1 finishes, A's first member is a2, behind b1: B leads.
        engine = make_engine()
        for rid, lora, response in (("a1", "A", 5), ("b1", "B", 9), ("a2", "A", 9)):
            engine.add_request(make_request(rid, lora=lora, response=response), 0.0)
        watch_plans(engine)
        regroupings = watch_regroupings(monkeypatch)
        now = 0.0
        orders = []
        while not engine.is_idle:
            r = engine.step(now)
            if r is None:
                now += 1e-3
                continue
            now = r.end
            assert_armed_is_fresh(engine)
            if engine._steady.decode_plan is not None:
                orders.append(engine._steady.decode_plan.segment_lora_ids)
        assert ("A", "B") in orders and ("B", "A") in orders
        assert orders.index(("A", "B")) < orders.index(("B", "A"))
        # Nothing regroups entry by entry: the first prefill finds the
        # armed batch empty, and every later plan, pending work or not,
        # lays the armed groups; a1 leaving edits them.
        assert regroupings == [[True]]

    def test_mixed_step_on_armed_batch_moves_matching_group_first(self, monkeypatch):
        engine = make_engine()
        for rid, lora in (("x", "X"), ("y", "Y")):
            engine.add_request(make_request(rid, lora=lora, response=20), 0.0)
        run = [engine.step(t) for t in (0.0, 0.01, 0.02, 0.03)]
        assert all(r is not None for r in run[-2:])
        assert engine._steady.decode_plan.segment_lora_ids == ("X", "Y")
        engine.add_request(make_request("y2", lora="Y", response=20), 0.04)
        seen = watch_plans(engine)
        regroupings = watch_regroupings(monkeypatch)
        r = engine.step(0.04)
        assert r.num_prefill == 1 and seen == [(1, 2)]
        # The prefill tail and the Y decode group share one segment.
        assert r.num_lora_segments == 2
        assert regroupings == []
        assert_armed_is_fresh(engine)

    def test_late_load_and_import_join_mid_order(self):
        # "slow" waits on its adapter load while the later "fast"
        # prefills, so slow lands ahead of fast in slot order; "moved"
        # (imported KV) waits on its own load while "last" prefills, and
        # lands ahead of it. Each join re-sorts the groups.
        engine = make_engine()
        engine.loader.request_load("A", engine._default_lora_bytes, 0.0)
        now = engine.loader.ready_time("A")
        engine.add_request(make_request("slow", lora="S", response=20), now)
        engine.add_request(make_request("fast", lora="A", response=20), now)
        now = self._step_until(engine, now, 2)
        assert tuple(engine._steady.groups) == ("S", "A")
        moved = make_request("moved", lora="M", response=20)
        moved.generated_tokens = [7, 7]
        engine.import_request(moved, 18, None, now)
        engine.add_request(make_request("last", lora="A", response=20), now)
        self._step_until(engine, now, 4)
        assert engine._steady.ids == ["slow", "fast", "moved", "last"]
        assert tuple(engine._steady.groups) == ("S", "A", "M")

    def test_step_short_of_headroom_after_a_commit_writes_back_first(self):
        """A bulk commit that leaves less than a page per request makes
        the next scalar step reserve slot by slot: it must write the
        commit back before it reads the requests' KV lengths and the
        allocator's, and so equal the reference path stepped alike."""
        kv = 11 * 16 * LLAMA2_7B.kv_bytes_per_token()
        engine = make_engine(max_batch=4, kv_capacity=kv)
        ref = make_engine(max_batch=4, kv_capacity=kv, fast_path=False)
        pairs = [
            tuple(make_request(f"r{i}", lora="A", prompt=14, response=30) for _ in "ab")
            for i in range(4)
        ]
        for e, twin in ((engine, 0), (ref, 1)):
            e.loader.request_load("A", e._default_lora_bytes, 0.0)
            for pair in pairs:
                e.add_request(pair[twin], e.loader.ready_time("A"))
        now = engine.loader.ready_time("A")
        for _ in range(6):
            now, twin_end = engine.step(now).end, ref.step(now).end
            assert now == twin_end
        ends, _, _ = engine.steady_run_stage(now)
        engine.commit_steady_run(len(ends) - 1)
        for start, end in zip(ends[:-1], ends[1:]):
            assert ref.step(float(start)).end == end
        assert engine.backend.kv_headroom_pages() < len(engine._steady.ids)
        engine.step(float(ends[-1]))
        ref.step(float(ends[-1]))
        assert_matches_reference(engine, ref, {p[0].request_id: p for p in pairs})

    @staticmethod
    def _step_until(engine, now, working):
        while len(engine._working_order) < working:
            r = engine.step(now)
            now = r.end if r is not None else now + 1e-3
            assert_armed_is_fresh(engine)
        return now

    _ADMIT = st.tuples(
        st.just("admit"),
        st.sampled_from(["A", "B", "C"]),
        st.integers(1, 24),
        st.integers(1, 2),
    )
    _LORA = st.sampled_from(["A", "B", "C", "new"])
    _READERS = (
        None, "read", "cancel", "export", "trace", "step", "import", "end",
    )

    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(
            # Admits weigh three to one, so batches grow between cancels
            # and a group's first member often leaves before the rest.
            st.one_of(
                _ADMIT, _ADMIT, _ADMIT,
                st.tuples(st.just("step"), st.integers(1, 4)),
                # A bulk run of random length, then one reader of what it
                # left behind: the request list, a cancel, an export, the
                # trace lane of the staged run's next steps, a scalar
                # step, an import joining at the next step, or the
                # write-back the decode lane makes as the loop returns.
                st.tuples(
                    st.just("run"), st.integers(1, 40), st.sampled_from(_READERS),
                    st.integers(0, 50),
                ),
                st.tuples(
                    st.just("run"), st.integers(1, 4), st.sampled_from(_READERS),
                    st.integers(0, 50),
                ),
                st.tuples(st.just("cancel"), st.integers(0, 50)),
                # An admit on an adapter not yet loaded, then one on a
                # resident adapter: the second prefills first, and the
                # first lands mid-order when its load completes.
                st.tuples(
                    st.just("late"), st.sampled_from(["A", "B", "C"]),
                    st.integers(1, 24), st.integers(1, 3),
                ),
                # A request arriving with its KV history: it joins when
                # its adapter is resident, mid-order if a later admit
                # prefilled first.
                st.tuples(
                    st.just("import"), _LORA, st.integers(2, 24),
                    st.integers(1, 2),
                ),
                # Several admits on one adapter not yet loaded: the steps
                # that follow decode with them pending, then prefill them
                # up to the limit per step, leaving the rest pending.
                st.tuples(
                    st.just("loading"), st.integers(2, 4), st.integers(1, 24),
                    st.integers(1, 4),
                ),
            ),
            min_size=5,
            max_size=40,
        ),
        # A pool of 12 or 20 pages leaves steps short of a page per request
        # (they reserve slot by slot, and may evict) right after commits.
        kv_pages=st.sampled_from([None, 12, 20]),
        prefill_limit=st.sampled_from([1, 1, 2, 3]),
    )
    @example(ops=[
        ("admit", "A", 5, 1), ("admit", "B", 12, 1), ("admit", "A", 12, 1),
        ("step", 4),
    ], kv_pages=None, prefill_limit=1)
    @example(ops=[
        ("admit", "A", 9, 1), ("loading", 3, 6, 4), ("admit", "B", 5, 1),
        ("import", "A", 8, 2), ("loading", 2, 4, 2), ("step", 6),
    ], kv_pages=None, prefill_limit=2)
    def test_edited_armed_batch_equals_a_fresh_arm(self, ops, kv_pages, prefill_limit):
        """Random admits (repeated LoRAs, each followed by a few steps),
        admits that land mid-order after a late adapter load, several
        admits pending on one loading adapter, imports, scalar steps
        (with requests pending or not, prefilling one or several), bulk
        runs of random length, through their finishing step or not, each
        followed by a reader, and cancels: after each, the armed batch
        equals arming from scratch, every executed plan equals
        ``plan_batch`` over the step's prefills and decodes, and every
        request's ``kv_len`` and tokens and the allocator's lengths and
        pages equal those of a reference-path engine stepped one step at
        a time — except that after a bulk commit the armed requests' own
        records may lag until a reader writes them back."""
        kv = None if kv_pages is None else kv_pages * 16 * LLAMA2_7B.kv_bytes_per_token()
        engine = make_engine(
            max_batch=8, kv_capacity=kv, prefill_batch_limit=prefill_limit
        )
        ref = make_engine(
            max_batch=8, kv_capacity=kv, fast_path=False,
            prefill_batch_limit=prefill_limit,
        )
        watch_plans(engine)
        # Resident adapters: an admit can prefill at the very next step,
        # so it joins an armed batch.
        for e in (engine, ref):
            for lora in "ABC":
                e.loader.request_load(lora, e._default_lora_bytes, 0.0)
        now = max(engine.loader.ready_time(lora) for lora in "ABC")
        seen = {}

        def admit(lora, response, kv_from=0):
            rid = f"r{len(seen)}"
            pair = tuple(make_request(rid, lora=lora, response=response) for _ in "ab")
            for req in pair:
                req.generated_tokens = [7] * kv_from
            kv_tokens = pair[0].effective_prompt_len if kv_from else None
            if engine.can_accept(pair[0], kv_tokens):
                seen[rid] = pair
                for e, req in zip((engine, ref), pair):
                    if kv_from:
                        e.import_request(req, kv_tokens, None, now)
                    else:
                        e.add_request(req, now)

        def step(now):
            r = engine.step(now)
            twin = ref.step(now)
            assert (r is None) == (twin is None)
            if r is None:
                return now + 1e-3
            assert (r.end, r.new_tokens, r.finished, r.evicted) == (
                twin.end, twin.new_tokens, twin.finished, twin.evicted
            )
            return r.end

        def check(lagging=()):
            assert_armed_is_fresh(engine)
            assert_matches_reference(engine, ref, seen, lagging)

        def read(reader, pick, now):
            """Run one reader; it must leave nothing lagging, except the
            trace lane, which reads the armed batch's token offsets instead
            of writing the lag back."""
            slots = engine._working_order  # picked without a reader
            rid = slots[pick % len(slots)].request.request_id if slots else None
            if reader == "read":
                assert [r.request_id for r in engine.all_requests()] == [
                    r.request_id for r in ref.all_requests()
                ]
            elif reader == "cancel" and rid is not None:
                engine.cancel(rid)
                ref.cancel(rid)
            elif reader == "export" and rid is not None:
                assert engine.export_request(rid, now)[1] == (
                    ref.export_request(rid, now)[1]
                )
            elif reader == "trace":
                # A trace lane's token index for the next step is the
                # offset plus the step count: the reference engine's count.
                armed = engine._steady
                assert len(armed.tok0) == len(armed.ids)
                assert [t + armed.steps for t in armed.tok0] == [
                    len(seen[r][1].generated_tokens) for r in armed.ids
                ]
                check(set(armed.ids))
                return now
            elif reader == "step":
                now = step(now)
            elif reader == "import":
                admit(("A", "B", "C")[pick % 3], 4 + pick % 8, 2)
                now = step(now)
            elif reader == "end":
                engine.write_back()
            check()
            return now

        for op in ops:
            kind = op[0]
            steps = (
                op[-1] if kind in ("admit", "step", "late", "import", "loading")
                else 0
            )
            if kind == "admit":
                admit(op[1], op[2])
            elif kind == "loading":
                lora = f"L{len(seen)}"
                for _ in range(op[1]):
                    admit(lora, op[2])
            elif kind == "late":
                admit(f"L{len(seen)}", op[2])
                admit(op[1], op[2])
            elif kind == "import":
                admit(f"L{len(seen)}" if op[1] == "new" else op[1], op[2], op[2] // 2)
            elif kind == "run":
                staged = engine.steady_run_stage(now)
                if staged is not None:
                    ends, _, _ = staged
                    k = min(op[1], len(ends) - 1)
                    engine.commit_steady_run(k)
                    for j in range(k):
                        assert ref.step(float(ends[j])).end == ends[j + 1]
                    now = float(ends[k])
            elif kind == "cancel":
                read("cancel", op[1], now)
            # Not a reader: the armed requests may lag.
            check(set(engine._steady.ids))
            if kind == "run" and op[2] is not None:
                now = read(op[2], op[3], now)
            for _ in range(steps):
                now = step(now)
                check()
        while not (engine.is_idle and ref.is_idle):
            now = step(now)
        assert_matches_reference(engine, ref, seen)
