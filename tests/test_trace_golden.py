"""Golden-trace harness: the seeded scenarios replay byte-for-byte.

Each scenario in :mod:`repro.obs.scenarios` is run at seed 0 and its
canonical JSONL trace compared — as *bytes* — against a checked-in fixture
under ``tests/golden/``. Any behavioural change to the engine, scheduler,
fault injector or adapter store shows up here as a readable unified diff.

When a change is intentional, regenerate the fixtures::

    REPRO_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py

then review the fixture diff like any other code change
(docs/observability.md covers the workflow).
"""

from __future__ import annotations

import difflib
import os
import pathlib

import pytest

from repro.obs import compute_breakdowns, run_scenario
from repro.obs.tracer import EventKind, TERMINAL_KINDS
from repro.runtime.latency import breakdown_of
from repro.runtime.request import RequestState

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SCENARIO_NAMES = (
    "single_gpu", "cluster_migration", "faults", "disagg", "serve", "spec",
    "slo", "composed", "steady_dense",
)
REGOLD = os.environ.get("REPRO_REGOLD", "") not in ("", "0")

# Every scenario must exercise the event kinds it was tuned to cover —
# otherwise a tuning regression could silently hollow out the fixture.
REQUIRED_KINDS = {
    "single_gpu": {
        EventKind.SUBMIT, EventKind.PLACE, EventKind.PREFILL,
        EventKind.DECODE_STEP, EventKind.FINISH,
    },
    "cluster_migration": {
        EventKind.SUBMIT, EventKind.QUEUE, EventKind.PLACE,
        EventKind.ADAPTER_LOAD, EventKind.PREFILL, EventKind.DECODE_STEP,
        EventKind.MIGRATE, EventKind.FINISH,
    },
    "faults": {
        EventKind.SUBMIT, EventKind.QUEUE, EventKind.PLACE,
        EventKind.ADAPTER_LOAD, EventKind.PREFILL, EventKind.DECODE_STEP,
        EventKind.MIGRATE, EventKind.FAULT, EventKind.FINISH,
    },
    "disagg": {
        EventKind.SUBMIT, EventKind.PLACE, EventKind.PREFILL,
        EventKind.KV_TRANSFER_START, EventKind.KV_TRANSFER_DONE,
        EventKind.DECODE_STEP, EventKind.FINISH,
    },
    "serve": {
        EventKind.CONNECT, EventKind.DISCONNECT, EventKind.SHED,
        EventKind.SUBMIT, EventKind.PLACE, EventKind.PREFILL,
        EventKind.DECODE_STEP, EventKind.CANCEL, EventKind.FINISH,
    },
    "spec": {
        EventKind.SUBMIT, EventKind.PLACE, EventKind.PREFILL,
        EventKind.SPEC_DRAFT, EventKind.SPEC_VERIFY, EventKind.SPEC_ROLLBACK,
        EventKind.DECODE_STEP, EventKind.FINISH,
    },
    "slo": {
        EventKind.SUBMIT, EventKind.QUEUE, EventKind.PLACE,
        EventKind.SLO_ADMIT, EventKind.SLO_SHED, EventKind.SHED,
        EventKind.SCALE_UP, EventKind.SCALE_DOWN,
        EventKind.PREFILL, EventKind.DECODE_STEP, EventKind.FINISH,
    },
    "composed": {
        EventKind.SUBMIT, EventKind.QUEUE, EventKind.PLACE,
        EventKind.SLO_ADMIT, EventKind.SCALE_UP, EventKind.SCALE_DOWN,
        EventKind.KV_TRANSFER_START, EventKind.KV_TRANSFER_DONE,
        EventKind.FAULT, EventKind.PREFILL, EventKind.DECODE_STEP,
        EventKind.FINISH,
    },
    "steady_dense": {
        EventKind.SUBMIT, EventKind.PLACE, EventKind.ADAPTER_LOAD,
        EventKind.PREFILL, EventKind.DECODE_STEP, EventKind.FINISH,
    },
}


def _golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.jsonl"


def _diff(expected: str, actual: str, name: str) -> str:
    lines = difflib.unified_diff(
        expected.splitlines(keepends=True),
        actual.splitlines(keepends=True),
        fromfile=f"golden/{name}.jsonl",
        tofile=f"actual/{name}.jsonl",
        n=2,
    )
    return "".join(lines)


@pytest.fixture(scope="module")
def scenario_results():
    return {name: run_scenario(name, seed=0) for name in SCENARIO_NAMES}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_trace_matches_golden(scenario_results, name):
    actual = scenario_results[name].tracer.dumps_jsonl()
    path = _golden_path(name)
    if REGOLD:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual)
        pytest.skip(f"regolded {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"REPRO_REGOLD=1 python -m pytest {__file__}"
    )
    expected = path.read_text()
    if actual != expected:
        raise AssertionError(
            f"{name} trace diverged from its golden fixture "
            f"(REPRO_REGOLD=1 to accept):\n{_diff(expected, actual, name)}"
        )


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_trace_is_deterministic(scenario_results, name):
    """Two fresh runs of the same seed produce byte-identical JSONL."""
    again = run_scenario(name, seed=0)
    assert scenario_results[name].tracer.dumps_jsonl() == again.tracer.dumps_jsonl()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_covers_required_kinds(scenario_results, name):
    seen = {e.kind for e in scenario_results[name].tracer.events}
    missing = REQUIRED_KINDS[name] - seen
    assert not missing, f"{name} no longer emits {sorted(k.value for k in missing)}"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_breakdown_components_sum_to_total(scenario_results, name):
    """The acceptance invariant: phase components tile [submit, terminal]
    exactly, for every request in every golden scenario, and that span
    is the one the request's own stamps give."""
    result = scenario_results[name]
    breakdowns = compute_breakdowns(result.tracer)
    assert breakdowns, f"{name} produced no per-request breakdowns"
    for rid, bd in breakdowns.items():
        assert bd.components_sum() == pytest.approx(bd.total, abs=1e-9), (
            f"{name}/{rid}: components {bd.phases} sum to "
            f"{bd.components_sum()}, end-to-end is {bd.total}"
        )
        assert bd.terminal in ("FINISH", "SHED", "CANCEL"), (
            f"{name}/{rid} never reached a terminal event"
        )
    # Value parity with the stamps: the trace tiles the same end-to-end
    # span that repro.runtime.latency reads off the request. A handoff
    # request's decode-admission wait is trace queue by design, so queue
    # parity holds for requests that never left their first GPU.
    handoffs = {
        e.request_id for e in result.tracer.events
        if e.kind is EventKind.KV_TRANSFER_START
    }
    finished = [
        r for r in result.requests if r.state is RequestState.FINISHED
    ]
    assert finished, f"{name} finished no requests"
    for r in finished:
        bd, stamps = breakdowns[r.request_id], breakdown_of(r)
        assert bd.submit_time == r.spec.arrival_time, (name, r.request_id)
        assert bd.total == stamps.total, (name, r.request_id)
        if r.num_migrations or r.num_retries or r.request_id in handoffs:
            continue
        assert bd.queue == stamps.queue_wait, (
            f"{name}/{r.request_id}: trace queue {bd.queue}, "
            f"stamp queue wait {stamps.queue_wait}"
        )


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_request_terminates_once(scenario_results, name):
    result = scenario_results[name]
    terminals: "dict[str, int]" = {}
    for event in result.tracer.events:
        if event.kind in TERMINAL_KINDS and event.request_id is not None:
            terminals[event.request_id] = terminals.get(event.request_id, 0) + 1
    submitted = {
        e.request_id for e in result.tracer.events
        if e.kind is EventKind.SUBMIT
    }
    assert set(terminals) == submitted
    dupes = {rid: n for rid, n in terminals.items() if n != 1}
    assert not dupes, f"{name}: requests with != 1 terminal event: {dupes}"
