"""Oracle: a scalar step's trace run block expands to per-event emission.

``GpuEngine._trace_step`` records a step's decode batch as a one-step
:meth:`~repro.obs.tracer.Tracer.decode_run` block on every path, and the
tracer expands it when the trace is read. The emitter it replaced — one
``DECODE_STEP`` per request, emitted as the step commits — lives on here
as the oracle: the reference path (no merge lane, so every decode event
comes from ``_trace_step``) is run once with it patched in and once as
shipped, and the two JSONL dumps must be the same bytes, and the checked-in
golden's.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.obs import run_scenario
from repro.obs.tracer import EventKind, Tracer, decode_step_attrs
from repro.runtime.engine import GpuEngine

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def per_event_trace_step(
    self, now, end, prefill_slots, decode_slots, finished_slots, spec_round=None,
    lane=None,
):
    """The per-event emitter: PREFILL, then one DECODE_STEP per decode
    request, then FINISH — every event emitted on its own (from the slots;
    a lane read off the armed batch is ignored)."""
    assert spec_round is None, "the oracle covers classic steps only"
    emit = self.tracer.emit
    for slot in prefill_slots:
        req = slot.request
        emit(
            end, EventKind.PREFILL, req.request_id, self.gpu_id,
            start=now,
            tokens=req.spec.prompt_len + max(0, req.num_generated - 1),
        )
    for slot in decode_slots:
        req = slot.request
        emit(
            end, EventKind.DECODE_STEP, req.request_id, self.gpu_id,
            **decode_step_attrs(now, len(req.generated_tokens) - 1),
        )
    for slot in finished_slots:
        req = slot.request
        emit(
            end, EventKind.FINISH, req.request_id, self.gpu_id,
            tokens=req.num_generated,
        )


def _no_blocks(self, lanes, order=None):
    raise AssertionError("the per-event oracle run recorded a run block")


def _first_difference(expected: str, actual: str) -> "str | None":
    """The first differing line, or ``None`` when the dumps are equal —
    cheap where pytest's own diff of two multi-megabyte strings is not."""
    if expected == actual:
        return None
    want, got = expected.splitlines(), actual.splitlines()
    for i, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return f"line {i + 1}:\n  expected {a}\n  actual   {b}"
    return f"line counts differ: expected {len(want)}, actual {len(got)}"


@pytest.mark.parametrize("name", ["steady_dense", "serve"])
def test_one_step_run_blocks_equal_per_event_emission(name, monkeypatch):
    shipped = run_scenario(name, seed=0, fast_path=False).tracer.dumps_jsonl()
    with monkeypatch.context() as patch:
        patch.setattr(GpuEngine, "_trace_step", per_event_trace_step)
        patch.setattr(Tracer, "decode_run", _no_blocks)
        oracle = run_scenario(name, seed=0, fast_path=False).tracer.dumps_jsonl()
    assert '"kind":"DECODE_STEP"' in oracle
    mismatch = _first_difference(oracle, shipped)
    assert mismatch is None, f"run blocks != per-event emission at {mismatch}"
    golden = (GOLDEN_DIR / f"{name}.jsonl").read_text()
    mismatch = _first_difference(golden, oracle)
    assert mismatch is None, f"per-event emission != golden at {mismatch}"
