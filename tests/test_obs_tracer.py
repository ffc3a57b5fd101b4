"""Unit tests for the tracer: typed events, canonical JSONL round-trips."""

from __future__ import annotations

import pytest

from repro.obs.tracer import EventKind, TERMINAL_KINDS, TraceEvent, Tracer


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.emit(0.0, EventKind.SUBMIT, request_id="req-0", lora="lora-1",
                prompt=32, response=8)
    tracer.emit(0.001, EventKind.PLACE, request_id="req-0", gpu_id="gpu00",
                lora="lora-1")
    tracer.emit(0.004, EventKind.ADAPTER_LOAD, gpu_id="gpu00", lora="lora-1",
                tier="host", ready_in=0.003, nbytes=1 << 20)
    tracer.emit(0.02, EventKind.PREFILL, request_id="req-0", gpu_id="gpu00",
                start=0.004, tokens=32)
    tracer.emit(0.05, EventKind.DECODE_STEP, request_id="req-0",
                gpu_id="gpu00", start=0.02, token_index=0)
    tracer.emit(0.08, EventKind.FINISH, request_id="req-0", gpu_id="gpu00",
                tokens=8)
    return tracer


def test_emit_assigns_monotonic_seq():
    tracer = _sample_tracer()
    assert [e.seq for e in tracer.events] == list(range(6))


def test_events_are_immutable():
    event = _sample_tracer().events[0]
    with pytest.raises(AttributeError):
        event.time = 99.0


def test_jsonl_round_trip_is_lossless():
    tracer = _sample_tracer()
    text = tracer.dumps_jsonl()
    assert text.endswith("\n")
    loaded = Tracer.loads_jsonl(text)
    assert loaded.events == tracer.events
    assert loaded.dumps_jsonl() == text


def test_jsonl_is_canonical_bytes():
    """Serialization is key-sorted, separator-stable and repr-exact —
    the property the byte-for-byte golden comparison relies on."""
    tracer = Tracer()
    tracer.emit(0.1 + 0.2, EventKind.SUBMIT, request_id="r", z=1, a=2)
    line = tracer.dumps_jsonl().rstrip("\n")
    assert line == (
        '{"attrs":{"a":2,"z":1},"kind":"SUBMIT","req":"r",'
        '"seq":0,"t":0.30000000000000004}'
    )


def test_file_round_trip(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "trace.jsonl"
    tracer.dump_jsonl(path)
    assert Tracer.load_jsonl(path).events == tracer.events


def test_none_fields_are_omitted():
    tracer = Tracer()
    tracer.emit(1.0, EventKind.FAULT, gpu_id="gpu01", fault="gpu_crash")
    obj = tracer.events[0].to_json_obj()
    assert "req" not in obj
    assert obj["gpu"] == "gpu01"
    restored = TraceEvent.from_json_obj(obj)
    assert restored.request_id is None
    assert restored == tracer.events[0]


def test_query_helpers():
    tracer = _sample_tracer()
    tracer.emit(0.09, EventKind.SUBMIT, request_id="req-1")
    assert tracer.request_ids() == ["req-0", "req-1"]
    assert [e.kind for e in tracer.for_request("req-0")][0] is EventKind.SUBMIT
    assert len(tracer.by_kind(EventKind.SUBMIT)) == 2
    assert TERMINAL_KINDS == (EventKind.FINISH, EventKind.SHED, EventKind.CANCEL)


def test_sorted_events_orders_by_time_then_seq():
    tracer = Tracer()
    tracer.emit(2.0, EventKind.SUBMIT, request_id="b")
    tracer.emit(1.0, EventKind.SUBMIT, request_id="a")
    tracer.emit(1.0, EventKind.PLACE, request_id="a", gpu_id="g")
    ordered = tracer.sorted_events()
    assert [(e.time, e.seq) for e in ordered] == [(1.0, 1), (1.0, 2), (2.0, 0)]


def test_unknown_kind_rejected_on_load():
    with pytest.raises((KeyError, ValueError)):
        Tracer.loads_jsonl('{"kind":"NOT_A_KIND","seq":0,"t":0.0}\n')


# ---------------------------------------------------------------------------
# Run blocks: bulk-committed decode runs recorded as one log entry
# ---------------------------------------------------------------------------
def _decode(seq, time, start, token_index, gpu, req):
    return TraceEvent(
        seq, time, EventKind.DECODE_STEP, req, gpu,
        {"start": start, "token_index": token_index},
    )


def _emit_all(events) -> Tracer:
    """A tracer filled one ``emit`` per event — the per-step oracle."""
    tracer = Tracer()
    for e in events:
        tracer.emit(e.time, e.kind, e.request_id, e.gpu_id, **e.attrs)
    return tracer


def test_single_engine_run_expands_step_by_step_slot_by_slot():
    tracer = Tracer()
    tracer.decode_run(
        [("gpu00", ["a", "b"], [1, 5], 2, [1.0, 1.5, 2.25, 3.0])]
    )
    assert list(tracer.events) == [
        _decode(0, 1.5, 1.0, 3, "gpu00", "a"),
        _decode(1, 1.5, 1.0, 7, "gpu00", "b"),
        _decode(2, 2.25, 1.5, 4, "gpu00", "a"),
        _decode(3, 2.25, 1.5, 8, "gpu00", "b"),
        _decode(4, 3.0, 2.25, 5, "gpu00", "a"),
        _decode(5, 3.0, 2.25, 9, "gpu00", "b"),
    ]


def _three_engine_merge(tracer: Tracer) -> "list[TraceEvent]":
    """Record an interleaved three-engine merge; return the hand-written
    events it stands for, numbered from the tracer's current seq."""
    s = len(tracer)
    tracer.decode_run(
        [
            ("gpu00", ["a", "b"], [0, 4], 0, [0.0, 1.0, 2.0]),
            ("gpu01", ["c"], [-3], 12, [0.5, 1.25, 2.5, 3.0]),
            ("gpu02", ["d", "e", "f"], (-6, -6, -5), 7, [0.75, 1.75]),
        ],
        # Pop order: gpu00@0.0, gpu01@0.5, gpu02@0.75, gpu00@1.0,
        # gpu01@1.25, gpu01@2.5.
        [0, 1, 2, 0, 1, 1],
    )
    return [
        _decode(s + 0, 1.0, 0.0, 0, "gpu00", "a"),
        _decode(s + 1, 1.0, 0.0, 4, "gpu00", "b"),
        _decode(s + 2, 1.25, 0.5, 9, "gpu01", "c"),
        _decode(s + 3, 1.75, 0.75, 1, "gpu02", "d"),
        _decode(s + 4, 1.75, 0.75, 1, "gpu02", "e"),
        _decode(s + 5, 1.75, 0.75, 2, "gpu02", "f"),
        _decode(s + 6, 2.0, 1.0, 1, "gpu00", "a"),
        _decode(s + 7, 2.0, 1.0, 5, "gpu00", "b"),
        _decode(s + 8, 2.5, 1.25, 10, "gpu01", "c"),
        _decode(s + 9, 3.0, 2.5, 11, "gpu01", "c"),
    ]


def test_three_engine_merge_expands_in_pop_order():
    tracer = Tracer()
    expected = _three_engine_merge(tracer)
    assert list(tracer.events) == expected
    assert [e.seq for e in tracer.events] == list(range(10))


def test_scalar_emits_around_a_block_keep_global_seq_order():
    tracer = Tracer()
    before = tracer.emit(0.0, EventKind.SUBMIT, request_id="a")
    expected = _three_engine_merge(tracer)
    after = tracer.emit(3.5, EventKind.FINISH, "c", "gpu01", tokens=12)
    assert before.seq == 0 and after.seq == 11
    assert list(tracer.events) == [before, *expected, after]
    # Reads are incremental: later emits and blocks extend the same view.
    late = tracer.emit(4.0, EventKind.SUBMIT, request_id="z")
    tracer.decode_run([("gpu03", ["z"], [0], 0, [4.0, 4.5])])
    assert list(tracer.events)[12:] == [
        late, _decode(13, 4.5, 4.0, 0, "gpu03", "z"),
    ]
    assert [e.seq for e in tracer.events] == list(range(14))


def test_len_is_constant_time_and_leaves_blocks_compact():
    tracer = Tracer()
    tracer.emit(0.0, EventKind.SUBMIT, request_id="a")
    _three_engine_merge(tracer)
    assert len(tracer) == len(tracer.events) == 11
    assert len(tracer._log) == 2, "len() must not expand the run block"
    assert len(list(tracer.events)) == 11
    assert len(tracer) == len(tracer.events) == 11
    assert tracer.events[-1].seq == 10
    assert not hasattr(tracer.events, "append")


def test_queries_agree_with_per_event_emission():
    tracer = Tracer()
    tracer.emit(0.0, EventKind.SUBMIT, request_id="c", lora="l", prompt=4,
                response=12)
    _three_engine_merge(tracer)
    tracer.emit(0.9, EventKind.ADAPTER_LOAD, gpu_id="gpu02", lora="l")
    tracer.emit(3.0, EventKind.FINISH, "c", "gpu01", tokens=12)
    oracle = _emit_all(tracer.events)
    assert len(oracle._log) == len(oracle) == len(tracer)
    assert oracle.events == tracer.events
    assert tracer.request_ids() == oracle.request_ids() == list("abcdef")
    for rid in "abcdef":
        assert tracer.for_request(rid) == oracle.for_request(rid)
    for kind in EventKind:
        assert tracer.by_kind(kind) == oracle.by_kind(kind)
    assert len(tracer.by_kind(EventKind.DECODE_STEP)) == 10
    assert tracer.sorted_events() == oracle.sorted_events()
    assert tracer.dumps_jsonl() == oracle.dumps_jsonl()


def test_queries_expand_a_fresh_block_on_their_own():
    """Every read entry point pays the expansion itself — none relies on
    ``events`` having been touched first."""
    for read in (
        lambda t: t.for_request("c"),
        lambda t: t.by_kind(EventKind.DECODE_STEP),
        lambda t: t.sorted_events(),
        lambda t: t.request_ids(),
        lambda t: t.dumps_jsonl(),
    ):
        tracer = Tracer()
        expected = _three_engine_merge(tracer)
        assert read(tracer)
        assert tracer._log == expected


def test_block_jsonl_round_trip_is_a_fixed_point():
    tracer = Tracer()
    tracer.emit(0.0, EventKind.SUBMIT, request_id="a")
    _three_engine_merge(tracer)
    text = tracer.dumps_jsonl()
    loaded = Tracer.loads_jsonl(text)
    assert loaded.dumps_jsonl() == text
    assert len(loaded) == len(tracer) == 11
    assert Tracer.loads_jsonl(loaded.dumps_jsonl()).events == loaded.events


def test_loaded_partial_trace_counts_its_events():
    tracer = _sample_tracer()
    tail = "".join(tracer.dumps_jsonl().splitlines(keepends=True)[3:])
    loaded = Tracer.loads_jsonl(tail)
    assert len(loaded) == len(loaded.events) == len(list(loaded.events)) == 3
    assert loaded.emit(1.0, EventKind.SUBMIT, request_id="n").seq == 6
    assert len(loaded) == 4


@pytest.mark.parametrize(
    "lanes, order",
    [
        ([], []),                                              # no lane
        ([("g", ["a"], [0], 0, [1.0])], None),                 # zero steps
        ([("g", [], [], 0, [1.0, 2.0])], None),                # empty batch
        ([("g", ["a"], [0], 0, [1.0, 2.0]),
          ("h", ["b"], [0], 0, [1.0, 2.0])], [0]),             # lane never pops
        ([("g", ["a"], [0, 1], 0, [1.0, 2.0])], None),         # ragged offsets
        ([("g", ["a"], [0], 0, [1.0, 2.0, 3.0])], [0]),        # unused boundary
        ([("g", ["a"], [0], 0, [1.0, 2.0]),
          ("h", ["b"], [0], 0, [1.0, 2.0])], None),            # order missing
        ([("g", ["a"], [0], 0, [1.0, 2.0, 3.0]),
          ("h", ["b"], [0], 0, [1.0, 2.0])], [0, 1, 1]),       # pop counts swapped
        ([("g", ["a"], [0], 0, [1.0, 2.0])], [0, 1]),          # pop of no lane
    ],
)
def test_degenerate_blocks_are_rejected_without_a_seq_gap(lanes, order):
    tracer = Tracer()
    tracer.emit(0.0, EventKind.SUBMIT, request_id="a")
    with pytest.raises(ValueError):
        tracer.decode_run(lanes, order)
    assert len(tracer) == 1 and len(tracer._log) == 1
    assert tracer.emit(0.1, EventKind.SUBMIT, request_id="b").seq == 1
