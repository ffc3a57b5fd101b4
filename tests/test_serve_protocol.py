"""Wire-format tests for the client<->server protocol (repro.serve.protocol)."""

import json
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import (
    AcceptedFrame,
    CancelOp,
    EndFrame,
    ErrorFrame,
    GenerateOp,
    TokenFrame,
    decode_frame,
    encode_frame,
    encode_tokens,
)


FRAMES = [
    GenerateOp(request_id="r1", tenant="t", lora_id="m", prompt_len=8,
               response_len=4),
    GenerateOp(request_id="r2", lora_id="m", prompt_len=2, response_len=2,
               prompt_tokens=(1, 2)),
    CancelOp(request_id="r1"),
    AcceptedFrame(request_id="r1"),
    TokenFrame(request_id="r1", token=17, index=3, time=1.5),
    EndFrame(request_id="r1", status="cancelled", num_tokens=3),
    ErrorFrame(request_id="r1", code=429, reason="rate_limited"),
]


def reference_encode(frame) -> bytes:
    """The encoder oracle: ``asdict`` + ``json.dumps(sort_keys=True)``, the
    body ``encode_frame`` had before it stopped copying every field. The
    wire bytes are whatever this says they are."""
    obj = {k: v for k, v in asdict(frame).items() if v is not None}
    if "prompt_tokens" in obj:
        obj["prompt_tokens"] = list(obj["prompt_tokens"])
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


@pytest.mark.parametrize("frame", FRAMES, ids=lambda f: type(f).__name__)
def test_round_trip(frame):
    encoded = encode_frame(frame)
    assert encoded.endswith(b"\n") and encoded.count(b"\n") == 1
    assert decode_frame(encoded) == frame
    assert decode_frame(encoded.decode()) == frame  # str path too


def test_encoding_is_canonical():
    """Sorted keys, compact separators — session logs diff cleanly."""
    line = encode_frame(TokenFrame(request_id="r", token=1, index=0, time=0.5))
    obj = json.loads(line)
    assert list(obj) == sorted(obj)
    assert b" " not in line.strip()


def test_none_fields_are_dropped():
    op = GenerateOp(request_id="r", lora_id="m", prompt_len=4, response_len=2)
    assert "prompt_tokens" not in json.loads(encode_frame(op))


def test_prompt_tokens_decode_as_tuple():
    op = decode_frame(
        b'{"lora_id":"m","op":"generate","prompt_len":2,"prompt_tokens":[5,7],'
        b'"request_id":"r","response_len":3,"tenant":""}'
    )
    assert op.prompt_tokens == (5, 7)


def test_effective_tenant_defaults_to_lora():
    op = GenerateOp(request_id="r", lora_id="m", prompt_len=1, response_len=1)
    assert op.effective_tenant == "m"
    named = GenerateOp(request_id="r", tenant="t", lora_id="m",
                       prompt_len=1, response_len=1)
    assert named.effective_tenant == "t"


@pytest.mark.parametrize("line", [
    b"not json\n",
    b'["a","list"]\n',
    b'{"op":"selfdestruct"}\n',
    b'{"event":"nope"}\n',
    b'{"op":"generate","lora_id":"m","prompt_len":0,"response_len":1}\n',
    b'{"op":"generate","prompt_len":1,"response_len":1}\n',  # missing lora
    b'{"op":"cancel"}\n',  # missing request_id
    b'{"op":"generate","lora_id":"m","prompt_len":1,"response_len":1,'
    b'"surprise":true}\n',  # unknown field
    b'{"op":"generate","lora_id":"m","prompt_len":39,"response_len":1,'
    b'"prompt_tokens":[1,2]}\n',  # prompt_len disagrees with the ids
    b'{"op":"generate","lora_id":"m","prompt_len":2,"response_len":1,'
    b'"prompt_tokens":[1,-2]}\n',  # negative id
    b'{"op":"generate","lora_id":"m","prompt_len":1,"response_len":1,'
    b'"prompt_tokens":[null]}\n',  # not an id
    b'{"op":"generate","lora_id":"m","prompt_len":2.5,"response_len":1}\n',
    b'{"op":"generate","lora_id":"m","prompt_len":true,"response_len":1}\n',
    b'{"op":"generate","lora_id":"m","prompt_len":1,"response_len":1,'
    b'"tenant":["x"]}\n',
    b'{"op":"generate","lora_id":["a"],"prompt_len":1,"response_len":1}\n',
    b'{"op":"cancel","request_id":["x"]}\n',
    b'{"op":["cancel"],"request_id":"x"}\n',
    b'{"op":"generate","lora_id":"m","prompt_len":1,"response_len":1,'
    b'"request_id":7}\n',
    b'{"op":"generate","lora_id":"m","prompt_len":2,"response_len":1,'
    b'"prompt_tokens":["3","4"]}\n',  # ids as strings
    b'{"op":"generate","lora_id":"m","prompt_len":2,"response_len":1,'
    b'"prompt_tokens":[1.5,2]}\n',  # ids as floats
])
def test_malformed_frames_raise_value_error(line):
    with pytest.raises(ValueError):
        decode_frame(line)


def test_oversized_frame_rejected():
    line = b'{"op":"cancel","request_id":"' + b"x" * (1 << 20) + b'"}\n'
    with pytest.raises(ValueError, match="exceeds"):
        decode_frame(line)


def test_validation():
    with pytest.raises(ValueError):
        GenerateOp(request_id="r", lora_id="m", prompt_len=0, response_len=1)
    with pytest.raises(ValueError):
        GenerateOp(request_id="r", lora_id="", prompt_len=1, response_len=1)
    with pytest.raises(ValueError):
        CancelOp(request_id="")
    with pytest.raises(ValueError, match="prompt_len"):
        GenerateOp(request_id="r", lora_id="m", prompt_len=39, response_len=1,
                   prompt_tokens=(1, 2))
    with pytest.raises(ValueError, match=">= 0"):
        GenerateOp(request_id="r", lora_id="m", prompt_len=2, response_len=1,
                   prompt_tokens=(1, -2))


# ---------------------------------------------------------------------------
# encode_frame against the asdict oracle, over everything a frame can hold
# ---------------------------------------------------------------------------
_texts = st.one_of(
    st.text(max_size=24),
    st.text(
        alphabet='"\\/\n\r\t\x00\x7f\u2028\u00e9\u6f22\U0001f600 {}:,',
        max_size=24,
    ),
)
_names = _texts.filter(bool)
_ints = st.one_of(st.integers(-(2 ** 70), 2 ** 70), st.integers(0, 50_000))
_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-07, 1.5, 1e300,
                     float("inf"), float("-inf"), float("nan")]),
)
# A GenerateOp's prompt ids are >= 0 and exactly prompt_len of them.
_prompt_tokens = st.one_of(
    st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=8).map(tuple),
    st.integers(500, 3000).map(lambda n: tuple(range(n))),
)
_any_frame = st.one_of(
    st.builds(
        GenerateOp, request_id=_texts, tenant=_texts, lora_id=_names,
        prompt_len=st.integers(1, 2 ** 70), response_len=st.integers(1, 2 ** 70),
    ),
    st.builds(
        lambda prompt, **kw: GenerateOp(
            prompt_len=len(prompt), prompt_tokens=prompt, **kw
        ),
        prompt=_prompt_tokens, request_id=_texts, tenant=_texts,
        lora_id=_names, response_len=st.integers(1, 2 ** 70),
    ),
    st.builds(CancelOp, request_id=_names),
    st.builds(AcceptedFrame, request_id=_texts),
    st.builds(TokenFrame, request_id=_texts, token=_ints, index=_ints,
              time=_floats),
    st.builds(EndFrame, request_id=_texts, status=_texts, num_tokens=_ints),
    st.builds(ErrorFrame, request_id=_texts, code=_ints, reason=_texts),
)


@settings(max_examples=300, deadline=None)
@given(frame=_any_frame)
def test_encode_frame_matches_the_asdict_oracle(frame):
    line = encode_frame(frame)
    assert line == reference_encode(frame)
    # repr, not ==: NaN is not equal to itself and -0.0 == 0.0.
    assert repr(decode_frame(line)) == repr(frame)


# A chunk of token frames is spelled by f-strings only when its tokens and
# first index are exactly ``int``, its times exactly ``float`` and its id
# exactly ``str``; anything else goes through the general encoder and must
# still say the same bytes the oracle says.
class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


_not_int = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), _floats, _ints.map(_Int),
)
_not_float = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4), _ints, _floats.map(_Float),
)
_chunks = st.lists(st.tuples(_ints, _floats), min_size=1, max_size=8)


@st.composite
def _odd_chunks(draw):
    """A chunk with exactly one thing not exactly typed: one token, one
    time, the first index or the id."""
    rid, first, chunk = draw(_texts), draw(_ints), draw(_chunks)
    k = draw(st.integers(0, len(chunk) - 1))
    token, t = chunk[k]
    odd = draw(st.sampled_from(["token", "time", "index", "id"]))
    if odd == "token":
        chunk[k] = (draw(_not_int), t)
    elif odd == "time":
        chunk[k] = (token, draw(_not_float))
    elif odd == "index":
        first = draw(st.one_of(st.booleans(), _ints.map(_Int)))
    else:
        rid = _Str(rid)
    return rid, first, chunk


def encode_chunk(rid, first, chunk):
    """``encode_tokens`` on a chunk, with the general encoder watched, and
    the frames the oracle says the chunk holds."""
    tokens, times = zip(*chunk)
    with mock.patch.object(
        protocol, "_encode_json", wraps=protocol._encode_json
    ) as general:
        data = encode_tokens(rid, first, tokens, times)
    frames = [
        TokenFrame("token", rid, token, first + k, t)
        for k, (token, t) in enumerate(chunk)
    ]
    return data, general.called, frames


@settings(max_examples=300, deadline=None)
@given(rid=st.one_of(st.text(), _texts), first=_ints, chunk=_chunks)
def test_token_frame_f_string_matches_the_oracle(rid, first, chunk):
    data, general, frames = encode_chunk(rid, first, chunk)
    assert not general, "an exactly typed chunk left the f-string"
    assert data == b"".join(reference_encode(f) for f in frames)
    lines = data.splitlines(keepends=True)
    assert [repr(decode_frame(line)) for line in lines] == list(map(repr, frames))


@settings(max_examples=300, deadline=None)
@given(odd=_odd_chunks())
def test_token_frame_of_other_types_takes_the_general_path(odd):
    data, general, frames = encode_chunk(*odd)
    assert general
    assert data == b"".join(reference_encode(f) for f in frames)


def test_token_frame_prefix_is_what_the_ledger_client_slices():
    """benchmarks/ledger/loadgen.py recognises a token frame by this
    literal prefix and slices index and request id out without JSON."""
    line = encode_frame(TokenFrame(request_id="q000007", token=5, index=31,
                                   time=1e-07))
    assert line == (
        b'{"event":"token","index":31,"request_id":"q000007",'
        b'"time":1e-07,"token":5}\n'
    )
    assert line.startswith(b'{"event":"token","index":')
