"""Client <-> server wire protocol: the outer face of the engine's steps.

The serving frontend speaks newline-delimited JSON frames over a byte
stream (TCP here; the paper's deployment used websockets, which are the
same shape: ordered framed messages both ways). Each frame type maps to
one thing the cluster does with a request:

========================  =================================================
wire frame                inside the cluster
========================  =================================================
:class:`GenerateOp`       :meth:`~repro.cluster.frontend.Frontend.submit`
:class:`CancelOp`         :meth:`~repro.cluster.frontend.Frontend.cancel`
:class:`TokenFrame`       one token of a step's ``(request_id, tokens,
                          times)`` chunk (the simulator's token sink), its
                          ``time`` the end of the step that committed it;
                          a chunk is encoded whole by :func:`encode_tokens`
:class:`EndFrame`         the request's terminal state: ``finished`` (in
                          its last step report's ``finished``),
                          ``cancelled`` or ``failed``
:class:`ErrorFrame`       admission rejection — no inner counterpart: a
                          shed request never reaches the scheduler
========================  =================================================

Frames serialize via :func:`encode_frame` / :func:`decode_frame` with
sorted keys and compact separators, so a captured session log is stable
enough to diff. A closed connection with no :class:`CancelOp` means the
client disconnected; the server treats that exactly like a cancel (the
disconnect-to-eviction path the acceptance smoke asserts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

MAX_FRAME_BYTES = 1 << 20
"""Upper bound on one encoded frame; a longer line is a protocol error.
Both ends pass it as their stream reader's ``limit``."""


# ---------------------------------------------------------------------------
# Client -> server operations
# ---------------------------------------------------------------------------
def _is_int(value) -> bool:
    """An integer, and not a bool (JSON ``true`` decodes to one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_strings(*values) -> None:
    """An op's names and ids must be strings: anything else would be
    hashed or echoed back further in."""
    if not all(isinstance(v, str) for v in values):
        raise TypeError("op, request_id, tenant and lora_id must be strings")


@dataclass(frozen=True)
class GenerateOp:
    """Open one generation stream (the RESTful POST of Figure 2)."""

    op: str = "generate"
    request_id: str = ""
    tenant: str = ""
    """Rate-limit principal; defaults to the LoRA model id when empty."""
    lora_id: str = ""
    prompt_len: int = 1
    response_len: int = 1
    prompt_tokens: "tuple[int, ...] | None" = None
    """Real prompt ids (functional backend); None in simulation mode."""

    def __post_init__(self) -> None:
        _check_strings(self.op, self.request_id, self.tenant, self.lora_id)
        if not (_is_int(self.prompt_len) and _is_int(self.response_len)):
            raise TypeError("prompt_len and response_len must be integers")
        if self.prompt_len < 1 or self.response_len < 1:
            raise ValueError("prompt_len and response_len must be >= 1")
        if not self.lora_id:
            raise ValueError("lora_id must be set")
        if self.prompt_tokens is not None:
            if not all(map(_is_int, self.prompt_tokens)):
                raise TypeError("prompt token ids must be integers")
            if len(self.prompt_tokens) != self.prompt_len:
                raise ValueError(
                    f"prompt_tokens holds {len(self.prompt_tokens)} ids but "
                    f"prompt_len is {self.prompt_len}"
                )
            if min(self.prompt_tokens) < 0:
                raise ValueError("prompt token ids must be >= 0")

    @property
    def effective_tenant(self) -> str:
        return self.tenant or self.lora_id


@dataclass(frozen=True)
class CancelOp:
    """Cancel an in-flight stream by id (explicit client-side cancel)."""

    op: str = "cancel"
    request_id: str = ""

    def __post_init__(self) -> None:
        _check_strings(self.op, self.request_id)
        if not self.request_id:
            raise ValueError("cancel requires a request_id")


# ---------------------------------------------------------------------------
# Server -> client stream frames
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AcceptedFrame:
    """Admission succeeded; token frames for ``request_id`` follow."""

    event: str = "accepted"
    request_id: str = ""


@dataclass(frozen=True)
class TokenFrame:
    """One generated token, streamed as soon as the engine produced it."""

    event: str = "token"
    request_id: str = ""
    token: int = 0
    index: int = 0
    time: float = 0.0
    """Backend clock (virtual seconds under the time-warped simulator)."""


@dataclass(frozen=True)
class EndFrame:
    """Stream end. ``status`` is finished | cancelled | failed."""

    event: str = "end"
    request_id: str = ""
    status: str = "finished"
    num_tokens: int = 0


@dataclass(frozen=True)
class ErrorFrame:
    """Request rejected before reaching the scheduler (429-style shed)."""

    event: str = "error"
    request_id: str = ""
    code: int = 429
    reason: str = ""


_FRAME_TYPES = {
    "generate": GenerateOp,
    "cancel": CancelOp,
    "accepted": AcceptedFrame,
    "token": TokenFrame,
    "end": EndFrame,
    "error": ErrorFrame,
}

Frame = (
    "GenerateOp | CancelOp | AcceptedFrame | TokenFrame | EndFrame | ErrorFrame"
)


# Field names in sorted order: a dict filled in it needs no key sort.
_SORTED_FIELDS = {
    cls: tuple(sorted(f.name for f in fields(cls))) for cls in _FRAME_TYPES.values()
}
_encode_json = json.JSONEncoder(separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii


def encode_frame(frame) -> bytes:
    """One frame -> one canonical JSON line (newline-terminated bytes)."""
    obj = {
        name: value
        for name in _SORTED_FIELDS[type(frame)]
        if (value := getattr(frame, name)) is not None
    }
    if "prompt_tokens" in obj:
        obj["prompt_tokens"] = list(obj["prompt_tokens"])
    return (_encode_json(obj) + "\n").encode()


def encode_tokens(request_id, first_index, tokens, times) -> bytes:
    """One stream's token chunk -> the lines :func:`encode_frame` writes for
    ``TokenFrame("token", request_id, tokens[k], first_index + k,
    times[k])``, byte for byte. With an exact ``str`` id, ``int`` index and
    tokens and ``float`` times (every chunk the bridges stream) each line
    is one f-string: the id through the JSON encoder's own escaper, the
    time through ``float.__repr__`` or ``NaN`` / ``Infinity`` /
    ``-Infinity``. Any other chunk takes ``encode_frame`` per token."""
    if type(request_id) is str and type(first_index) is int:
        rid = _encode_str(request_id)
        lines = []
        index = first_index
        for token, t in zip(tokens, times):
            if type(token) is not int or type(t) is not float:
                break
            t = repr(t) if t - t == 0.0 else (
                "NaN" if t != t else "Infinity" if t > 0 else "-Infinity"
            )
            lines.append(
                f'{{"event":"token","index":{index},"request_id":{rid},'
                f'"time":{t},"token":{token}}}\n'
            )
            index += 1
        else:
            return "".join(lines).encode()
    return b"".join([
        encode_frame(TokenFrame("token", request_id, token, first_index + k, t))
        for k, (token, t) in enumerate(zip(tokens, times))
    ])


def decode_frame(line: "bytes | str"):
    """One JSON line -> the typed frame it encodes.

    Raises ``ValueError`` on malformed JSON, an unknown discriminator, or
    a frame that fails its own validation — the server answers those with
    an :class:`ErrorFrame` instead of dying.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ValueError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
        line = line.decode("utf-8", errors="strict")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"frame must be a JSON object, got {type(obj).__name__}")
    key = obj.get("op") or obj.get("event")
    cls = _FRAME_TYPES.get(key) if isinstance(key, str) else None
    if cls is None:
        raise ValueError(f"unknown frame discriminator {key!r}")
    try:
        if obj.get("prompt_tokens") is not None:
            obj["prompt_tokens"] = tuple(obj["prompt_tokens"])
        return cls(**obj)
    except TypeError as exc:
        raise ValueError(f"bad {key!r} frame: {exc}") from None
