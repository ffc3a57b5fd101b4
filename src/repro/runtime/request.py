"""Request lifecycle state.

A request flows QUEUED -> RUNNING -> FINISHED, possibly bouncing back to
QUEUED on migration/eviction (cancel + re-add, §5.3). Two terminal error
states exist besides FINISHED: CANCELLED (user disconnect) and FAILED
(shed under faults, or deadline exceeded after the retry budget — see
docs/faults.md). The object records everything the scheduler, engine and
metrics need: timing stamps, generated tokens, and how many of its tokens
are currently materialized in some GPU's KvCache. Latencies are derived
from the stamps in one place, :mod:`repro.runtime.latency`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.workloads.trace import RequestSpec


class RequestState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (
            RequestState.FINISHED, RequestState.CANCELLED, RequestState.FAILED
        )


@dataclass
class Request:
    """One in-flight request (mutable runtime state around a RequestSpec)."""

    spec: RequestSpec
    state: RequestState = RequestState.QUEUED
    prompt_tokens: "list[int] | None" = None
    """Actual prompt ids (functional mode); None in simulation mode."""
    sampler: "object | None" = None
    """Per-request sampler override (functional mode); the backend's default
    sampler is used when None. Lets tenants pick temperature/top-k."""
    generated_tokens: list[int] = field(default_factory=list)
    kv_len: int = 0
    """Tokens of this request currently materialized in the GPU KvCache."""
    needs_prefill: bool = True
    gpu_id: "str | None" = None
    first_admitted_time: "float | None" = None
    first_token_time: "float | None" = None
    finish_time: "float | None" = None
    num_migrations: int = 0
    num_retries: int = 0
    """Frontend-driven resubmissions after a failure or missed deadline."""
    failure_reason: "str | None" = None
    """Why the request reached FAILED (shed, deadline, adapter-load, ...)."""

    @property
    def request_id(self) -> str:
        return self.spec.request_id

    @property
    def lora_id(self) -> str:
        return self.spec.lora_id

    @property
    def num_generated(self) -> int:
        return len(self.generated_tokens)

    @property
    def effective_prompt_len(self) -> int:
        """Tokens a (re-)prefill must process: original prompt + everything
        generated so far (migration recomputes the KvCache, §5.3)."""
        return self.spec.prompt_len + self.num_generated

    def reached_limit(self) -> bool:
        """The length-limit stopping condition."""
        return self.num_generated >= self.spec.response_len

    def record_token(self, token: int, now: float) -> None:
        """Append one generated token and stamp first-token latency."""
        if self.state is not RequestState.RUNNING:
            raise RuntimeError(
                f"cannot record token for {self.request_id} in state {self.state}"
            )
        self.generated_tokens.append(token)
        if self.first_token_time is None:
            self.first_token_time = now

    def mark_running(self, gpu_id: str, now: float) -> None:
        if self.state not in (RequestState.QUEUED, RequestState.RUNNING):
            raise RuntimeError(f"cannot run {self.request_id} from state {self.state}")
        self.state = RequestState.RUNNING
        self.gpu_id = gpu_id
        if self.first_admitted_time is None:
            self.first_admitted_time = now

    def mark_finished(self, now: float) -> None:
        self.state = RequestState.FINISHED
        self.finish_time = now
        self.gpu_id = None
        self.kv_len = 0

    def mark_cancelled(self) -> None:
        self.state = RequestState.CANCELLED
        self.gpu_id = None
        self.kv_len = 0

    def mark_failed(self, reason: str) -> None:
        """Terminal failure: shed under faults or out of retry budget."""
        if self.state is RequestState.FINISHED:
            raise RuntimeError(f"cannot fail finished request {self.request_id}")
        self.state = RequestState.FAILED
        self.failure_reason = reason
        self.gpu_id = None
        self.kv_len = 0

    def reset_for_retry(self) -> None:
        """Return a FAILED/CANCELLED request to QUEUED for a frontend retry.

        Generated tokens are kept — like migration, the next GPU re-prefills
        over prompt + generated prefix, so no progress is re-paid twice.
        """
        if self.state not in (
            RequestState.FAILED, RequestState.CANCELLED, RequestState.QUEUED
        ):
            raise RuntimeError(
                f"cannot retry {self.request_id} from state {self.state}"
            )
        self.state = RequestState.QUEUED
        self.failure_reason = None
        self.gpu_id = None
        self.kv_len = 0
        self.needs_prefill = True
        self.num_retries += 1

    def evict(self) -> None:
        """Cancel on the current GPU but keep progress (migration step 1).

        The generated prefix is preserved; the next GPU re-establishes the
        KvCache with a prefill over prompt + generated tokens.
        """
        if self.state is not RequestState.RUNNING:
            raise RuntimeError(f"cannot evict {self.request_id} in state {self.state}")
        self.state = RequestState.QUEUED
        self.gpu_id = None
        self.kv_len = 0
        self.needs_prefill = True
        self.num_migrations += 1

    def suspend_for_transfer(self) -> None:
        """Leave the prefill GPU with KV pages in flight (disagg handoff).

        Unlike :meth:`evict` the KV history travels with the request: the
        decode GPU imports the pages instead of re-prefilling, so
        ``kv_len``/``needs_prefill`` are preserved and no migration is
        counted. ``kv_len`` records how many tokens the copy carries.
        """
        if self.state is not RequestState.RUNNING:
            raise RuntimeError(
                f"cannot suspend {self.request_id} in state {self.state}"
            )
        self.state = RequestState.QUEUED
        self.gpu_id = None

    def drop_kv(self) -> None:
        """Lose the in-flight KV copy (transfer failure): back to re-prefill.

        Counts as a migration since the request pays the §5.3 evict +
        re-prefill price over prompt + generated prefix.
        """
        if self.state is not RequestState.QUEUED:
            raise RuntimeError(
                f"cannot drop KV of {self.request_id} in state {self.state}"
            )
        self.kv_len = 0
        self.needs_prefill = True
        self.num_migrations += 1
