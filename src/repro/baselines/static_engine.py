"""Static-batching baseline engine (HF Transformers, DeepSpeed, FasterTransformer).

These systems use an inseparable KvCache layout (§5.4): requests that enter
a batch together stay until *every* member reaches its stopping condition
(Fig 6). The engine speaks the engine protocol of
:class:`~repro.runtime.engine.GpuEngine` that a
:class:`~repro.cluster.simulator.ClusterSimulator` pool drives
(``can_accept`` / ``add_request`` / ``step`` / ``is_idle``, an adapter
store and ``fast_path``), so the one FCFS scheduler serves
both — the throughput difference is entirely the system model, as in the
paper.

Behavioural differences from the continuous engine:

* a new batch is sealed from queued requests only when the previous batch
  has fully drained;
* all batch members share one LoRA model (baselines cannot mix);
* the whole batch prefills in a single invocation;
* members that finish early keep running wasted decode steps (their tokens
  are not counted) until the longest member completes.
"""

from __future__ import annotations

from repro.adapters.store import GpuAdapterStore
from repro.hw.spec import A100_80G, GpuSpec
from repro.models.config import LlamaConfig
from repro.models.tp import SINGLE_GPU, TensorParallelConfig
from repro.runtime.engine import StepReport
from repro.runtime.pricing import StepPricer
from repro.runtime.request import Request
from repro.utils.units import GIB


class StaticBatchEngine:
    """Inseparable-KvCache, same-LoRA, whole-batch-prefill baseline."""

    fast_path = False
    """No bulk decode lane: every step is a scalar step."""

    def __init__(
        self,
        gpu_id: str,
        profile,
        config: LlamaConfig,
        gpu: GpuSpec = A100_80G,
        tp: TensorParallelConfig = SINGLE_GPU,
        max_batch_size: int = 32,
        lora_rank: int = 16,
        workspace_bytes: float = 2 * GIB,
    ):
        self.gpu_id = gpu_id
        self.profile = profile
        self.config = config
        self.max_batch_size = max_batch_size
        self.pricer = StepPricer(
            config, gpu, tp, profile.flags, lora_rank,
            profile.serves_lora, profile.step_overhead,
        )
        weights = config.weight_bytes() // tp.world_size
        self.kv_capacity_tokens = int(
            (gpu.hbm_capacity - weights - workspace_bytes)
            // max(1, config.kv_bytes_per_token() // tp.world_size)
        )
        if self.kv_capacity_tokens <= 0:
            raise ValueError(f"{config.name} does not fit on {gpu.name}")
        self._pending: list[Request] = []
        self._active: list[Request] = []
        self._done_in_active: set[str] = set()
        # Padded per-lane KvCache lengths: keep growing even for finished
        # members (their lanes still occupy compute and memory, Fig 6).
        self._lane_kv: dict[str, int] = {}
        self._prefilled = False
        self._token_counter = 0
        self.loader = GpuAdapterStore(gpu_id=gpu_id)
        """Stays empty: the baselines model no asynchronous LoRA loads."""

    # -- engine protocol --------------------------------------------------
    @property
    def working_set_size(self) -> int:
        return len(self._pending) + len(self._active)

    @property
    def is_idle(self) -> bool:
        return self.working_set_size == 0

    def kv_free_tokens(self) -> int:
        used = sum(self._lane_kv.get(r.request_id, 0) for r in self._active)
        return max(0, self.kv_capacity_tokens - used)

    def can_accept(self, request: Request) -> bool:
        if self._active:
            return False  # inseparable batch: wait for full drain
        if len(self._pending) >= self.max_batch_size:
            return False
        if self._pending and request.lora_id != self._pending[0].lora_id:
            return False  # baselines batch one LoRA model only
        projected = sum(
            r.effective_prompt_len + r.spec.response_len for r in self._pending
        )
        projected += request.effective_prompt_len + request.spec.response_len
        return projected <= self.kv_capacity_tokens

    def add_request(self, request: Request, now: float) -> None:
        if not self.can_accept(request):
            raise RuntimeError(f"{self.gpu_id} cannot accept {request.request_id}")
        self.place(request, now)

    def place(self, request: Request, now: float) -> None:
        """:meth:`add_request` for a request :meth:`can_accept` admitted."""
        request.needs_prefill = True
        request.mark_running(self.gpu_id, now)
        self._pending.append(request)

    def all_requests(self) -> list[Request]:
        """Every request currently on this GPU (active batch + pending)."""
        return list(self._active) + list(self._pending)

    def next_ready_time(self) -> "float | None":
        """Static baselines have no async LoRA loads to wait for."""
        return None

    def cancel(self, request_id: str, requeue: bool = False) -> Request:
        for bucket in (self._pending, self._active):
            for i, req in enumerate(bucket):
                if req.request_id == request_id:
                    bucket.pop(i)
                    self._done_in_active.discard(request_id)
                    self._lane_kv.pop(request_id, None)
                    if requeue:
                        req.evict()
                    else:
                        req.mark_cancelled()
                    return req
        raise KeyError(f"request {request_id} not on {self.gpu_id}")

    # -- execution ----------------------------------------------------------
    def step(self, now: float) -> StepReport | None:
        if not self._active:
            if not self._pending:
                return None
            self._active = self._pending
            self._pending = []
            self._done_in_active = set()
            self._prefilled = False
        if not self._prefilled:
            return self._prefill_step(now)
        return self._decode_step(now)

    def _prefill_step(self, now: float) -> StepReport:
        prefill_lens = tuple(r.effective_prompt_len for r in self._active)
        # One shared LoRA model per batch: a single segment (the pricer
        # drops it for backbone-only systems).
        latency = self.pricer.step_seconds(
            prefill_lens, 0, 0, (sum(prefill_lens),)
        )
        end = now + latency
        tokens: dict[str, int] = {}
        finished: list[str] = []
        for req in self._active:
            self._lane_kv[req.request_id] = req.effective_prompt_len
            req.kv_len = req.effective_prompt_len
            req.needs_prefill = False
            self._token_counter += 1
            tokens[req.request_id] = self._token_counter
            req.record_token(self._token_counter, end)
            if req.reached_limit():
                self._finish(req, end, finished)
        self._prefilled = True
        report = StepReport(
            gpu_id=self.gpu_id, start=now, latency=latency,
            batch_size=len(self._active),
            num_prefill=len(self._active), num_decode=0,
            num_lora_segments=1 if self.profile.serves_lora else 0,
            new_tokens=tokens, finished=tuple(finished), evicted=(),
        )
        self._maybe_drain()
        return report

    def _decode_step(self, now: float) -> StepReport:
        # Every member — finished or not — occupies a decode lane (Fig 6).
        batch = len(self._active)
        total_kv = sum(self._lane_kv[r.request_id] + 1 for r in self._active)
        latency = self.pricer.step_seconds((), batch, total_kv, (batch,))
        end = now + latency
        tokens: dict[str, int] = {}
        finished: list[str] = []
        for req in self._active:
            self._lane_kv[req.request_id] += 1
            if req.request_id in self._done_in_active:
                continue  # wasted decode step: no token counted
            self._token_counter += 1
            tokens[req.request_id] = self._token_counter
            req.record_token(self._token_counter, end)
            if req.reached_limit():
                self._finish(req, end, finished)
        report = StepReport(
            gpu_id=self.gpu_id, start=now, latency=latency,
            batch_size=batch, num_prefill=0, num_decode=batch,
            num_lora_segments=1 if self.profile.serves_lora else 0,
            new_tokens=tokens, finished=tuple(finished), evicted=(),
        )
        self._maybe_drain()
        return report

    def _finish(self, req: Request, end: float, finished: list[str]) -> None:
        req.mark_finished(end)
        self._done_in_active.add(req.request_id)
        finished.append(req.request_id)

    def _maybe_drain(self) -> None:
        if len(self._done_in_active) == len(self._active):
            self._active = []
            self._done_in_active = set()
            self._lane_kv = {}
            self._prefilled = False

    # -- diagnostics --------------------------------------------------------
    def wasted_step_fraction(self) -> float:
        """Fraction of current-batch decode lanes running wasted steps."""
        if not self._active:
            return 0.0
        return len(self._done_in_active) / len(self._active)
