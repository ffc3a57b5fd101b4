"""One step pricer for every engine: Fig 11 holds only if every system is
priced by the same formulas, so the simulated and NumPy backends and the
static baselines each hold a :class:`StepPricer`, and the control plane
quotes through the engine's own (``engine.backend.pricer``)."""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.hw.kernels import KernelCostModel
from repro.hw.spec import A100_80G, GpuSpec
from repro.models.config import LlamaConfig
from repro.models.perf import (
    PUNICA_FLAGS,
    PerfFlags,
    StepWorkload,
    model_step_latency,
    spec_round_latency,
    step_latency_from_terms,
    step_latency_steady_run,
    step_latency_terms,
)
from repro.models.tp import SINGLE_GPU, TensorParallelConfig

if TYPE_CHECKING:
    from repro.core.batch import BatchPlan
    from repro.runtime.spec import SpecConfig


_TERMS_MEMO_LIMIT = 4096
"""Shapes one identity's price list holds before its term dict is
cleared wholesale (as ``hw.kernels._MEMO_LIMIT``): terms are cheap to
rebuild, the limit only bounds memory on a run of unboundedly many batch
shapes. The bound is per identity — every live pricer of one identity
fills the same dict — not per pricer."""


class _PriceList:
    """What every pricer of one identity shares: its
    :class:`KernelCostModel` and its shape-keyed
    :class:`~repro.models.perf.StepLatencyTerms`."""

    __slots__ = ("cost_model", "terms", "__weakref__")

    def __init__(self, gpu: GpuSpec):
        self.cost_model = KernelCostModel(gpu)
        self.terms: dict = {}


_PRICE_LISTS: "weakref.WeakValueDictionary[tuple, _PriceList]" = (
    weakref.WeakValueDictionary()
)
"""The live price lists by :attr:`StepPricer.identity`. Each pricer
holds its list strongly and this registry weakly, so a list lives
exactly as long as some pricer of its identity: identical engines, and
the router's quotes against any of them, build each shape once, and a
new fleet starts cold once the last one is gone."""


class StepPricer:
    """Seconds of one batched invocation on ``gpu`` plus ``step_overhead``
    of host time; ``serve_lora`` False prices the bare backbone.

    Pricers of one :attr:`identity` share one price list (the kernel
    cost model and the shape memo, ``_PRICE_LISTS``): they price every
    shape alike, so whatever one of them priced the others read."""

    def __init__(
        self,
        config: LlamaConfig,
        gpu: GpuSpec = A100_80G,
        tp: TensorParallelConfig = SINGLE_GPU,
        flags: PerfFlags = PUNICA_FLAGS,
        lora_rank: int = 16,
        serve_lora: bool = True,
        step_overhead: float = 0.0,
    ):
        self.config = config
        self.gpu = gpu
        self.tp = tp
        self.flags = flags
        self.lora_rank = lora_rank
        self.serve_lora = serve_lora
        self.step_overhead = step_overhead
        self.supports_steady = not flags.cache_concat
        """Whether a plan has latency terms that hold across its steps —
        what the shape memo and the engine's offsets and bulk decode lane
        rest on. Under ``cache_concat`` one layer term reads the KV
        lengths, so nothing is plan-invariant: every step is priced with
        ``model_step_latency`` and the engine stages no bulk run."""
        identity = self.identity
        prices = _PRICE_LISTS.get(identity)
        if prices is None:
            prices = _PRICE_LISTS[identity] = _PriceList(gpu)
        self._prices = prices
        self.cost_model = prices.cost_model
        self._terms_memo = prices.terms
        """:class:`StepLatencyTerms` by batch *shape*, shared by every
        pricer of this identity, at most ``_TERMS_MEMO_LIMIT`` of them.
        Rotating batch membership yields thousands of distinct plans
        whose shapes (token counts, LoRA segment sizes) repeat heavily;
        the terms are a pure function of shape and identity
        (``supports_steady`` rules out ``cache_concat``, the one flag
        that would make them read the decode KV lengths)."""

    @property
    def identity(self) -> tuple:
        """Everything :meth:`step_seconds` reads besides its arguments:
        pricers with equal identities price every shape alike."""
        return (
            self.gpu, self.config, self.tp, self.flags,
            self.lora_rank, self.serve_lora, self.step_overhead,
        )

    def step_seconds(
        self,
        prefill_lens: "tuple[int, ...]",
        n_decode: int,
        total_kv: int,
        segments: "tuple[int, ...] | None" = None,
    ) -> float:
        """Seconds of one invocation from its *shape* and the decode
        requests' KV total — the one way a step is priced, for every
        engine and for the control plane's placement quotes alike.

        ``total_kv`` is ``sum(past + 1)`` over the ``n_decode`` decode
        requests: the analytical model reads their KvCache lengths through
        that sum alone. ``segments`` are the LoRA segment sizes in batch
        order; ``None`` puts every request on its own adapter (a quote's
        assumption about a batch that does not exist yet). Equal, bit for
        bit, to ``model_step_latency`` over the per-request workload plus
        ``step_overhead`` (the quote and engine oracles under ``tests/``).
        """
        if self.supports_steady:
            terms = self._terms(prefill_lens, n_decode, total_kv, segments)
            latency = step_latency_from_terms(
                self.config, self.cost_model, terms, total_kv
            )
        else:
            work = self._shape_workload(prefill_lens, n_decode, total_kv, segments)
            latency = model_step_latency(
                self.config, self.cost_model, work, tp=self.tp, flags=self.flags
            )
        return latency + self.step_overhead

    def steady_run_latencies(self, plan: "BatchPlan", total_kv: int, count: int):
        """Per-step latencies for a ``count``-step decode run of one batch.

        ``total_kv`` is ``sum(past + 1)`` over the all-decode ``plan``'s
        requests at the run's first step. Step ``k`` prices exactly like
        :meth:`step_seconds` with every past length ``k`` tokens on (see
        :func:`~repro.models.perf.step_latency_steady_run`).
        """
        batch = len(plan.decode_ids)
        terms = self._terms(plan.prefill_lens, batch, total_kv, plan.segment_sizes)
        return (
            step_latency_steady_run(
                self.config, self.cost_model, terms, total_kv, batch, count
            )
            + self.step_overhead
        )

    def spec_round_seconds(
        self, plan: "BatchPlan", past_lens: Mapping[str, int], spec: "SpecConfig"
    ) -> float:
        """Seconds of one speculative round over an all-decode plan. The
        verify reads each request's own past KV length (``past_lens``,
        pre-reservation), so the round is priced from the per-request
        workload, with no term memo."""
        work = StepWorkload(
            plan.prefill_lens,
            tuple(past_lens[rid] for rid in plan.decode_ids),
            plan.segment_sizes if self.serve_lora else None,
            self.lora_rank,
        )
        latency = spec_round_latency(
            self.config, self.cost_model, work, spec.draft_len,
            spec.draft_cost_ratio, tp=self.tp, flags=self.flags,
        )
        return latency + self.step_overhead

    def _shape_workload(self, prefill_lens, n_decode, total_kv, segments):
        """A validated workload of the given shape and decode KV total.
        Nothing downstream reads the individual decode lengths — decode
        attention and the ``cache_concat`` copy sum them — so the first
        decode request carries the whole past."""
        if not self.serve_lora:
            segments = None
        elif segments is None:
            segments = prefill_lens + (1,) * n_decode
        past = (total_kv - n_decode,) + (0,) * (n_decode - 1) if n_decode else ()
        return StepWorkload(prefill_lens, past, segments, self.lora_rank)

    def _terms(self, prefill_lens, n_decode: int, total_kv: int, segments):
        """Memoized :func:`step_latency_terms` for one invocation shape.

        Every term is shape-invariant in the decode KV lengths, so the
        memo keys on the shape alone and batches that recompose the same
        shape — the plans of every engine of this identity and the
        router's quotes against any of them, mixed prefills included —
        share one build; on a hit the :class:`StepWorkload` (validation
        plus one tuple per batch) is never built, and ``total_kv`` is
        only what a miss builds it from.

        Under the SGMV and Gather-BMM operators the LoRA terms depend on
        the segment vector only through its sum and count (see
        :meth:`~repro.hw.kernels.KernelCostModel.lora_addon_total`) — and
        the sum is the token total the other key parts already fix — so
        the key collapses the segments to their count and rotating LoRA
        membership stops defeating the memo. The Loop operator prices
        each segment individually, so it keeps the full tuple.
        """
        if not self.serve_lora:
            seg_key = None
        elif self.flags.lora_impl != "loop":
            seg_key = (
                len(segments) if segments is not None
                else len(prefill_lens) + n_decode
            )
        else:
            seg_key = (
                segments if segments is not None
                else prefill_lens + (1,) * n_decode
            )
        key = (prefill_lens, n_decode, seg_key)
        memo = self._terms_memo
        terms = memo.get(key)
        if terms is None:
            terms = step_latency_terms(
                self.config,
                self.cost_model,
                self._shape_workload(prefill_lens, n_decode, total_kv, segments),
                tp=self.tp,
                flags=self.flags,
            )
            if len(memo) >= _TERMS_MEMO_LIMIT:
                memo.clear()
            memo[key] = terms
        return terms
