"""Ablation: speculative decoding ITL vs acceptance rate vs batch size.

The same closed-loop decode workload is served with the speculative lane
disarmed (the baseline) and armed at a sweep of acceptance rates, across
several batch sizes. Every speculative round pays a fixed overhead — the
``draft_len`` cheap draft steps plus a verify invocation priced as a
short prefill of ``draft_len + 1``-token chunks — and earns back
``accepted + 1`` committed tokens. That is the MagicDec trade-off curve:

* at **high acceptance** the burst amortizes the overhead and effective
  inter-token latency drops well below the baseline decode step;
* at **low acceptance** most drafts are rejected and rolled back, so the
  round costs more than the one token it commits — speculation *loses*;
* growing the **batch** raises the verify cost (the chunked-prefill side
  scales with batch x chunk tokens) faster than the decode baseline, so
  the break-even acceptance rate climbs with batch size.

``repro spec`` renders this table (``benchmarks/results/ablation_spec.txt``);
:func:`spec_claims` holds its shape.
"""

from __future__ import annotations

from repro.bench.disagg_ablation import inter_token_latencies
from repro.bench.reporting import FigureTable
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.serve import ServeResult, requests_from_trace, serve_requests
from repro.runtime.spec import SpecConfig
from repro.utils.units import MS
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import Trace, generate_trace

BATCH_SIZES = (1, 8, 32)
ACCEPTANCE_RATES = (0.2, 0.5, 0.8, 0.95)
DRAFT_LEN = 4
PROMPT_LEN = 128
RESPONSE_LEN = 64
"""Decode-heavy closed loop: every request is present from t=0 and decodes
to its response limit, so once the short prefill phase drains, every
invocation is a pure decode batch of exactly ``batch`` requests — the
regime where the speculative lane engages on every step."""


def _trace(seed: int, batch: int) -> Trace:
    lengths = ShareGptLengths(
        max_prompt_len=PROMPT_LEN, max_response_len=RESPONSE_LEN
    )
    return generate_trace(batch, "distinct", seed=seed, lengths=lengths)


def run_one(
    seed: int, batch: int, spec: "SpecConfig | None"
) -> "tuple[ServeResult, Tracer]":
    """Serve the closed-loop batch on one engine; spec arms the lane."""
    engine = GpuEngine(
        "gpu0",
        SimulatedBackend(LLAMA2_7B, step_overhead=0.0),
        EngineConfig(max_batch_size=batch, spec=spec),
    )
    tracer = Tracer()
    result = serve_requests(
        engine, requests_from_trace(_trace(seed, batch)), tracer=tracer
    )
    return result, tracer


def _mean_itl_ms(tracer: Tracer) -> float:
    tpots = inter_token_latencies(tracer)
    if not tpots:
        return 0.0
    return sum(tpots) / len(tpots) / MS


def _mean_accepted(tracer: Tracer) -> float:
    verifies = tracer.by_kind(EventKind.SPEC_VERIFY)
    if not verifies:
        return 0.0
    return sum(e.attrs["accepted"] for e in verifies) / len(verifies)


def run_spec_ablation(
    seed: int = 0,
    draft_len: int = DRAFT_LEN,
    batch_sizes: "tuple[int, ...]" = BATCH_SIZES,
    acceptance_rates: "tuple[float, ...]" = ACCEPTANCE_RATES,
) -> FigureTable:
    table = FigureTable(
        figure_id="Ablation spec",
        title=(
            f"Speculative decoding ITL vs acceptance rate vs batch size "
            f"(draft_len={draft_len}, {PROMPT_LEN}-token prompts, "
            f"{RESPONSE_LEN}-token responses)"
        ),
        headers=[
            "batch", "acceptance", "itl_ms", "baseline_itl_ms",
            "speedup", "mean_accepted", "rounds",
        ],
    )
    for batch in batch_sizes:
        base_result, base_tracer = run_one(seed, batch, None)
        base_itl = _mean_itl_ms(base_tracer)
        for rate in acceptance_rates:
            spec = SpecConfig(
                draft_len=draft_len, acceptance_rate=rate, seed=seed
            )
            result, tracer = run_one(seed, batch, spec)
            itl = _mean_itl_ms(tracer)
            table.add_row(
                batch,
                rate,
                itl,
                base_itl,
                base_itl / itl if itl > 0 else 0.0,
                _mean_accepted(tracer),
                len(tracer.by_kind(EventKind.SPEC_DRAFT)),
            )
    table.add_note(
        "speedup = baseline decode ITL / speculative ITL on the same "
        "workload; > 1 means speculation wins"
    )
    table.add_note(
        "the break-even acceptance rate climbs with batch size: the "
        "chunked verify grows with batch x (draft_len + 1) tokens while "
        "the baseline decode step grows only with batch (MagicDec)"
    )
    return table


def spec_claims(table: FigureTable) -> None:
    by_batch: "dict[int, list[tuple[float, float]]]" = {}
    for batch, rate, _itl, _base, speedup, _acc, _rounds in table.rows:
        by_batch.setdefault(batch, []).append((rate, speedup))
    for batch, points in by_batch.items():
        rates = [rate for rate, _ in points]
        speedups = [speedup for _, speedup in points]
        # Low acceptance loses: the round overhead outweighs the burst.
        assert speedups[0] < 1.0, (batch, points)
        # High acceptance wins: bursts amortize the draft + verify cost.
        assert speedups[-1] > 1.0, (batch, points)
        # Speedup is monotone in acceptance within a batch size (up to
        # the discretization of rounds-per-request at small batches).
        for lo, hi in zip(speedups, speedups[1:]):
            assert hi >= lo - 0.01, (batch, points)
        assert rates == sorted(rates)

    # MagicDec: bigger batches make the verify chunk relatively more
    # expensive, so high-acceptance speedup shrinks as batch grows.
    top_speedups = [by_batch[b][-1][1] for b in sorted(by_batch)]
    assert top_speedups == sorted(top_speedups, reverse=True), top_speedups
