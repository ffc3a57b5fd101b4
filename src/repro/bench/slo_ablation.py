"""Ablation: SLO attainment vs fleet shape at equal dollar cost.

Two fleets that bill identically (4.0 $/hr with the
:meth:`~repro.hw.spec.HwSpec.preset` price list) serve the same
prefill-heavy open-loop trace:

* **homo** — four A100-80Gs, the Punica deployment shape;
* **hetero** — one H100 + one A100-80G + four L4s: the same spend split
  into one fast prefill engine and a fleet of cheap decode engines.

Each fleet runs under two routers: the baseline FCFS pack rule
(:class:`~repro.cluster.simulator.ClusterSimulator`) and the SLO-aware
control plane (``ClusterSimulator(engines, control=...)``),
which places by modelled deadline headroom and sheds requests no engine
can serve in time. All four cells are scored against the *same*
:class:`~repro.cluster.control.ControlConfig` deadlines, so attainment
is comparable; a shed counts as a miss, so the router cannot buy
attainment by refusing work.

The headline claim (cmp-gated in CI through ``repro slo``): the
SLO-aware router on the heterogeneous fleet beats FCFS on the
homogeneous fleet at equal cost — deadline-aware placement converts the
same dollars into more attained requests by matching work to the engine
shape (big prefills to the H100, short decodes to the L4s).
"""

from __future__ import annotations

from repro.bench.disagg_ablation import percentile
from repro.bench.reporting import FigureTable
from repro.cluster.control import ControlConfig, SloPolicy, score_requests
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.hw.spec import HwSpec
from repro.models.config import LLAMA2_7B
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.utils.units import MS
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import Trace, open_loop_trace

FLEETS: "dict[str, tuple[str, ...]]" = {
    "homo 4xA100": ("a100-80g",) * 4,
    "hetero H100+A100+4xL4": ("h100", "a100-80g", "l4", "l4", "l4", "l4"),
}
"""Equal-cost fleets: 4 x 1.0 $/hr == 2.0 + 1.0 + 4 x 0.25 $/hr."""

RATE = 96.0
DURATION = 5.0
MAX_PROMPT = 768
MAX_RESPONSE = 24
"""Prefill-heavy open loop pushed past the 4xA100 saturation knee: long
prompts make placement quality (who prefills where) the dominant term in
TTFT — the H100 clears a long prompt in half an A100's time while an L4
takes ~2.6x longer — and past the knee FCFS queues blow the deadline
while headroom routing (plus shedding the hopeless tail) keeps the
attained fraction up."""

POLICY = SloPolicy(ttft_deadline=0.3, itl_deadline=0.12)


def _trace(seed: int) -> Trace:
    return open_loop_trace(
        rate=RATE, duration=DURATION, seed=seed,
        lengths=ShareGptLengths(
            max_prompt_len=MAX_PROMPT, max_response_len=MAX_RESPONSE
        ),
    )


def build_fleet(presets: "tuple[str, ...]", max_batch: int = 8) -> "list[GpuEngine]":
    return [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, gpu=HwSpec.preset(name)),
            EngineConfig(max_batch_size=max_batch),
        )
        for i, name in enumerate(presets)
    ]


def fleet_cost(presets: "tuple[str, ...]") -> float:
    return sum(HwSpec.preset(name).cost_per_hour for name in presets)


def run_cell(
    seed: int, presets: "tuple[str, ...]", router: str, control: ControlConfig
) -> SimulationResult:
    sim = ClusterSimulator(
        build_fleet(presets), control=control if router == "slo" else None
    )
    return sim.run(_trace(seed))


def _stats(result: SimulationResult, control: ControlConfig) -> "dict[str, float]":
    scored = score_requests(result.requests, control, result.duration)
    attained = sum(1 for _, ok in scored if ok)
    finished = [
        r for r in result.requests if r.state is RequestState.FINISHED
    ]
    ttfts = sorted(
        r.first_token_time - r.spec.arrival_time
        for r in finished
        if r.first_token_time is not None
    )
    itls = sorted(
        (r.finish_time - r.first_token_time) / (r.num_generated - 1)
        for r in finished
        if r.num_generated > 1 and r.first_token_time is not None
    )
    shed = sum(1 for r in result.requests if r.state is RequestState.FAILED)
    return {
        "attainment": attained / len(scored) if scored else 0.0,
        "shed": shed,
        "p50_ttft_ms": percentile(ttfts, 50.0) / MS if ttfts else 0.0,
        "p99_ttft_ms": percentile(ttfts, 99.0) / MS if ttfts else 0.0,
        "p99_itl_ms": percentile(itls, 99.0) / MS if itls else 0.0,
    }


def run_slo_ablation(
    seed: int = 0,
    ttft_deadline: float = POLICY.ttft_deadline,
    itl_deadline: float = POLICY.itl_deadline,
) -> FigureTable:
    control = ControlConfig(
        default_policy=SloPolicy(
            ttft_deadline=ttft_deadline, itl_deadline=itl_deadline
        )
    )
    table = FigureTable(
        figure_id="Ablation slo",
        title=(
            f"SLO attainment vs fleet shape at equal cost "
            f"(TTFT<={ttft_deadline}s, ITL<={itl_deadline}s, "
            f"rate={RATE}/s, prompts<={MAX_PROMPT})"
        ),
        headers=[
            "fleet", "router", "cost_hr", "attainment", "shed",
            "p50_ttft_ms", "p99_ttft_ms", "p99_itl_ms",
        ],
    )
    for fleet_name, presets in FLEETS.items():
        for router in ("fcfs", "slo"):
            result = run_cell(seed, presets, router, control)
            stats = _stats(result, control)
            table.add_row(
                fleet_name, router, fleet_cost(presets),
                stats["attainment"], stats["shed"], stats["p50_ttft_ms"],
                stats["p99_ttft_ms"], stats["p99_itl_ms"],
            )
    table.add_note(
        "all four cells score against the same deadlines; a shed request "
        "counts as a miss, so the SLO router cannot inflate attainment "
        "by refusing work"
    )
    table.add_note(
        "equal spend, different shape: deadline-headroom routing on the "
        "heterogeneous fleet beats FCFS on the homogeneous one"
    )
    return table


def slo_claims(table: FigureTable) -> None:
    headers = list(table.headers)
    cells = {(row[0], row[1]): dict(zip(headers, row)) for row in table.rows}
    assert len(cells) == 4

    # Equal spend everywhere — the comparison is shape, not budget.
    costs = {row["cost_hr"] for row in cells.values()}
    assert costs == {4.0}, costs

    # The headline claim: SLO routing on the heterogeneous fleet beats
    # FCFS on the homogeneous fleet at the same dollar cost.
    hetero_slo = cells[("hetero H100+A100+4xL4", "slo")]
    homo_fcfs = cells[("homo 4xA100", "fcfs")]
    assert hetero_slo["attainment"] > homo_fcfs["attainment"], (
        hetero_slo, homo_fcfs,
    )

    # Within each fleet the SLO router dominates FCFS: deadline-aware
    # placement plus shedding the hopeless tail beats head-blocking.
    for fleet in FLEETS:
        slo, fcfs = cells[(fleet, "slo")], cells[(fleet, "fcfs")]
        assert slo["attainment"] > fcfs["attainment"], fleet
        assert slo["p99_ttft_ms"] < fcfs["p99_ttft_ms"], fleet
        # Only the SLO router sheds; FCFS queues everything forever.
        assert slo["shed"] > 0, fleet
        assert fcfs["shed"] == 0, fleet
