"""SLO outcome scoring, plus the SLO-controlled simulator constructor.

The control plane forks none of the discrete-event machinery: a
:class:`~repro.cluster.simulator.ClusterSimulator` built with
``control=ControlConfig(...)`` routes through an
:class:`~repro.cluster.control.router.SloRouter` and scores SLO outcomes
with :func:`score_requests` at run end. Run-end scoring is deliberate:
per-step bookkeeping would disarm the gen-2 vector decode lane, and the
attainment verdict only needs terminal timestamps anyway.
"""

from __future__ import annotations

from repro.cluster.control.config import ControlConfig
from repro.runtime.latency import breakdown_of
from repro.runtime.request import Request, RequestState


def SloClusterSimulator(engines: "list", control: "ControlConfig | None" = None, **kwargs):
    """A colocated ``ClusterSimulator`` under SLO-aware control — the
    composed constructor under the name the performance ledger imports."""
    from repro.cluster.simulator import ClusterSimulator

    return ClusterSimulator(engines, control=control or ControlConfig(), **kwargs)


# ---------------------------------------------------------------------------
# Outcome scoring (docs/slo.md deadline semantics)
# ---------------------------------------------------------------------------
def score_requests(
    requests: "list[Request]", control: ControlConfig, duration: float
) -> "list[tuple[float, bool]]":
    """Per-request SLO verdicts as (terminal time, attained) pairs.

    A FINISHED request attains when its :func:`breakdown_of` TTFT met
    the tenant deadline and its mean decode ITL met the per-token
    deadline; FAILED (shed) and still-live requests are misses, stamped
    at run end. CANCELLED requests are excluded — a user disconnect is
    not an operator miss. Output is time-sorted so it can feed a
    monotone series directly.
    """
    scored: "list[tuple[float, bool]]" = []
    for r in requests:
        if r.state is RequestState.CANCELLED:
            continue
        if r.state is RequestState.FINISHED:
            b = breakdown_of(r)
            policy = control.policy_for(r.lora_id)
            scored.append((
                r.finish_time,
                b.time_to_first_token <= policy.ttft_deadline
                and b.inter_token_time <= policy.itl_deadline,
            ))
        else:
            scored.append((duration, False))
    scored.sort(key=lambda e: e[0])
    return scored


def slo_attainment(
    requests: "list[Request]", control: ControlConfig, duration: float
) -> float:
    """Fraction of scored requests meeting both deadlines — usable on any
    run's request list, which is how the ablation scores FCFS baselines
    against the same policies."""
    scored = score_requests(requests, control, duration)
    if not scored:
        return 0.0
    return sum(1 for _, ok in scored if ok) / len(scored)
