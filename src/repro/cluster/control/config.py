"""Deadline policies and control-plane knobs.

Deadline semantics (docs/slo.md): a request attains its SLO when

* **TTFT** — its first token lands within ``ttft_deadline`` seconds of
  its arrival (queue wait, adapter load, prefill and any KV handoff all
  count), and
* **ITL** — its mean inter-token latency over the decode phase stays at
  or under ``itl_deadline`` seconds per token.

Policies attach per tenant (= LoRA adapter id, the multi-tenancy unit of
the paper); ``default_policy`` covers everyone else. Requests themselves
stay policy-free — :class:`~repro.runtime.request.RequestSpec` is part of
the frozen trace contract, and the deadline is the *tenant's* contract
with the operator, not a per-message field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping


@dataclass(frozen=True)
class SloPolicy:
    """One tenant's latency contract."""

    ttft_deadline: float = 1.0
    """Seconds from arrival to the first generated token."""
    itl_deadline: float = 0.050
    """Seconds per token over the decode phase (mean)."""

    def __post_init__(self) -> None:
        if self.ttft_deadline <= 0:
            raise ValueError(
                f"ttft_deadline must be positive, got {self.ttft_deadline}"
            )
        if self.itl_deadline <= 0:
            raise ValueError(
                f"itl_deadline must be positive, got {self.itl_deadline}"
            )


@dataclass(frozen=True)
class ControlConfig:
    """Control-plane configuration shared by router and autoscaler."""

    default_policy: SloPolicy = field(default_factory=SloPolicy)
    per_tenant: "Mapping[str, SloPolicy]" = field(default_factory=dict)
    """Overrides keyed by LoRA adapter id."""

    def policy_for(self, lora_id: str) -> SloPolicy:
        return self.per_tenant.get(lora_id, self.default_policy)
