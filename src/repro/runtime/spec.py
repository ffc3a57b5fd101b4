"""Speculative decoding configuration (MagicDec-style draft/verify lane).

One :class:`SpecConfig` on :class:`~repro.runtime.engine.EngineConfig`
arms the engine's speculative lane: every all-decode step becomes one
*round* — the draft model proposes ``draft_len`` tokens per request, the
target model verifies the whole chunk in a single invocation, and each
request commits between 1 (draft rejected immediately; the target's own
correction token still lands) and ``draft_len + 1`` (every draft accepted
plus the bonus token) tokens. Rejected draft tokens roll their reserved
KV slots back exactly (docs/speculative.md).

Both backends price a round through their step pricer
(:func:`repro.models.perf.spec_round_latency`) but draft differently:

* the simulated backend draws per-request acceptance counts from a
  geometric model at ``acceptance_rate``;
* the functional NumPy backend ignores ``acceptance_rate`` and runs a
  *real* truncated-layer draft model plus sequential argmax
  verification, so speculative output is token-identical to greedy
  non-speculative decoding (tests/test_spec_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpecConfig:
    """Parameters of the speculative draft/verify lane."""

    draft_len: int = 4
    """Tokens the draft model proposes per round (the paper literature's
    gamma)."""
    acceptance_rate: float = 0.8
    """Per-token probability a draft token survives verification — used
    only by the simulated backend's geometric acceptance model."""
    seed: int = 0
    """Seed of the engine's acceptance RNG (simulated backend); combined
    with the gpu_id so engines draw independent streams."""
    draft_cost_ratio: float = 0.25
    """Draft-model decode-step cost as a fraction of a target decode
    step (simulated backend pricing)."""
    draft_layers: int | None = None
    """Functional backend: layers of the truncated draft model (default
    ``max(1, num_layers // 2)``)."""

    def __post_init__(self) -> None:
        if self.draft_len < 1:
            raise ValueError(
                f"draft_len must be >= 1 (0 would make every round verify "
                f"nothing), got {self.draft_len}"
            )
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError(
                f"acceptance_rate must be within [0, 1], got "
                f"{self.acceptance_rate}"
            )
        if not 0.0 < self.draft_cost_ratio <= 1.0:
            raise ValueError(
                f"draft_cost_ratio must be within (0, 1] (a draft step "
                f"cannot be free or dearer than the target's), got "
                f"{self.draft_cost_ratio}"
            )
        if self.draft_layers is not None and self.draft_layers < 1:
            raise ValueError(
                f"draft_layers must be >= 1 when set, got {self.draft_layers}"
            )

    @property
    def max_tokens_per_round(self) -> int:
        """Most tokens one request can commit in a round (all accepted
        plus the bonus token)."""
        return self.draft_len + 1
