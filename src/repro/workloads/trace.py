"""Request traces: the unit of input to every serving experiment.

Traces serialize to/from JSON (:meth:`Trace.to_json` /
:meth:`Trace.from_json`) so an experiment's exact workload can be archived
next to its results and replayed bit-identically later.

A :class:`Trace` is an ordered list of :class:`RequestSpec` — arrival time,
LoRA model id, prompt length and (oracle) response length. The response
length plays the role of the stopping condition: in simulation mode the
engine "generates" exactly that many tokens; in functional mode the toy
model generates until EOS or this limit, matching the paper's
length-limit stopping rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.utils.rng import spawn_rngs
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.popularity import assign_lora_ids


@dataclass(frozen=True)
class RequestSpec:
    """One request as the workload generator emits it."""

    request_id: str
    lora_id: str
    arrival_time: float
    prompt_len: int
    response_len: int

    def __post_init__(self) -> None:
        # Chained so NaN fails too: every comparison with it is False.
        if not 0 <= self.arrival_time < math.inf:
            raise ValueError(
                f"arrival_time must be finite and >= 0, got {self.arrival_time}"
            )
        if self.prompt_len < 1 or self.response_len < 1:
            raise ValueError("prompt_len and response_len must be >= 1")


@dataclass(frozen=True)
class Trace:
    """An arrival-ordered request trace plus summary accessors."""

    requests: tuple[RequestSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        times = [r.arrival_time for r in self.requests]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace must be sorted by arrival time")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def __getitem__(self, i: int) -> RequestSpec:
        return self.requests[i]

    @property
    def num_lora_models(self) -> int:
        return len({r.lora_id for r in self.requests})

    @property
    def total_prompt_tokens(self) -> int:
        return sum(r.prompt_len for r in self.requests)

    @property
    def total_response_tokens(self) -> int:
        return sum(r.response_len for r in self.requests)

    @property
    def duration(self) -> float:
        return self.requests[-1].arrival_time if self.requests else 0.0

    def lora_ids(self) -> list[str]:
        return sorted({r.lora_id for r in self.requests})

    def with_arrivals_at_zero(self) -> "Trace":
        """All requests arriving at t=0 (the paper's closed-loop Fig 11 setup)."""
        return Trace(tuple(replace(r, arrival_time=0.0) for r in self.requests))

    # -- serialization --------------------------------------------------
    def to_json(self) -> str:
        """Serialize to a JSON document (schema-versioned)."""
        return json.dumps(
            {"schema": 1, "requests": [asdict(r) for r in self.requests]}
        )

    @classmethod
    def from_json(cls, payload: str) -> "Trace":
        """Parse a document produced by :meth:`to_json`."""
        doc = json.loads(payload)
        if not isinstance(doc, dict) or doc.get("schema") != 1:
            raise ValueError("not a version-1 trace document")
        specs = tuple(RequestSpec(**r) for r in doc["requests"])
        return cls(specs)

    def save(self, path) -> None:
        """Write the trace to ``path`` as JSON."""
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_json(fh.read())


def generate_trace(
    n_requests: int,
    distribution: str,
    seed: int | None = 0,
    lengths: ShareGptLengths | None = None,
    arrivals: PoissonArrivals | None = None,
    alpha: float = 1.5,
    model_prefix: str = "lora-",
) -> Trace:
    """Generate a full request trace.

    Without ``arrivals`` all requests arrive at t=0 — the closed-loop
    "serve a fixed backlog FCFS" setup of Fig 11. With an arrival process
    the trace is open-loop (Fig 13). Three independent RNG streams drive
    popularity, lengths and arrivals so that varying one knob leaves the
    other draws unchanged.
    """
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    rng_pop, rng_len, rng_arr = spawn_rngs(seed, 3)
    lengths = lengths or ShareGptLengths()
    lora_ids = assign_lora_ids(
        n_requests, distribution, rng=rng_pop, alpha=alpha, model_prefix=model_prefix
    )
    samples = lengths.sample_batch(n_requests, rng=rng_len)

    if arrivals is None:
        times = np.zeros(n_requests)
    else:
        times = arrivals.sample(rng=rng_arr)
        if len(times) < n_requests:
            # The Poisson draw decides the count in open-loop mode; trim specs.
            n_requests = max(1, len(times))
        times = times[:n_requests]
        lora_ids = lora_ids[:n_requests]
        samples = samples[:n_requests]

    specs = [
        RequestSpec(
            request_id=f"req-{i:05d}",
            lora_id=lora_ids[i],
            arrival_time=float(times[i]),
            prompt_len=samples[i].prompt_len,
            response_len=samples[i].response_len,
        )
        for i in range(len(samples))
    ]
    specs.sort(key=lambda r: r.arrival_time)
    return Trace(tuple(specs))


def open_loop_trace(
    rate: float,
    duration: float,
    distribution: str = "skewed",
    seed: int | None = 0,
    lengths: ShareGptLengths | None = None,
    alpha: float = 1.5,
) -> Trace:
    """Convenience: constant-rate Poisson open-loop trace.

    ``n_requests`` is provisioned at ``rate * duration * 1.5`` so the
    Poisson draw never runs out of specs.
    """
    expect = max(1, int(rate * duration * 1.5) + 8)
    arrivals = PoissonArrivals(rate=constant_rate(rate), duration=duration)
    return generate_trace(
        expect, distribution, seed=seed, lengths=lengths, arrivals=arrivals, alpha=alpha
    )
