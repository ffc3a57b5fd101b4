"""Materialize runtime requests from a workload trace.

Every run — one GPU or a cluster, simulated or functional — is a
:class:`~repro.cluster.simulator.ClusterSimulator` run; this module only
turns a :class:`~repro.workloads.trace.Trace` into the
:class:`~repro.runtime.request.Request` objects it serves.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.request import Request
from repro.utils.rng import new_rng
from repro.workloads.trace import Trace


def requests_from_trace(
    trace: Trace,
    with_prompt_tokens: bool = False,
    vocab_size: int | None = None,
    seed: "int | np.random.Generator | None" = 0,
) -> list[Request]:
    """Materialize runtime Requests from a workload trace.

    ``with_prompt_tokens=True`` draws random prompt ids (functional mode);
    simulation mode leaves them ``None``.
    """
    rng = new_rng(seed)
    requests = []
    for spec in trace:
        prompt = None
        if with_prompt_tokens:
            if vocab_size is None:
                raise ValueError("vocab_size required when generating prompt tokens")
            prompt = [int(t) for t in rng.integers(0, vocab_size, size=spec.prompt_len)]
        requests.append(Request(spec=spec, prompt_tokens=prompt))
    return requests

