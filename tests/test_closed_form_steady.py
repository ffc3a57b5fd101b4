"""One GPU under continuous batching settles where the closed form says.

Fed Poisson arrivals at rate λ with prompt P and response R, a GPU's
decode batch settles where Little's law meets the step price:
B = λ·(R − 1)·τ(B), with τ(B) the price of one pure decode step of B
requests at their mean KV length, ``pricer.step_seconds((), B, B·(P +
R/2), segments)``, interpolated linearly between integer B. Its capacity
is λ_max = 32 / ((R − 1)·τ(32)) at the batch cap of 32 (paper §5). Past
the warm-up, mean ITL must sit within 3 % of τ(B*): the residual is the
prefill each arrival adds to one step. Over the same stretch of arrivals
the time-mean batch must sit within 3 % of B* too. When either fails, the
simulator and the pricer disagree.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bench.fig13_cluster import build_cluster
from repro.hw.spec import A100_40G, HwSpec
from repro.workloads.trace import RequestSpec, Trace

P, R, N = 128, 256, 3_000
MAX_BATCH = 32
WARMUP = N // 5
TOLERANCE = 0.03

GPUS = {"a100-40g": A100_40G, "h100": HwSpec.preset("h100"), "l4": HwSpec.preset("l4")}


def _step_price(pricer, adapters: int):
    """τ(B): one adapter is one segment of B, 64 put each request on its own."""

    def at(b: int) -> float:
        segments = (b,) if adapters == 1 else None
        return pricer.step_seconds((), b, b * (P + R // 2), segments)

    def tau(batch: float) -> float:
        lo = math.floor(batch)
        frac = batch - lo
        return at(lo) if frac == 0 else (1 - frac) * at(lo) + frac * at(lo + 1)

    return at, tau


def _fixed_point(rate: float, tau) -> float:
    """The B in [1, 32] where B = λ·(R − 1)·τ(B), by bisection."""
    lo, hi = 1.0, float(MAX_BATCH)
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid < rate * (R - 1) * tau(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _time_mean_batch(metrics, gpu: str, lo: float, hi: float) -> float:
    """The batch averaged over [lo, hi]: steps wholly inside it, each
    weighted by its length, idle time counted as batch 0."""
    spans, sizes = metrics.gpu_step_spans[gpu], metrics.gpu_batch_size[gpu]
    starts, ends = spans.times, spans.values
    inside = (starts >= lo) & (ends <= hi)
    busy = float(np.dot(sizes.values[inside], (ends - starts)[inside]))
    return busy / (hi - lo)


def _poisson_trace(rate: float, adapters: int) -> Trace:
    arrivals = np.cumsum(np.random.default_rng(0).exponential(1 / rate, N))
    return Trace(tuple(
        RequestSpec(f"r{i:05d}", f"lora-{i % adapters}", float(t), P, R)
        for i, t in enumerate(arrivals)
    ))


CELLS = [
    (gpu, adapters, load, None)
    for gpu in GPUS
    for adapters in (1, 64)
    for load in (0.3, 0.75)
] + [("a100-40g", adapters, 0.75, False) for adapters in (1, 64)]


@pytest.mark.slow
@pytest.mark.parametrize(
    "gpu,adapters,load,fast_path",
    CELLS,
    ids=[
        f"{g}-{a}ad-{l}-{'ref' if fp is False else 'fast'}"
        for g, a, l, fp in CELLS
    ],
)
def test_mean_itl_meets_the_fixed_point(gpu, adapters, load, fast_path):
    sim = build_cluster(1, gpu=GPUS[gpu], max_batch_size=MAX_BATCH,
                        fast_path=fast_path)
    (engine,) = sim.scheduler.engines.values()
    at, tau = _step_price(engine.backend.pricer, adapters)
    capacity = MAX_BATCH / ((R - 1) * at(MAX_BATCH))
    rate = load * capacity
    batch = _fixed_point(rate, tau)

    result = sim.run(_poisson_trace(rate, adapters))

    measured = sorted(result.requests, key=lambda r: r.spec.arrival_time)[WARMUP:]
    assert all(r.num_generated == R for r in measured)
    itl = float(np.mean(
        [(r.finish_time - r.first_token_time) / (R - 1) for r in measured]
    ))
    predicted = tau(batch)
    # The window: from the first measured arrival to the last arrival.
    window = (measured[0].spec.arrival_time, measured[-1].spec.arrival_time)
    mean_batch = _time_mean_batch(result.metrics, engine.gpu_id, *window)
    cell = (
        f"{gpu}, {adapters} adapter(s), λ = {rate:.3f} req/s "
        f"(λ_max {capacity:.3f}): B* = {batch:.2f}, τ(B*) = "
        f"{predicted * 1e3:.3f} ms"
    )
    assert abs(itl / predicted - 1) <= TOLERANCE, (
        f"{cell}, simulated mean ITL = {itl * 1e3:.3f} ms "
        f"(ratio {itl / predicted:.4f})"
    )
    assert abs(mean_batch / batch - 1) <= TOLERANCE, (
        f"{cell}, simulated time-mean batch = {mean_batch:.2f} "
        f"(ratio {mean_batch / batch:.4f})"
    )
