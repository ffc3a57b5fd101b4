"""Tests for arrival processes and trace generation."""

import numpy as np
import pytest

from repro.workloads.arrivals import PoissonArrivals, RampProfile, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import RequestSpec, Trace, generate_trace, open_loop_trace


class TestRampProfile:
    def test_triangle_shape(self):
        p = RampProfile(duration=100.0, peak_rate=10.0)
        assert p(0.0) == 0.0
        assert p(50.0) == pytest.approx(10.0)
        assert p(25.0) == pytest.approx(5.0)
        assert p(75.0) == pytest.approx(5.0)
        assert p(100.0) == pytest.approx(0.0)

    def test_trapezoid_hold(self):
        p = RampProfile(duration=100.0, peak_rate=10.0, hold_fraction=0.5)
        assert p(30.0) == pytest.approx(10.0)
        assert p(70.0) == pytest.approx(10.0)
        assert p(12.5) == pytest.approx(5.0)

    def test_outside_window_zero(self):
        p = RampProfile(duration=10.0, peak_rate=1.0)
        assert p(-1.0) == 0.0
        assert p(11.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            RampProfile(duration=0, peak_rate=1)
        with pytest.raises(ValueError):
            RampProfile(duration=1, peak_rate=1, hold_fraction=1.0)


class TestPoissonArrivals:
    def test_sorted_and_bounded(self):
        proc = PoissonArrivals(rate=constant_rate(5.0), duration=100.0)
        t = proc.sample(rng=0)
        assert (np.diff(t) >= 0).all()
        assert (t >= 0).all() and (t < 100.0).all()

    def test_rate_matches_expectation(self):
        proc = PoissonArrivals(rate=constant_rate(10.0), duration=200.0)
        n = len(proc.sample(rng=0))
        assert 1700 < n < 2300  # 2000 +- ~5 sigma

    def test_ramp_concentrates_midway(self):
        proc = PoissonArrivals(rate=RampProfile(100.0, 10.0), duration=100.0)
        t = proc.sample(rng=0)
        mid = np.sum((t > 25) & (t < 75))
        assert mid > 0.6 * len(t)

    def test_zero_rate(self):
        proc = PoissonArrivals(rate=constant_rate(0.0), duration=10.0)
        assert len(proc.sample(rng=0)) == 0

    def test_reproducible(self):
        proc = PoissonArrivals(rate=constant_rate(3.0), duration=50.0)
        np.testing.assert_array_equal(proc.sample(rng=4), proc.sample(rng=4))


class TestTrace:
    def test_generate_closed_loop(self):
        trace = generate_trace(100, "uniform", seed=0)
        assert len(trace) == 100
        assert all(r.arrival_time == 0.0 for r in trace)
        assert trace.num_lora_models == 10

    def test_generate_reproducible(self):
        a = generate_trace(50, "skewed", seed=1)
        b = generate_trace(50, "skewed", seed=1)
        assert a.requests == b.requests

    def test_seed_isolation_between_subsystems(self):
        # Changing distribution must not change the sampled lengths.
        a = generate_trace(50, "uniform", seed=2)
        b = generate_trace(50, "distinct", seed=2)
        assert [(r.prompt_len, r.response_len) for r in a] == [
            (r.prompt_len, r.response_len) for r in b
        ]

    def test_open_loop_sorted(self):
        trace = open_loop_trace(rate=2.0, duration=50.0, seed=0)
        times = [r.arrival_time for r in trace]
        assert times == sorted(times)
        assert len(trace) > 50

    def test_totals(self):
        trace = generate_trace(10, "identical", seed=0)
        assert trace.total_prompt_tokens == sum(r.prompt_len for r in trace)
        assert trace.total_response_tokens == sum(r.response_len for r in trace)

    def test_with_arrivals_at_zero(self):
        trace = open_loop_trace(rate=2.0, duration=10.0, seed=0)
        z = trace.with_arrivals_at_zero()
        assert all(r.arrival_time == 0.0 for r in z)
        assert len(z) == len(trace)

    def test_unsorted_trace_rejected(self):
        r1 = RequestSpec("a", "l", 5.0, 4, 4)
        r2 = RequestSpec("b", "l", 1.0, 4, 4)
        with pytest.raises(ValueError, match="sorted"):
            Trace((r1, r2))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            RequestSpec("a", "l", -1.0, 4, 4)
        with pytest.raises(ValueError):
            RequestSpec("a", "l", 0.0, 0, 4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, bad):
        with pytest.raises(ValueError, match="arrival_time must be finite"):
            RequestSpec("a", "l", bad, 4, 4)

    def test_custom_lengths(self):
        short = ShareGptLengths(max_prompt_len=8, max_response_len=8)
        trace = generate_trace(20, "uniform", seed=0, lengths=short)
        assert all(r.prompt_len <= 8 and r.response_len <= 8 for r in trace)
