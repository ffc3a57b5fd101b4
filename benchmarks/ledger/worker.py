"""One workload in one fresh interpreter; prints one JSON document.

``run.py`` starts this file once per workload (and once more for the
traced repetition) with thread pools pinned to one thread and the
program's mode switches unset. Diagnostics go to stderr; the last line of
stdout is the result.

A burst of the calibration kernel (``hostspeed.py``) runs before every
repetition and after the last, so ``run.py`` can state each host time in
seconds of the reference host.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time

import hostspeed

SETUP_SAMPLES = 5
MIN_REPS = 5


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def terminal_problem(summary: dict) -> "str | None":
    """Every attempted request must have reached exactly one terminal state."""
    states = summary["states"]
    terminal = states["finished"] + states["failed"] + states["cancelled"]
    if terminal != summary["attempted"]:
        return (f"{summary['attempted'] - terminal} of {summary['attempted']} "
                f"requests reached no terminal state")
    return None


def agreement_problem(first: dict, summary: dict, rep: int) -> "str | None":
    """Reps share inputs, so simulated results and checksums must repeat
    exactly (a free determinism check)."""
    if summary["exact"] != first["exact"]:
        keys = sorted(k for k in first["exact"]
                      if summary["exact"].get(k) != first["exact"][k])
        return f"rep {rep} disagrees with rep 0 on {keys}"
    return None


def enough_reps(walls, t_start: float, seconds: float, reps: int,
                traced: bool) -> bool:
    """One traced rep; else a fixed count; else until the time budget is
    used, never fewer than ``MIN_REPS``."""
    if traced:
        return True
    if reps:
        return len(walls) >= reps
    elapsed = time.perf_counter() - t_start
    return len(walls) >= MIN_REPS and elapsed + min(walls) > seconds


def rep_speeds(bursts) -> "list[float]":
    """The host-speed factor of each repetition, from the calibration
    bursts on both sides of it (``len(bursts)`` == repetitions + 1)."""
    return [hostspeed.factor(before + after)
            for before, after in zip(bursts, bursts[1:])]


class Observed:
    """Counts the program keeps nowhere, taken at boundary hooks."""

    def __init__(self):
        self.sgmv_calls = 0
        self.sgmv_segments = 0
        self.sgmv_flop = 0.0
        self.sgmv_bytes = 0.0
        self.peak_used_share = 0.0
        self.estimates = 0

    def sgmv(self, args, kwargs, result) -> None:
        out, x, weights = args[0], args[1], args[2]
        self.sgmv_calls += 1
        self.sgmv_segments += weights.shape[0]
        # Each row multiplies one (h_in, h_out) matrix: shapes, not counters.
        self.sgmv_flop += 2.0 * x.shape[0] * weights.shape[1] * weights.shape[2]
        self.sgmv_bytes += x.nbytes + weights.nbytes + 2 * out.nbytes

    def pages(self, args, kwargs, result) -> None:
        allocator = args[0]
        share = allocator.used_pages / allocator.total_pages
        if share > self.peak_used_share:
            self.peak_used_share = share

    def estimate(self, args, kwargs, result) -> None:
        self.estimates += 1

    def observers(self) -> dict:
        grow = ("allocate", "append", "append_token", "append_tokens",
                "append_tokens_run", "import_sequence")
        table = {
            "core.sgmv:sgmv_shrink": self.sgmv,
            "core.sgmv:sgmv_expand": self.sgmv,
            "cluster.control.costmodel:FleetCostModel.estimate": self.estimate,
        }
        for name in grow:
            table[f"kvcache.page:PageAllocator.{name}"] = self.pages
        return table

    def counts(self, arrivals: int) -> dict:
        calls = self.sgmv_calls
        return {
            "core.sgmv.segments_per_call": self.sgmv_segments / calls if calls else None,
            "core.sgmv.flop_per_call": self.sgmv_flop / calls if calls else None,
            "core.sgmv.bytes_per_call": self.sgmv_bytes / calls if calls else None,
            "kvcache.page.peak_used_share": self.peak_used_share,
            "cluster.control.costmodel.estimates_per_arrival":
                self.estimates / arrivals if self.estimates and arrivals else None,
        }


def _install(traced: bool):
    """Hooks go in before any object of the program is built."""
    if not traced:
        return None, None
    import boundaries

    observed = Observed()
    return boundaries.install(observers=observed.observers()), observed


def _recording(installed):
    return installed.recorder.recording() if installed else contextlib.nullcontext()


def _trace_report(installed, observed, workload: str, arrivals: int,
                  spans_out: "str | None") -> dict:
    rec = installed.recorder
    if spans_out:
        rec.write_jsonl(spans_out, workload, "traced")
    present = installed.present_layers()
    layers = {
        name: (values if name in present else None)
        for name, values in rec.summary().items()
    }
    return {
        "layers": layers,
        "missing": installed.missing,
        "silent_layers": installed.silent_layers(workload),
        "silent_hooks": installed.silent_hooks(),
        "observed": observed.counts(arrivals),
    }


# ---------------------------------------------------------------------------
def run_batch(args) -> dict:
    installed, observed = _install(args.traced)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    problems: "list[str]" = []

    # Set-up, several times: input generation + stack construction.
    setup_samples = []
    inputs = None
    setup_bursts = [hostspeed.burst()]
    for _ in range(1 if args.traced else SETUP_SAMPLES):
        gc.collect()
        with _recording(installed):
            t0 = time.perf_counter()
            inputs = wl.generate(args.seed, args.scale)
            wl.build(inputs)
            setup_samples.append(time.perf_counter() - t0)
    setup_bursts.append(hostspeed.burst())

    if not args.traced:
        problems.extend(wl.check(inputs))

    walls = []
    bursts = []
    timed = []
    first = None
    t_start = time.perf_counter()
    while not walls or not enough_reps(
        walls, t_start, args.seconds, args.reps, args.traced
    ):
        gc.collect()
        bursts.append(hostspeed.burst())
        with _recording(installed):
            stack = wl.build(inputs)
            t0 = time.perf_counter()
            raw = wl.run(stack, inputs)
            walls.append(time.perf_counter() - t0)
        summary = wl.summarize(stack, inputs, raw)
        problems.extend(summary.get("problems", ()))
        timed.append(summary.get("timed", {}))
        if first is None:
            first = summary
        else:
            problems.append(agreement_problem(first, summary, len(walls) - 1))
        del stack, raw
    bursts.append(hostspeed.burst())

    problems.append(terminal_problem(first))
    doc = {
        "setup_samples": setup_samples,
        "setup_speed": rep_speeds(setup_bursts)[0],
        "walls": walls, "speeds": rep_speeds(bursts),
        "timed": {key: statistics.median(t[key] for t in timed)
                  for key in timed[0]},
        "peak_rss_mb": _peak_rss_mb(),
        "summary": first, "problems": [p for p in problems if p],
    }
    if installed:
        doc["trace"] = _trace_report(
            installed, observed, args.workload, first["attempted"],
            args.spans_out,
        )
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--reps", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    doc = run_batch(args)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
