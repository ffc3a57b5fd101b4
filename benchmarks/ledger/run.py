"""Performance ledger: seven workloads, two clocks, layer spans from outside.

Contract form (one workload, last stdout line is one JSON object)::

    python3 benchmarks/ledger/run.py --workload sim_steady --seed 0 \
        --seconds 12 --trace 0

Ledger form (every workload, every metric by name with its unit)::

    python3 benchmarks/ledger/run.py --seed 0 [--traced] [--out ledger.json]
        [--spans-dir DIR]

Metric names, units and directions are read from ``BENCHMARK.json`` at the
repository root; this file decides only how each is measured. ``host_*``
and ``setup_s`` are host time, ``model_*`` / ``slo_*`` simulated time.
Each workload runs in its own fresh worker process, one at a time, with
BLAS pinned to one thread and the program's mode switches unset. A host
time is the median repetition in seconds of the reference host: each
repetition's wall over the host speed measured around it (hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from worker import rep_speeds  # noqa: E402

IMPORT_PROBES = 3
TRACE_UNTRACED_REPS = 3
WORKER_TIMEOUT_S = 170.0

_PROBE = (
    "import time; t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)


class LedgerError(Exception):
    """The benchmark could not produce a trustworthy result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> "dict[str, str]":
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    for name in ("REPRO_FASTPATH", "REPRO_COARSE_DT", "REPRO_PAPER_SCALE"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def probe_import(env) -> float:
    """Cold ``import repro`` in fresh interpreters: the median of several,
    in normalised seconds (calibration bursts bracket the probes)."""
    samples = []
    bursts = [hostspeed.burst()]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=60,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    bursts.append(hostspeed.burst())
    return median(samples) / rep_speeds(bursts)[0]


def _worker_cmd(workload, seed, seconds, scale, reps, traced, spans_out):
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--scale", str(scale),
        "--reps", str(reps), "--traced", str(int(traced)),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    return cmd


def run_worker(env, **kw) -> dict:
    proc = subprocess.run(
        _worker_cmd(**kw), env=env, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise LedgerError(f"worker for {kw['workload']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def normalised_walls(doc: dict) -> "list[float]":
    """Each repetition's wall in seconds of the reference host: the wall
    over the host-speed factor measured around that repetition."""
    return [w / s for w, s in zip(doc["walls"], doc["speeds"])]


def end_to_end(doc: dict, import_s: float) -> "dict[str, float]":
    """The metrics every workload reports, on the host clock: the median
    repetition, in normalised seconds (see hostspeed.py)."""
    summary = doc["summary"]
    states = summary["states"]
    terminal = states["finished"] + states["failed"] + states["cancelled"]
    typical = median(normalised_walls(doc))
    return {
        "setup_s": import_s + median(doc["setup_samples"]) / doc["setup_speed"],
        "host_requests_per_s": terminal / typical,
        "host_tokens_per_s": summary["tokens"] / typical,
        "host_peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer(doc: dict, traced: "dict | None") -> "dict[str, float | None]":
    """Everything else: simulated-clock results, counts read from the
    program's own counters (untraced reps), and layer self times / calls
    from the traced rep. ``None`` = not applicable or not measured."""
    summary = doc["summary"]
    walls = normalised_walls(doc)
    typical = median(walls)
    counts = summary["counts"]
    exact = summary["exact"]
    out: "dict[str, float | None]" = {}
    for key, value in exact.items():
        if key.startswith(("model_", "slo_")):
            out[key] = value
    attempted = summary["attempted"]
    out["failed_share"] = exact.get(
        "failed_share_read_cell",
        (attempted - summary["states"]["finished"]) / attempted,
    )
    steps = counts.pop("steps", None)
    out.update(counts)
    out.update(doc["timed"])
    events = counts.get("cluster.events.processed")
    out["host.events_per_s"] = None if events is None else events / typical
    out["host.us_per_step"] = None if not steps else typical / steps * 1e6
    out["host.rep_spread"] = (typical - min(walls)) / min(walls)
    out["host.speed_factor"] = median(doc["speeds"])
    out["host.raw_wall_s"] = median(doc["walls"])
    if traced is not None:
        trace = traced["trace"]
        for layer, values in trace["layers"].items():
            out[f"{layer}.self_s"] = None if values is None else values["self_s"]
            out[f"{layer}.calls"] = None if values is None else values["calls"]
        for key, value in trace["observed"].items():
            if value is not None or key not in out:
                out[key] = value
        out["trace.overhead_ratio"] = min(normalised_walls(traced)) / typical
    return out


def applicable(spec: dict, name: str, values: dict) -> dict:
    """``values`` restricted to, and completed over, the names of the spec."""
    unknown = sorted(set(values) - {m["name"] for m in spec})
    if unknown:
        raise LedgerError(f"{name}: metrics not in BENCHMARK.json: {unknown}")
    return {m["name"]: values.get(m["name"]) for m in spec}


def measure(workload: str, args, env, spec, import_s: float) -> dict:
    """One workload: untraced reps, optionally one traced rep."""
    common = dict(workload=workload, seed=args.seed, scale=args.scale)
    want_trace = args.trace or args.traced
    reps = args.reps or (TRACE_UNTRACED_REPS if args.trace else 0)
    doc = run_worker(env, seconds=args.seconds, reps=reps, traced=False,
                     spans_out=None, **common)
    problems = list(doc["problems"])
    traced = None
    if want_trace:
        spans_out = None
        if args.spans_dir:
            os.makedirs(args.spans_dir, exist_ok=True)
            spans_out = os.path.join(args.spans_dir, f"{workload}.spans.jsonl")
        traced = run_worker(env, seconds=args.seconds, reps=1, traced=True,
                            spans_out=spans_out, **common)
        problems.extend(traced["problems"])
        trace = traced["trace"]
        for name in trace["missing"]:
            print(f"warning: {workload}: boundary target missing: {name}",
                  file=sys.stderr)
        for layer in trace["silent_layers"]:
            problems.append(
                f"layer {layer} exists but no hook fired; the table says "
                f"{workload} exercises it"
            )
        if (traced["summary"]["exact"].get("checksum")
                != doc["summary"]["exact"].get("checksum")):
            problems.append("the traced rep produced different results")
    summary = doc["summary"]
    unexpected = (summary["attempted"] - summary["states"]["finished"]
                  - summary.get("allowed_failed", 0))
    return {
        "workload": workload,
        "reps": len(doc["walls"]),
        "walls": doc["walls"],
        "speeds": doc["speeds"],
        "attempted": summary["attempted"] * len(doc["walls"]),
        "failed": unexpected * len(doc["walls"]),
        "problems": problems,
        "end_to_end": applicable(
            spec["end_to_end"], workload, end_to_end(doc, import_s)),
        "per_layer": applicable(
            spec["per_layer"], workload, per_layer(doc, traced)),
        "silent_hooks": traced["trace"]["silent_hooks"] if traced else [],
        "traced_wall_s": traced["walls"][0] if traced else None,
        "attainment_by_rate": summary["exact"].get("attainment_by_rate"),
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def contract_line(result: dict, spec: dict, trace: bool) -> str:
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    correct = not result["problems"] and result["failed"] == 0
    metrics = {}
    if correct:
        for name, value in result[section].items():
            # The contract wants a number for every name: 0 stands for
            # "not applicable to this workload" (README, "n/a").
            metrics[name] = {"value": 0.0 if value is None else value,
                             "unit": units[name]}
    return json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


def print_table(result: dict, spec: dict) -> None:
    print(f"\n== {result['workload']}  ({result['reps']} reps, "
          f"{result['attempted']} requests attempted, {result['failed']} failed)")
    for section in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in spec[section]}
        for name, value in result[section].items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<48} {shown:>14} {units[name]}")
    if result["attainment_by_rate"]:
        print(f"  slo_attainment by rate: {result['attainment_by_rate']}")
    print("  (core.sgmv.flop_per_call / bytes_per_call are computed from "
          "tensor shapes, not measured)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", default=None,
                        help="run only this workload (repeatable); with exactly "
                             "one, the last stdout line is the contract JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract form: 1 = report the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="ledger form: add one traced rep per workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload's per-rep size (smoke tests)")
    parser.add_argument("--reps", type=int, default=0,
                        help="fixed repetitions instead of a time budget")
    parser.add_argument("--out", default=None,
                        help="write every result here as JSON (compare.py's input)")
    parser.add_argument("--spans-dir", default=None,
                        help="traced reps also write their spans here, one JSONL "
                             "per workload (tens of MB each; the write-back "
                             "disturbs whatever is measured next)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    selected = args.workload or names
    unknown = [w for w in selected if w not in names]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {names}", file=sys.stderr)
        return 2
    contract = args.workload is not None and len(selected) == 1

    env = worker_env()
    results = []
    try:
        import_s = probe_import(env)
        for workload in selected:
            results.append(measure(workload, args, env, spec, import_s))
    except (LedgerError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    bad = False
    for result in results:
        for problem in result["problems"]:
            print(f"FAILED CHECK: {result['workload']}: {problem}", file=sys.stderr)
        if result["failed"]:
            print(f"FAILED CHECK: {result['workload']}: {result['failed']} "
                  f"requests did not finish", file=sys.stderr)
        bad = bad or bool(result["problems"]) or bool(result["failed"])
    if args.out and not bad:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "scale": args.scale,
                       "workloads": {r["workload"]: r for r in results}}, fh, indent=1)
    if contract:
        print(contract_line(results[0], spec, bool(args.trace)))
    elif not bad:
        for result in results:
            print_table(result, spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
