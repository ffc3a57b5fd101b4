"""Compare two ledger files: ``python compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate; both come from
``run.py --out``. One row per (metric, workload) with base, new, ratio,
bound and a verdict:

``ok``          not worse than the base by more than the bound
``regressed``   worse by more than the bound
``unresolved``  a host-timed metric whose ``host.rep_spread`` on either
                side is wider than its bound: the runs cannot tell

The end-to-end bounds come from ``BENCHMARK.json``. The metrics the
ISSUE gates but the driver's contract cannot carry as end-to-end (they do
not exist on every workload) are gated here with the ISSUE's bounds.
``sim-identical`` says whether every ``model_*`` / ``slo_*`` value is
bit-for-bit equal: a host-speed change must keep it ``yes``.

Exit status 1 if any row regressed.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# name -> (bound, "rel" | "abs"); the ISSUE's table.
LEDGER_BOUNDS = {
    "failed_share": (0.005, "abs"),
    "model_tokens_per_s": (0.005, "rel"),
    "model_ttft_p50_ms": (0.005, "rel"),
    "model_ttft_p99_ms": (0.005, "rel"),
    "model_itl_p50_ms": (0.005, "rel"),
    "model_itl_p99_ms": (0.005, "rel"),
    "slo_attainment": (0.005, "rel"),
    "slo_max_rate_rps": (0.0, "rel"),
    "ttfb_p50_ms": (0.15, "rel"),
    "ttfb_p90_ms": (0.15, "rel"),
}
HOST_TIMED = ("host_requests_per_s", "host_tokens_per_s", "ttfb_p50_ms", "ttfb_p90_ms")
SIMULATED = ("model_", "slo_")


def worse_by(base: float, new: float, better: str, kind: str) -> float:
    """How much worse ``new`` is than ``base`` (negative = better)."""
    delta = base - new if better == "higher" else new - base
    if kind == "abs":
        return delta
    return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))


def compare(a: dict, b: dict, spec: dict) -> "tuple[list[dict], bool]":
    gated = {m["name"]: (m["bound"], "rel", m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    for name, (bound, kind) in LEDGER_BOUNDS.items():
        gated[name] = (bound, kind, better[name])
    rows = []
    identical = True
    for workload, base_run in a["workloads"].items():
        new_run = b["workloads"].get(workload)
        if new_run is None:
            continue
        base_vals = {**base_run["end_to_end"], **base_run["per_layer"]}
        new_vals = {**new_run["end_to_end"], **new_run["per_layer"]}
        spread = max(
            base_vals.get("host.rep_spread") or 0.0,
            new_vals.get("host.rep_spread") or 0.0,
        )
        for name, base in base_vals.items():
            new = new_vals.get(name)
            if name.startswith(SIMULATED) and base != new:
                identical = False
            if name not in gated or base is None:
                continue
            bound, kind, direction = gated[name]
            if new is None:
                verdict, ratio = "regressed", None
            else:
                ratio = new / base if base else None
                if name in HOST_TIMED and spread > bound:
                    verdict = "unresolved"
                elif worse_by(base, new, direction, kind) > bound:
                    verdict = "regressed"
                else:
                    verdict = "ok"
            rows.append({
                "metric": name, "workload": workload, "base": base, "new": new,
                "ratio": ratio, "bound": bound, "kind": kind, "verdict": verdict,
            })
    return rows, identical


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows, identical = compare(a, b, spec)
    print(f"{'metric':<24}{'workload':<20}{'base':>14}{'new':>14}"
          f"{'ratio':>9}{'bound':>10}  verdict")
    for row in rows:
        new = "n/a" if row["new"] is None else f"{row['new']:.6g}"
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4f}"
        bound = f"{row['bound']:g}{'' if row['kind'] == 'rel' else ' abs'}"
        print(f"{row['metric']:<24}{row['workload']:<20}{row['base']:>14.6g}"
              f"{new:>14}{ratio:>9}{bound:>10}  {row['verdict']}")
    print(f"sim-identical: {'yes' if identical else 'no'}")
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in ("ok", "regressed", "unresolved")}
    print(f"rows: {len(rows)}  ok: {counts['ok']}  regressed: "
          f"{counts['regressed']}  unresolved: {counts['unresolved']}")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
