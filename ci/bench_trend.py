#!/usr/bin/env python3
"""Bench-trend gate: diff a freshly generated bench_harness snapshot
against the checked-in previous one and fail on a >25% regression in
any kernel's measured speedup over its scalar baseline, or a streaming
feed's splice/pump win over the batch re-run — and outright on any
kernel slower than the scalar code it replaced (speedup < 1.0),
whatever its previous value, on any difference in the planner row's
entry-evaluation counts for a matching (sequences, shards), and on an
adaptive count above the static one. Sections missing from the previous snapshot (older schema) are
skipped, so the gate tightens as the trajectory grows. Set
SAQ_BENCH_ALLOW_REGRESSION=1 to record a known slowdown instead of
failing (e.g. a deliberate trade-off, or a noisy shared runner).

Usage: bench_trend.py <previous.json> <fresh.json>
"""

import json
import os
import sys

TOLERANCE = 0.25


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    prev_path, now_path = sys.argv[1], sys.argv[2]
    with open(prev_path) as f:
        prev = json.load(f)
    with open(now_path) as f:
        now = json.load(f)

    failures = []

    prev_kernels = {k["name"]: k for k in prev.get("kernels", [])}
    for k in now.get("kernels", []):
        if k["speedup"] < 1.0:
            failures.append(
                f"kernel {k['name']}: {k['speedup']:.2f}x is slower than its scalar baseline"
            )
        p = prev_kernels.get(k["name"])
        if p is None:
            continue
        if k["speedup"] < p["speedup"] * (1 - TOLERANCE):
            failures.append(
                f"kernel {k['name']}: speedup {p['speedup']:.2f}x -> {k['speedup']:.2f}x"
            )

    # Entry-evaluation counts are exact for a seed on any machine, so a
    # row of the same size must not differ at all from the checked-in
    # one; and the adaptive pass must never cost more than the static.
    prev_planner = {(p["sequences"], p["shards"]): p for p in prev.get("planner", [])}
    for r in now.get("planner", []):
        size = f"n={r['sequences']}, shards={r['shards']}"
        if r["adaptive_entry_evals"] > r["static_entry_evals"]:
            failures.append(
                f"planner ({size}): adaptive {r['adaptive_entry_evals']} evals"
                f" > static {r['static_entry_evals']}"
            )
        p = prev_planner.get((r["sequences"], r["shards"]))
        if p is None:
            continue
        for metric in ("static_entry_evals", "adaptive_entry_evals"):
            if r[metric] != p[metric]:
                failures.append(f"planner ({size}): {metric} {p[metric]} -> {r[metric]}")

    prev_streaming = {s["name"]: s for s in prev.get("streaming", [])}
    for s in now.get("streaming", []):
        p = prev_streaming.get(s["name"])
        if p is None:
            continue
        for metric in ("splice_speedup", "pump_speedup"):
            if s[metric] < p[metric] * (1 - TOLERANCE):
                failures.append(
                    f"streaming {s['name']}: {metric} {p[metric]:.2f}x -> {s[metric]:.2f}x"
                )

    if failures:
        print(
            f"bench-trend failures (>{TOLERANCE:.0%} vs {prev_path}, a kernel below 1.0x,"
            " or a changed planner count):"
        )
        for f in failures:
            print(f"  {f}")
        if os.environ.get("SAQ_BENCH_ALLOW_REGRESSION") == "1":
            print("SAQ_BENCH_ALLOW_REGRESSION=1 set; recording the regression and continuing")
            return 0
        print("set SAQ_BENCH_ALLOW_REGRESSION=1 to override a known slowdown")
        return 1

    print(f"bench-trend: no regressions vs {prev_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
