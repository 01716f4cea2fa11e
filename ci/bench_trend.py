#!/usr/bin/env python3
"""Bench-trend gate: diff a freshly generated bench_harness snapshot
against the checked-in previous one and fail on a >25% regression in
any kernel's measured speedup over its scalar baseline, or a streaming
feed's splice/pump win over the batch re-run — and outright on any
kernel slower than the scalar code it replaced (speedup < 1.0),
whatever its previous value, and on any kernel or streaming row of the
previous snapshot that the fresh one no longer has. Sections missing
from the previous snapshot (older schema) are skipped, so the gate
tightens as the trajectory grows. Set
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

    # A row that vanished would otherwise pass unseen: the loops above
    # only walk the fresh snapshot.
    for section in ("kernels", "streaming"):
        fresh = {row["name"] for row in now.get(section, [])}
        for row in prev.get(section, []):
            if row["name"] not in fresh:
                failures.append(f"{section} row {row['name']} is missing from {now_path}")

    if failures:
        print(
            f"bench-trend failures (>{TOLERANCE:.0%} vs {prev_path}, a kernel below 1.0x,"
            " or a missing row):"
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
