#!/usr/bin/env python3
"""Alternating parent/change pairs for a performance claim.

Builds `benchmark/` at two revisions, each from a `git archive` export in
its own scratch directory (offline cargo, no worktree left behind), then
runs the benchmark's driver form

    saq-benchmark --workload W --seed K --seconds S --trace 0

alternately: pair i runs the base first when i is even and the change
first when it is odd, so drift on the machine falls on both sides. Each
run's last output line is its JSON result.

For every workload and every end-to-end metric of BENCHMARK.json it
prints both medians and IQRs, the pairs the change won, and a verdict
against the metric's bound:

  improved     the change won at least 9 of 10 pairs and its median
               beats the base's by more than the base's IQR
  worse        the median moved the wrong way by more than the bound
  unresolved   the spread (the wider IQR, relative to the base median)
               exceeds the bound and the two sides' runs overlap
  flat         anything else

It exits 1 when any run reports `correct: false` or a failed operation,
and 2 on a usage or build error. `--replay FILE` skips building and
running and reads the runs from a JSON file instead (a list of
`{"workload", "pair", "side", "result"}` records, `side` being "base"
or "change"); CI checks the statistics that way, over canned fixtures.

Usage:
  ci/ab.py <base-rev> <change-rev> [--workload W]... [--pairs N]
           [--seconds S] [--seed K] [--scratch DIR] [--save FILE]
  ci/ab.py --replay FILE

A revision is anything `git archive` accepts. To measure uncommitted
work, stage it and pass the commit `git stash create` prints.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo, hi = math.floor(pos), math.ceil(pos)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def verdict(base, change, bound, better):
    """Compares paired samples of one metric; returns a summary dict.

    `base[i]` and `change[i]` ran as pair i. `better` is "lower" or
    "higher"; `bound` is the allowed relative move from BENCHMARK.json.
    """
    sign = -1.0 if better == "lower" else 1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    scale = abs(bmed) if bmed else 1.0
    gain = sign * (cmed - bmed) / scale
    spread = max(bq3 - bq1, cq3 - cq1) / scale
    separated = min(sign * c for c in change) > max(sign * b for b in base) or max(
        sign * c for c in change
    ) < min(sign * b for b in base)
    if spread > bound and not separated:
        outcome = "unresolved"
    elif gain < -bound:
        outcome = "worse"
    elif won >= math.ceil(0.9 * len(base)) and sign * (cmed - bmed) > bq3 - bq1:
        outcome = "improved"
    else:
        outcome = "flat"
    return {
        "base_median": bmed,
        "base_iqr": bq3 - bq1,
        "change_median": cmed,
        "change_iqr": cq3 - cq1,
        "won": won,
        "pairs": len(base),
        "gain": gain,
        "verdict": outcome,
    }


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("the run printed no JSON line")


def build(rev, scratch):
    """Exports `rev` and builds its benchmark; returns the export's root."""
    tree = os.path.join(scratch, rev.replace("/", "_"))
    os.makedirs(tree, exist_ok=True)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(tree, "benchmark", "Cargo.toml")],
        check=True,
    )
    return tree


def run_once(tree, workload, seed, seconds):
    """One driver-form run from the export's root; returns its JSON result."""
    binary = os.path.join(tree, "benchmark", "target", "release", "saq-benchmark")
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--out", os.path.join(tree, "ab-out")],
        capture_output=True, text=True, cwd=tree,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} failed:\n{done.stderr}")
    return last_json_line(done.stdout)


def collect(args):
    scratch = args.scratch or tempfile.mkdtemp(prefix="ab-")
    trees = {"base": build(args.base, scratch), "change": build(args.change, scratch)}
    records = []
    for workload in args.workload:
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for side in order:
                result = run_once(trees[side], workload, args.seed, args.seconds)
                records.append({"workload": workload, "pair": pair, "side": side,
                                "result": result})
                print(f"{workload} pair {pair} {side}: done", file=sys.stderr)
    return records


def report(records, metrics):
    """Prints the table; returns (failed runs, verdict rows)."""
    failures = []
    for r in records:
        res = r["result"]
        if not res.get("correct", False) or res.get("failed", 0):
            failures.append(f"{r['workload']} pair {r['pair']} {r['side']}: "
                            f"correct={res.get('correct')} failed={res.get('failed')}")
    rows = []
    for workload in sorted({r["workload"] for r in records}):
        runs = {}
        for r in records:
            if r["workload"] == workload:
                runs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in sorted(runs) if len(runs[p]) == 2]
        print(f"\n{workload} ({len(pairs)} pairs)")
        print(f"{'metric':<26} {'base median':>12} {'IQR':>9} {'change median':>14} "
              f"{'IQR':>9} {'won':>6} {'move':>8}  verdict (bound)")
        for m in metrics:
            name = m["name"]
            if not all(name in runs[p]["base"] and name in runs[p]["change"] for p in pairs):
                continue
            base = [runs[p]["base"][name]["value"] for p in pairs]
            change = [runs[p]["change"][name]["value"] for p in pairs]
            v = verdict(base, change, m["bound"], m["better"])
            rows.append((workload, name, v))
            print(f"{name:<26} {v['base_median']:>12.4g} {v['base_iqr']:>9.3g} "
                  f"{v['change_median']:>14.4g} {v['change_iqr']:>9.3g} "
                  f"{v['won']:>3}/{v['pairs']:<2} {v['gain']:>+7.1%}  "
                  f"{v['verdict']} ({m['bound']:.0%})")
    return failures, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scratch")
    parser.add_argument("--save", help="write the runs as a replayable JSON file")
    parser.add_argument("--replay")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.replay:
        with open(args.replay) as f:
            records = json.load(f)
    else:
        if not (args.base and args.change) or args.pairs < 1:
            parser.print_usage(sys.stderr)
            return 2
        args.workload = args.workload or [w["name"] for w in bench["workloads"]]
        try:
            records = collect(args)
        except (subprocess.CalledProcessError, RuntimeError, ValueError) as e:
            print(f"ab.py: {e}", file=sys.stderr)
            return 2
        if args.save:
            with open(args.save, "w") as f:
                json.dump(records, f)
    failures, _ = report(records, bench["end_to_end"])
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
