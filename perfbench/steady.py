#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report the spread.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads churn-net --seed-base 100

Runs go round-robin over the workloads, reversing the order every round, so
drift on the machine spreads over all of them alike; run i uses seed
seed-base + i.  For every end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the bound in BENCHMARK.json.  A spread above a
third of its bound is marked "wide", above the bound it fails.  setup_s is
timed once per cold process, so its spread is that of one cold set-up: it
is printed and marked "over" when above the bound, but only its median is
held to the bound (by --baseline).  It also checks that the failed share
of operations is the same in every run of a workload.  With --baseline (a
--json file of an earlier set of the same commit) it also prints how much
worse each median got than the baseline's, held to the bound for every
metric, setup_s too.  Exit code 0 when every spread and drift holds.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    steal = re.search(r"host steal ([0-9.]+)%", done.stderr)
    result["steal_pct"] = float(steal.group(1)) if steal else None
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", help="also write every run's result here")
    ap.add_argument("--baseline",
                    help="--json output of an earlier set to compare with")
    args = ap.parse_args()
    baseline = (json.loads(Path(args.baseline).read_text())
                if args.baseline else {})

    results = {w: [] for w in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for w in order:
            r = run_once(w, args.seed_base + i, args.seconds)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"host steal={r['steal_pct']}%",
                  file=sys.stderr, flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))

    ok = True
    for w, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, correct={correct}, "
              f"failed share(s)={sorted(shares)}")
        ok = ok and correct and len(shares) == 1
        steal = [r.get("steal_pct") or 0.0 for r in runs]
        print(f"  host steal per run: {' '.join(f'{x:.1f}%' for x in steal)}")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'worse':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4)
                         if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            worse = None
            if w in baseline:
                base = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in baseline[w])
                change = (med - base) / base if base else 0.0
                worse = -change if m["better"] == "higher" else change
            held = m["name"] != "setup_s"
            mark = ""
            if held and spread > bound:
                mark, ok = "FAIL", False
            elif worse is not None and worse > bound:
                mark, ok = "DRIFT", False
            elif spread > bound:
                mark = "over"
            elif spread > bound / 3:
                mark = "wide"
            print(f"  {m['name']:28} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} "
                  f"{'' if worse is None else f'{worse:+.4f}':>8} "
                  f"{bound:>6} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
