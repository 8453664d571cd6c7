#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its bounds.

Runs each workload once per seed, untraced, from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 [--workload mesh-dense ...]
                                [--seconds N] [--out runs.json]

For every end-to-end metric it prints the median over the seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound in BENCHMARK.json is flagged; the
spread of setup_s is only reported. With --compare runs.json it also
prints how far each median moved from a saved set of runs and flags a
move beyond the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"] if len(lines) > 1 else {}
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output: {record.get('problems')}")
    return {"seed": seed, "steal": record.get("steal_share"),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for w in workloads:
        runs[w] = [run_once(bench["command"], w, s, args.seconds)
                   for s in parse_seeds(args.seeds)]
        print(f"{w}: steal shares {[round(r['steal'] or 0, 3) for r in runs[w]]}")
    base = json.load(open(args.compare)) if args.compare else {}
    ok = True
    print(f"{'workload':14} {'metric':22} {'median':>14} {'spread':>8} {'bound':>6} {'moved':>8}")
    for w, rs in runs.items():
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in rs]
            med = statistics.median(vals)
            sp = spread(vals) if len(vals) >= 2 else 0.0
            flag = ""
            if name != "setup_s" and sp > bound / 3:
                flag, ok = " SPREAD", False
            moved = ""
            if w in base:
                old = statistics.median(r["metrics"][name] for r in base[w])
                rel = (med - old) / old
                moved = f"{rel:+.3f}"
                if abs(rel) > bound:
                    flag, ok = flag + " MOVED", False
            print(f"{w:14} {name:22} {med:14.6g} {sp:8.4f} {bound:6.2f} {moved:>8}{flag}")
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
