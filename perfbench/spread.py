#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...]
                                [--seconds S] [--trace 0|1] [--out FILE]
                                [--baseline FILE]

For every workload and end-to-end metric it prints the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread at or below a third of the
bound is marked "ok", within the bound "wide", beyond it "OVER". Every
run's simulated-output digest is recorded so two sets can be compared.
The raw values go to --out (default .bench_build/spread.json).

With --baseline (the --out file of an earlier set of the same code), it
also prints how much worse each median is than the baseline's, as a share
of the baseline's, and how much worse the baseline's is than this set's,
and checks that every seed's digest is equal in both sets. A difference
beyond the bound in either direction is marked "OVER".

The exit code is 1 if any run failed, any metric (set-up time included)
is "OVER", or a digest differs from the baseline's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().split("\n")
    manifest = {}
    for line in lines:
        if line.startswith("manifest: "):
            manifest = json.loads(line[len("manifest: "):])
    result = json.loads(lines[-1]) if lines and lines[-1] else None
    return done.returncode, manifest, result


def summarise(runs):
    """{metric: (median, spread)} over the runs that produced a result."""
    names = []
    for r in runs:
        for name in (r["result"] or {}).get("metrics", {}):
            if name not in names:
                names.append(name)
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if r["result"] and name in r["result"]["metrics"]]
        med = statistics.median(values)
        if len(values) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = 0.0
        out[name] = (med, spread)
    return out


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out",
                        default=os.path.join(ROOT, ".bench_build",
                                             "spread.json"))
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.load(open(args.baseline)) if args.baseline else None

    raw = {}
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            code, manifest, result = run_once(workload, seed, args.seconds,
                                              args.trace)
            digest = manifest.get("digest")
            runs.append({"seed": seed, "exit": code, "digest": digest,
                         "manifest": manifest, "result": result})
            ok = code == 0 and result and result["correct"]
            failed = failed or not ok
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'} "
                  f"digest {digest}", file=sys.stderr)
        raw[workload] = runs
        base_runs = (baseline or {}).get(workload)
        base = summarise(base_runs) if base_runs else {}
        if base_runs:
            digests = {r["seed"]: r["digest"] for r in base_runs}
            for r in runs:
                if r["seed"] in digests and digests[r["seed"]] != r["digest"]:
                    failed = True
                    print(f"{workload} seed {r['seed']}: digest differs "
                          "from the baseline", file=sys.stderr)

        print(f"\n{workload} ({len(runs)} runs, {args.seconds} s each)")
        header = f"  {'metric':34} {'median':>14} {'spread':>8} {'bound':>6}"
        if base:
            header += f"      {'base median':>14} {'worse':>7} {'base worse':>10}"
        print(header)
        for name, (med, spread) in summarise(runs).items():
            metric = metrics.get(name, {})
            bound = metric.get("bound")
            if bound is None:
                print(f"  {name:34} {med:14.6g} {spread:8.4f} {'-':>6}")
                continue
            mark = ("ok" if spread <= bound / 3 else
                    "wide" if spread <= bound else "OVER")
            line = f"  {name:34} {med:14.6g} {spread:8.4f} {bound:6.2f} {mark:4}"
            failed = failed or mark == "OVER"
            if name in base:
                base_med = base[name][0]
                worse = worse_by(base_med, med, metric["better"])
                base_worse = worse_by(med, base_med, metric["better"])
                line += (f" {base_med:14.6g} {worse:+7.3f}"
                         f" {base_worse:+10.3f}")
                if max(worse, base_worse) > bound:
                    line += " OVER"
                    failed = True
            print(line)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"\nraw results: {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
