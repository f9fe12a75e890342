#!/usr/bin/env python3
"""Proves the benchmark steady on this host and records the evidence.

    python3 dgebench/prove_steady.py --copies A B [--workloads ...]
        [--seeds 1-10] [--out dgebench/steadiness.json]

A and B are two separately built checkouts of the same commit (for
example two `git archive` exports). For every workload and seed the
benchmark runs once in each copy, alternating which copy goes first, so
layout differences between two builds fall inside the measured spread.
For each end-to-end metric and copy the record keeps the median, the
quartiles and the spread (interquartile range over median, as
statistics.quantiles(n=4) gives them), and the drift of B's median
against A's in the metric's worse direction. It also checks that every
count the benchmark reports repeats exactly between the two copies for
the same seed. Exits non-zero when a spread reaches a third of its
bound (setup_s exempt), a drift exceeds its bound, or a count differs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(copy, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each copy builds into its own tree
    t0 = time.monotonic()
    proc = subprocess.run(
        ["python3", "dgebench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True, timeout=1200)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed in %s: %s seed %d" % (copy, workload, seed))
    result = json.loads(lines[-1])
    counts = {}
    host = {}
    for line in lines:
        if line.startswith("counts: "):
            counts = json.loads(line[len("counts: "):])
        parts = line.split()
        if parts and parts[0].startswith("host.") and "start" in parts:
            host[parts[0]] = [float(parts[2]), float(parts[5])]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "counts": counts, "host": host, "wall_s": wall,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"]}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def compiler_version():
    try:
        out = subprocess.run(["c++", "--version"], capture_output=True,
                             text=True).stdout
        return out.splitlines()[0] if out else "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--copies", nargs=2, required=True)
    parser.add_argument("--workloads", default="generate,collab")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    copies = [os.path.abspath(c) for c in args.copies]
    with open(os.path.join(copies[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    record = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "compiler": compiler_version(),
                 "build_type": "RelWithDebInfo"},
        "run_seconds": seconds, "seeds": seeds,
        "order": "per seed, copies alternate which runs first",
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        runs = {"A": {}, "B": {}}
        for i, seed in enumerate(seeds):
            order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
            for side in order:
                copy = copies[0] if side == "A" else copies[1]
                r = run_once(copy, workload, seed, seconds)
                runs[side][seed] = r
                print("%s %s seed %d: %s (%.1f s)" % (
                    workload, side, seed,
                    {k: round(v, 4) for k, v in r["metrics"].items()},
                    r["wall_s"]), flush=True)
        entry = {"metrics": {}, "counts_repeat_exactly": True,
                 "count_mismatches": [],
                 "max_run_wall_s": max(r["wall_s"] for side in runs.values()
                                       for r in side.values())}
        for seed in seeds:
            a, b = runs["A"][seed]["counts"], runs["B"][seed]["counts"]
            if a != b or not a:
                entry["counts_repeat_exactly"] = False
                entry["count_mismatches"].append({"seed": seed, "A": a, "B": b})
                ok = False
        entry["counts_by_seed"] = {str(s): runs["A"][s]["counts"] for s in seeds}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summarize([runs["A"][s]["metrics"][name] for s in seeds])
            b = summarize([runs["B"][s]["metrics"][name] for s in seeds])
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (b["median"] - a["median"]) / a["median"]
            steady = name == "setup_s" or max(a["spread"], b["spread"]) < bound / 3
            within = drift <= bound
            entry["metrics"][name] = {
                "unit": m["unit"], "bound": bound, "A": a, "B": b,
                "drift_B_vs_A": drift,
                "spread_below_third_of_bound": steady,
                "drift_within_bound": within}
            ok = ok and steady and within
            print("  %-28s A median %.5g spread %.4f | B median %.5g spread "
                  "%.4f | drift %+.4f (bound %.2f)%s" % (
                      name, a["median"], a["spread"], b["median"],
                      b["spread"], drift, bound,
                      "" if steady and within else "  <-- NOT STEADY"),
                  flush=True)
        for key in ("host.cpu_ref_ms", "host.mem_ref_ms"):
            vals = [v for side in runs.values() for r in side.values()
                    for v in r["host"].get(key, [])]
            if vals:
                entry[key] = summarize(vals)
        record["workloads"][workload] = entry
    record["steady"] = ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
