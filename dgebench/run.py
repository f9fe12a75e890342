#!/usr/bin/env python3
"""Builds and runs the end-to-end DGE benchmark.

    python3 dgebench/run.py --workload generate|collab \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the structura
library and the benchmark from source into $CARGO_TARGET_DIR (default
.bench_build) with the repository's RelWithDebInfo flags; later runs
reuse the build. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, taken from a run with the
benchmark's span recorder on, plus the recorder's overhead against an
untraced run made just before it. A host reference probe runs at the
start and end of every run; it is printed and never gated. See NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("generate", "collab")
# Every run, build excluded, must end within this many seconds.
RUN_BUDGET_S = 170


def fail(msg):
    print("dgebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "dgebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no structura sources under %s/src" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "dge_bench", "span_recorder_test"])
    steps.append([os.path.join(out, "span_recorder_test")])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(cmd))
    return out


def run_binary(binary, argv, deadline):
    """Runs the benchmark binary; returns its final JSON line, parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + " ".join(argv))
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(argv))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(argv), proc.returncode))
    return json.loads(lines[-1])


def select(names, source, kind):
    metrics = {}
    for m in names:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("%s metric %s missing or in the wrong unit" % (kind, m["name"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    out = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    binary = os.path.join(out, "dge_bench")
    work = os.path.join(out, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--workdir", work]
    try:
        probes = [run_binary(binary, ["--probe"], deadline)]
        runs = [run_binary(binary, common + ["--trace", "0"], deadline)]
        if args.trace:
            trace_file = os.path.join(out, "traces", args.workload + ".jsonl")
            os.makedirs(os.path.dirname(trace_file), exist_ok=True)
            runs.append(run_binary(
                binary, common + ["--trace", "1", "--trace-out", trace_file],
                deadline))
        probes.append(run_binary(binary, ["--probe"], deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = {}
    for key in ("host.cpu_ref_ms", "host.mem_ref_ms"):
        vals = [p[key] for p in probes]
        host[key] = {"value": sum(vals) / len(vals), "unit": "ms"}
        print("  %-32s start %.3f ms, end %.3f ms (diagnostic, never gated)"
              % (key, vals[0], vals[1]))

    # Counts repeat exactly for a given (workload, seed, seconds); the
    # steadiness proof compares them across builds.
    print("counts: " + json.dumps({k: v["value"] for k, v in
                                   runs[-1]["counts"].items()}))
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if args.trace:
        plain, traced = runs[0]["end_to_end"], runs[1]["end_to_end"]
        layer = dict(runs[1]["counts"])
        layer.update(runs[1]["per_layer"])
        layer.update(host)
        layer["trace.overhead_pct"] = {
            "value": 100.0 * (plain["requests_per_s"]["value"] /
                              traced["requests_per_s"]["value"] - 1.0),
            "unit": "%"}
        layer["trace.setup_overhead_pct"] = {
            "value": 100.0 * (traced["setup_s"]["value"] /
                              plain["setup_s"]["value"] - 1.0),
            "unit": "%"}
        for name in ("trace.overhead_pct", "trace.setup_overhead_pct"):
            print("  %-32s %14.6g %%" % (name, layer[name]["value"]))
        result["metrics"] = select(spec["per_layer"], layer, "per_layer")
    else:
        result["metrics"] = select(spec["end_to_end"], runs[0]["end_to_end"],
                                   "end_to_end")
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
