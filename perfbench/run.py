#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the root of an slb checkout:

    python3 perfbench/run.py --workload skew-work --seed 1 --seconds 40 --trace 0

The first call configures and builds perfbench/ (the slb library from this
checkout plus the slb_perfbench binary) in Release mode into .bench_build/;
later calls only rebuild what changed. The run then prints, in order: the
host fingerprint, every metric with its unit, every trial's value of the main
metrics, and, as the last line, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1).

An untraced run splits --seconds over PROCESSES slb_perfbench processes run
one after the other and reports the median over all their trials: a process
can sit in a slow or a fast mode for its whole life, and pooling several
keeps one process's mode from deciding the run. Each process cycles its
trials over its own four key streams, all derived from --seed. A traced run
is one process on the --seed stream itself.

The full result, with all trial values and the fingerprint, is saved to
.bench_build/results/<workload>-seed<N>-trace<T>.json, and a traced run
writes its spans to .bench_build/traces/<workload>.trace.json (Chrome Trace
Event JSON; open it in Perfetto). Exits 0 only when the run's outputs passed
the correctness gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "slb_perfbench")
RUN_TIMEOUT_S = 170
PROCESSES = 3
SHOWN_TRIAL_SERIES = (
    "throughput_roots_per_s",
    "latency_p99_ms",
    "setup_s",
    "dspe.idle_share",
    "untraced.throughput_roots_per_s",
)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args()


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "slb", "dspe", "runtime.h")):
        if not os.path.isfile(needed):
            fail("run from the root of an slb checkout (missing %s)" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "slb_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def load_benchmark_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_binary(args, seconds, timeout_s, process=0):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--process", str(process)]
    if args.trace:
        os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
        command += ["--trace-out",
                    os.path.join(BUILD_DIR, "traces", args.workload + ".trace.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout_s)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("slb_perfbench printed no result (exit code %d)" % done.returncode)
    return json.loads(lines[-1])


def pool(results):
    """Merges the results of several untraced processes into one: every
    metric that is a median over trials becomes the median over all trials."""
    merged = dict(results[0])
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["failed"] = sum(r["failed"] for r in results)
    merged["correct"] = all(r["correct"] for r in results)
    merged["errors"] = [e for r in results for e in r["errors"]]
    merged["processes"] = len(results)
    for key in ("trials", "warmup"):
        merged[key] = {name: [v for r in results for v in r[key][name]]
                       for name in results[0][key]}
    merged["fingerprint"] = dict(results[0]["fingerprint"],
                                 trials=len(merged["trials"]["setup_s"]),
                                 warmup_trials=len(merged["warmup"]["setup_s"]),
                                 streams=sum(r["fingerprint"]["streams"]
                                             for r in results))
    del merged["fingerprint"]["process"]
    metrics = {name: dict(entry) for name, entry in results[0]["metrics"].items()}
    for name, entry in metrics.items():
        if name in merged["trials"]:
            entry["value"] = statistics.median(merged["trials"][name])
    metrics["latency_samples"]["value"] = sum(merged["trials"]["latency_samples"])
    metrics["peak_rss_mb"]["value"] = max(r["metrics"]["peak_rss_mb"]["value"]
                                          for r in results)
    metrics["error_share"]["value"] = merged["failed"] / max(merged["attempted"], 1)
    merged["metrics"] = metrics
    return merged


def main():
    args = parse_args()
    build()
    wanted = load_benchmark_metrics(args.trace)
    if args.trace:
        result = run_binary(args, args.seconds, RUN_TIMEOUT_S)
    else:
        budget_s = RUN_TIMEOUT_S // PROCESSES
        result = pool([run_binary(args, args.seconds / PROCESSES, budget_s, p)
                       for p in range(PROCESSES)])

    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    for metric, entry in sorted(result["metrics"].items()):
        print("metric %-32s %.6g %s" % (metric, entry["value"], entry["unit"]))
    for series in SHOWN_TRIAL_SERIES:
        values = result["trials"].get(series)
        if values:
            print("trials %-32s %s" % (series, " ".join("%.4g" % v for v in values)))
    for series in SHOWN_TRIAL_SERIES:
        values = result["warmup"].get(series)
        if values:
            print("warmup %-32s %s" % (series, " ".join("%.4g" % v for v in values)))
    for error in result["errors"]:
        print("error " + error)

    metrics = {}
    for metric in wanted:
        entry = result["metrics"].get(metric["name"])
        if entry is None or entry["unit"] != metric["unit"] or entry["value"] is None:
            fail("result lacks metric %s [%s]" % (metric["name"], metric["unit"]))
        metrics[metric["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
