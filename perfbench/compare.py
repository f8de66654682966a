#!/usr/bin/env python3
"""Compares two sets of benchmark results.

Usage, from the root of an slb checkout:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by perfbench/run.py (its
.bench_build/results/, copied aside). Runs are grouped by workload and by
traced or untraced. When both sides ran the same seeds, run as pairs one
after the other, a metric's change is the median over the pairs of the new
run's value relative to its base run's. Otherwise it is the new runs' median
relative to the base runs'. The host's speed changes in phases of minutes,
by up to 2x on the host in perfbench/README.md; the two runs of a pair almost
always share a phase, while two medians need not. The noise floor is the base
runs' spread, the distance between their first and third quartile.

  * REGRESSION: an end-to-end metric is worse by more than its
    BENCHMARK.json bound. This is the gate; any REGRESSION makes the exit
    code 1. The spread plays no part in it.
  * worse / better: the metric moved by at least MIN_SHIFT. When both sides
    ran the same seeds, run as pairs one after the other, at least 90% of
    the pairs must move the same way, which cancels the host's slow drift
    in speed. Otherwise the move must exceed the base spread.
  * Per-layer metrics have no bound and print CHANGED under the same rule,
    with a shift of at least PER_LAYER_SHIFT.
  * A group whose runs come from different hosts or builds (their
    fingerprints differ) prints SKIP with the differing fields and is not
    compared.
"""

import glob
import json
import os
import statistics
import sys

HOST_FIELDS = ("nproc", "cpu_model", "compiler", "build_type",
               "executor_threads", "max_pending_per_spout")
MIN_SHIFT = 0.02
PER_LAYER_SHIFT = 0.10
PAIR_AGREEMENT = 0.9


def load(directory):
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            result = json.load(f)
        groups.setdefault((result["workload"], result["trace"]), []).append(result)
    return groups


def host(results):
    """The set of host fingerprints of `results`, as tuples of HOST_FIELDS."""
    return {tuple(r["fingerprint"].get(k) for k in HOST_FIELDS) for r in results}


def relative(base, new):
    return (new - base) / abs(base) if base else 0.0


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressions = 0
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        label = "%s trace=%d" % (workload, trace)
        if key not in base or key not in new:
            print("SKIP %s: runs on one side only" % label)
            continue
        base_host, new_host = host(base[key]), host(new[key])
        if len(base_host | new_host) > 1:
            differing = [field for i, field in enumerate(HOST_FIELDS)
                         if len({h[i] for h in base_host | new_host}) > 1]
            print("SKIP %s: fingerprints differ in %s" % (label, ", ".join(differing)))
            continue
        print("%s: %d base runs, %d new runs" % (label, len(base[key]), len(new[key])))
        metrics = end_to_end if trace == 0 else per_layer
        base_by_seed = {r["seed"]: r for r in base[key]}
        pairs = [(base_by_seed[r["seed"]], r) for r in new[key]
                 if r["seed"] in base_by_seed]
        for name, m in metrics.items():
            b = [r["metrics"][name]["value"] for r in base[key]]
            n = [r["metrics"][name]["value"] for r in new[key]]
            b_med, n_med = statistics.median(b), statistics.median(n)
            noise = spread(b) / abs(b_med) if b_med else 0.0
            if len(pairs) >= 2:
                rel = statistics.median(relative(p[0]["metrics"][name]["value"],
                                                 p[1]["metrics"][name]["value"])
                                        for p in pairs)
            else:
                rel = relative(b_med, n_med)
            higher = 1 if m["better"] == "higher" else -1
            worse = higher * rel < 0
            if len(pairs) >= 2:
                moves = [p[1]["metrics"][name]["value"] - p[0]["metrics"][name]["value"]
                         for p in pairs]
                same_way = sum(1 for d in moves if d != 0 and (d > 0) == (rel > 0))
                consistent = same_way >= PAIR_AGREEMENT * len(moves)
                evidence = "%d/%d pairs" % (same_way, len(moves))
            else:
                consistent = abs(rel) > noise
                evidence = "unpaired"
            shift = MIN_SHIFT if "bound" in m else PER_LAYER_SHIFT
            moved = consistent and abs(rel) >= shift
            if "bound" in m and worse and abs(rel) > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif not moved:
                verdict = "ok"
            elif "bound" in m:
                verdict = "worse" if worse else "better"
            else:
                verdict = "CHANGED (%s)" % ("worse" if worse else "better")
            print("  %-30s base %-11.5g new %-11.5g %+7.1f%%  spread %5.1f%%  %-11s %s"
                  % (name, b_med, n_med, 100 * rel, 100 * noise, evidence, verdict))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
