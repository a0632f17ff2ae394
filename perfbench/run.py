#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload batch-pulse --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds perfbench/ (CMake, Release) into
.bench_build/perfbench, generates the workload's inputs for the seed into
.bench_build/inputs, then starts measured processes one after another until
--seconds have passed. --trace 0 reports the end-to-end metrics, --trace 1
alternates traced and untraced processes and reports the per-layer metrics.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 only when every output check passed. README.md documents
the workloads, the metrics and how they are aggregated.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
INPUT_DIR = os.path.join(ROOT, ".bench_build", "inputs")
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

# A run may not take longer than this, whatever --seconds says.
RUN_LIMIT_S = 170.0
# Every run measures at least this many processes of each kind it needs.
MIN_PROCESSES = 3
# Cached input directories kept between runs (one per workload and seed).
KEEP_INPUTS = 6

# Aggregation across the measured processes of one run, by metric name.
# Set-up time and memory: the median. Simulated results and counts are
# identical in every process. Host timings: the mean of the middle 80% of
# processes. The host's speed switches between two states for periods from
# under a second to minutes (README.md, "Noise"), so per-process timings are
# bimodal and a median jumps between the two modes as their mix shifts; the
# trimmed mean moves only in proportion to the mix.
MEDIAN_METRICS = {"setup_s", "peak_rss_mb"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def trimmed_mean(values, trim=0.1):
    ordered = sorted(values)
    cut = int(math.floor(len(ordered) * trim))
    kept = ordered[cut:len(ordered) - cut] if len(ordered) > 2 * cut else ordered
    return sum(kept) / len(kept)


def aggregate(name, values):
    if name in MEDIAN_METRICS:
        return statistics.median(values)
    return trimmed_mean(values)


def build():
    """Configures (once) and builds the benchmark binaries."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "perfbench_gen", "perfbench_run"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def ensure_inputs(workload, seed):
    """Generates the inputs for (workload, seed) unless a cached copy made by
    the current generator binary exists."""
    path = os.path.join(INPUT_DIR, f"{workload}-{seed}")
    generator = os.path.join(BUILD_DIR, "perfbench_gen")
    stamp = str(os.stat(generator).st_mtime_ns)
    stamp_file = os.path.join(path, "generator.stamp")
    cached = os.path.exists(stamp_file) and open(stamp_file).read() == stamp
    if not cached:
        staging = path + ".tmp"
        shutil.rmtree(staging, ignore_errors=True)
        subprocess.run([generator, workload, str(seed), staging],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
        with open(os.path.join(staging, "generator.stamp"), "w") as f:
            f.write(stamp)
        shutil.rmtree(path, ignore_errors=True)
        os.rename(staging, path)
    os.utime(path)
    kept = sorted((os.path.join(INPUT_DIR, d) for d in os.listdir(INPUT_DIR)),
                  key=os.path.getmtime, reverse=True)
    for old in kept[KEEP_INPUTS:]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def measure(inputs, mode, deadline):
    """Runs one measured process; returns its parsed JSON sample."""
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_run"), inputs, mode],
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench_run {mode} exited with {done.returncode}")
    return json.loads(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; expected one of {workloads}")
        return 2
    if not os.path.exists(os.path.join(ROOT, "src", "sim", "engine.hpp")):
        log(f"simulator sources not found under {ROOT}/src; run from a repository checkout")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    started = time.monotonic()
    hard_deadline = started + RUN_LIMIT_S
    try:
        build()
        inputs = ensure_inputs(args.workload, args.seed)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build or input generation failed: {e}")
        return 1

    failures = []
    samples = {"untraced": [], "traced": []}
    modes = ["traced", "untraced"] if args.trace else ["untraced"]
    try:
        if args.workload == "serve-icebreaker":
            failures += measure(inputs, "check-serve", hard_deadline)["failures"]
        # Rounds of one process per mode, until the next round would end
        # more than half a round past --seconds.
        measure_start = time.monotonic()
        rounds = 0
        while True:
            for mode in modes:
                samples[mode].append(measure(inputs, mode, hard_deadline))
            rounds += 1
            elapsed = time.monotonic() - measure_start
            if time.monotonic() >= hard_deadline:
                break
            if rounds >= MIN_PROCESSES and elapsed + 0.5 * elapsed / rounds > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(f"measured process failed: {e}")
        return 1

    every = samples["untraced"] + samples["traced"]
    for s in every:
        failures += s["failures"]
    if any(s["outcome"] != every[0]["outcome"] for s in every):
        failures.append("simulated outcomes differ between measured processes"
                        " (traced vs untraced, or run to run)")

    reported = samples["traced"] if args.trace else samples["untraced"]
    values = {}
    for name in reported[0]["metrics"]:
        values[name] = aggregate(name, [s["metrics"][name] for s in reported])
    if args.trace:
        traced = trimmed_mean([s["timed_s"] for s in samples["traced"]])
        untraced = trimmed_mean([s["timed_s"] for s in samples["untraced"]])
        values["trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)

    for name in values:
        if not NAME_PATTERN.fullmatch(name):
            failures.append(f"malformed metric name {name!r}")
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        failures.append(f"metric set differs from BENCHMARK.json: missing {missing}, "
                        f"unexpected {extra}")

    failed_ops = sum(s["failed_operations"] for s in every)
    for f in failures:
        log(f"check failed: {f}")
    log(f"{args.workload} seed {args.seed}: {len(samples['untraced'])} untraced and "
        f"{len(samples['traced'])} traced processes in {time.monotonic() - started:.1f}s")
    correct = not failures and failed_ops == 0
    result = {
        "correct": correct,
        "attempted": sum(s["operations"] for s in every),
        "failed": failed_ops + len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
