#!/usr/bin/env python3
"""Build and run the rtdacd end-to-end benchmark.

One run:

    python3 daemonbench/run.py --workload wdev-replay --seed 1 --seconds 30 --trace 0

builds the release `rtdacd` daemon and the benchmark binary from the
checkout's sources (into $CARGO_TARGET_DIR, default `.bench_build`), then
runs the benchmark binary, which spawns the daemon, measures, checks every
report against an in-process oracle and prints one JSON result line last.

Steadiness record:

    python3 daemonbench/run.py --steadiness 10 [--seconds 30]

runs every workload in BENCHMARK.json once per seed 1..N and writes every
end-to-end metric's median and quartiles to daemonbench/STEADINESS.json,
with the spread each metric's BENCHMARK.json bound is set from.

Run from the root of the checkout. Exits non-zero without printing a
result when the sources are missing or do not build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload's reason is its `why` in BENCHMARK.json; its known noise
# sources are kept here and copied into STEADINESS.json.
NOISE = {
    "wdev-replay": "Ingest frame and query round trips are set by TCP delayed-ACK timers; "
    "load from other processes on the host shifts the daemon's CPU per event by up to "
    "about 10% between runs; CPU is read at 10 ms tick granularity; set-up includes "
    "spawning the daemon.",
    "stg-replay-2t": "Both connections and both shard workers compete with the load "
    "generator for two cores; load from other processes on the host shifts the daemon's "
    "CPU per event by up to about 10% between runs; the accept loop's 20 ms poll sleep "
    "lands in set-up for the second connection; CPU is read at 10 ms tick granularity.",
    "src2-live": "About a third of the daemon's CPU per event is idle polling (17 ms of CPU "
    "per second with two idle connections), whose cost drifts with host load; visible lag "
    "quantizes to frame arrivals and the query loop's cadence; sleep overshoot makes the "
    "generator run late by about 0.1 ms; the accept loop's 20 ms poll sleep lands in set-up.",
}


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds rtdacd and the benchmark binary; returns their paths or exits non-zero."""
    manifests = [
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "rtdacd"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]
    for manifest, _ in manifests:
        if not os.path.isfile(manifest):
            print(f"error: {manifest} not found; run from a full checkout", file=sys.stderr)
            sys.exit(2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in manifests:
        command = ["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", manifest] + extra
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"error: build of {manifest} failed", file=sys.stderr)
            sys.exit(done.returncode or 1)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "rtdacd"), os.path.join(release, "daemonbench")


def bench_command(binaries, workload, seed, seconds, trace):
    rtdacd, bench = binaries
    return [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--daemon", rtdacd,
            "--out", os.path.join(ROOT, ".bench_out")]


def quartiles(values):
    """Median, first and third quartile, and the quartile spread as a
    share of the median, the way the benchmark's bounds are judged."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(binaries, runs, seconds):
    bench = load_benchmark()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    record = {
        "measured": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
        "cpus": os.cpu_count(),
        "runs_per_workload": runs,
        "seconds": seconds,
        "workloads": {},
    }
    failed = False
    for workload in whys:
        values = {}
        counts = {}
        for seed in range(1, runs + 1):
            done = subprocess.run(bench_command(binaries, workload, seed, seconds, 0),
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed (exit {done.returncode})",
                      file=sys.stderr)
                failed = True
                continue
            if any(m["value"] is None for m in result["metrics"].values()):
                print(f"{workload} seed {seed}: a metric could not be measured",
                      file=sys.stderr)
                failed = True
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            support = next((json.loads(line)["timing_support"] for line in lines
                            if line.startswith('{"timing_support"')), {})
            for name, s in support.items():
                counts.setdefault(name, []).append(s["count"] if s["supported"] else None)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for name, series in values.items():
            if len(series) < 2:
                continue
            summary = quartiles(series)
            summary["values"] = series
            if name in counts:
                # Samples behind the timing in each run; None where the
                # percentile was not supported.
                summary["counts"] = counts[name]
            bound = bounds.get(name)
            if bound is not None and summary["spread"] is not None:
                summary["bound"] = bound
                summary["within_third_of_bound"] = summary["spread"] < bound / 3
            metrics[name] = summary
        record["workloads"][workload] = {"why": whys[workload], "noise": NOISE[workload],
                                         "metrics": metrics}
        print(f"\n{workload}: {whys[workload]}")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, s in metrics.items():
            spread = f"{s['spread']:.4f}" if s["spread"] is not None else "-"
            print(f"  {name:<28} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{spread:>8} {s.get('bound', '-'):>6}")
    out = os.path.join(HERE, "STEADINESS.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"\nwrote {out}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(NOISE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times and record the spread")
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("--workload or --steadiness is required")
    binaries = build()
    if args.steadiness is not None:
        if args.steadiness < 2:
            parser.error("--steadiness needs at least 2 runs")
        sys.exit(steadiness(binaries, args.steadiness, args.seconds))
    command = bench_command(binaries, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
