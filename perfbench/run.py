#!/usr/bin/env python3
"""Benchmark of the ITC file system simulator, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload campus_day --seed 7 --seconds 30 --trace 0

`--workload all` runs the three workloads in turn; its JSON line then keys
each metric as `<workload>/<metric>`.

Builds the `itc-perfbench` package next to this file (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs repetitions of one
workload, each in its own process, for about `--seconds` and at least
MIN_REPS repetitions. Every repetition builds and sets up
the system afresh from the same seed, so all of them must report the same
virtual fingerprint and the same simulated latencies; host figures are the
median over the repetitions.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
untraced and traced repetitions and reports the per-layer metrics; the
traced repetition writes its spans to `.bench_out/spans_<workload>.jsonl`.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is non-zero when a
correctness check fails or the build fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campus_day", "bulk_share", "meta_churn")
MIN_REPS = 3

# (metric, unit, field of a repetition record, sample-count kind)
END_TO_END = [
    ("ops_per_s", "1/s", None, "reps"),
    ("op_host_us.p50", "us", "op_host_us_p50", "ops"),
    ("op_host_us.p99", "us", "op_host_us_p99", "ops"),
    ("setup_s", "s", "setup_s", "reps"),
    ("peak_rss_mb", "MB", "peak_rss_mb", "reps"),
    ("alloc_kb_per_op", "KiB", "alloc_kb_per_op", "ops"),
    ("vop_ms.p50", "ms", "vop_ms_p50", "ops"),
    ("vop_ms.p99", "ms", "vop_ms_p99", "ops"),
]
# Simulated figures: every repetition of one seed must agree exactly.
EXACT = ("fingerprint", "attempted", "failed", "failed_by_call", "vop_ms_p50", "vop_ms_p99")


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(os.path.abspath(target), "release", "itc-perfbench")


def repetition(binary, workload, seed, traced, spans=None):
    """Runs one repetition; returns its record with the process's peak RSS."""
    cmd = [binary, workload, str(seed), "1" if traced else "0"]
    if spans:
        cmd.append(spans)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = {"errors": ["no result (exit %d)" % proc.returncode]}
    if proc.returncode != 0 and not rec.get("errors"):
        rec["errors"] = ["exit code %d" % proc.returncode]
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    rec["ops_per_s"] = rec.get("attempted", 0) / rec["window_s"] if rec.get("window_s") else 0.0
    return rec


def check(reps):
    """Correctness over all repetitions; returns a list of failures."""
    errors = []
    for i, r in enumerate(reps):
        errors += ["repetition %d: %s" % (i, e) for e in r.get("errors", [])]
    if not errors:
        for key in EXACT:
            values = {json.dumps(r.get(key), sort_keys=True) for r in reps}
            if len(values) != 1:
                errors.append("%s differs between repetitions: %s" % (key, sorted(values)))
    return errors


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload's repetitions and prints its figures.

    Returns (errors, metrics, attempted, failed)."""
    start = time.monotonic()
    plain, traced = [], []
    spans = None
    if trace:
        os.makedirs(".bench_out", exist_ok=True)
        spans = os.path.join(".bench_out", "spans_%s.jsonl" % workload)
    while True:
        plain.append(repetition(binary, workload, seed, False))
        if trace:
            traced.append(repetition(binary, workload, seed, True, spans))
        done = len(plain) >= (1 if trace else MIN_REPS)
        # Stop when another repetition would end more than half a
        # repetition past the deadline: a run then takes about `seconds`,
        # however long a repetition is.
        elapsed = time.monotonic() - start
        if plain[-1].get("errors") or (done and elapsed * (1 + 0.5 / len(plain)) > seconds):
            break

    reps = plain + traced
    errors = check(reps)
    first = reps[0]
    ops = first.get("attempted", 0)
    print("workload %s  seed %d  repetitions %d untraced, %d traced"
          % (workload, seed, len(plain), len(traced)))
    print("fingerprint %s" % first.get("fingerprint"))
    for kind, n in sorted(first.get("failed_by_call", {}).items()):
        print("failed %s calls: %d" % (kind, n))

    metrics = {}
    if not errors:
        def median(key, group):
            return statistics.median(r[key] for r in group)

        if trace:
            for name, m in traced[0]["layers"].items():
                metrics[name] = {"value": statistics.median(r["layers"][name]["value"] for r in traced),
                                 "unit": m["unit"]}
            metrics["trace.overhead_frac"] = {
                "value": median("window_s", traced) / median("window_s", plain) - 1.0,
                "unit": "frac"}
            for name, m in metrics.items():
                print("%-36s %16.6f %-7s n=%d traced reps" % (name, m["value"], m["unit"], len(traced)))
        else:
            for name, unit, key, count in END_TO_END:
                value = median(key or name, plain)
                n = len(plain) if count == "reps" else ops * (len(plain) if key and "vop" not in key else 1)
                metrics[name] = {"value": value, "unit": unit}
                print("%-20s %16.6f %-4s n=%d %s" % (name, value, unit, n, count))
            print("%-20s %16.6f %-4s n=%d ops" % ("failed_frac", first["failed"] / max(ops, 1), "frac", ops))
    for e in errors:
        print("CORRECTNESS FAILURE: %s" % e)
    return (errors, metrics,
            sum(r.get("attempted", 0) for r in plain), sum(r.get("failed", 0) for r in plain))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run unwinds, so `repetition` stops its process first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(binary, w, args.seed, args.seconds, args.trace) for w in names]
    if len(names) == 1:
        metrics = results[0][1]
    else:
        metrics = {"%s/%s" % (w, k): m for w, r in zip(names, results) for k, m in r[1].items()}
    errors = [e for r in results for e in r[0]]
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r[2] for r in results),
        "failed": sum(r[3] for r in results),
        "metrics": metrics,
    }))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
