#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload fit_paper|fit_sampled|serve_mixed \
        --seed N --seconds S --trace 0|1

`BENCHMARK.json` lists fit_sampled and serve_mixed; fit_paper is kept for
runs by hand (see perfbench/README.md, "Steadiness").

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs one
workload, and prints one JSON object as the last line of standard output:
the end-to-end metrics when untraced, the per-layer metrics when traced.

Each run also leaves `perfbench/out/<workload>-s<seed>-t<trace>-<pid>/`
with its detailed record (`record.json`) and, when traced, its spans
(`spans.jsonl`), and appends the record, with a host fingerprint (nproc,
rustc version, git commit, load average at start and end, share of CPU time
stolen by the hypervisor during the run), to
`perfbench/out/runs.jsonl`. `perfbench/summarize.py` reports medians and
quartiles over those records.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("fit_paper", "fit_sampled", "serve_mixed")
# A run must end within 180 s; leave room for the build check and the exit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def command_output(cmd, env=None):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def fingerprint(root):
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "git_commit": command_output(["git", "-C", root, "rev-parse", "HEAD"], env),
        "loadavg_start": list(os.getloadavg()),
        "cpu_ticks_start": cpu_ticks(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    host = fingerprint(root)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        log("build failed")
        return 1

    out_dir = os.path.join(
        root, "perfbench", "out", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(target, "release", "grimp-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", out_dir,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        log("no result line")
        return 1
    result = json.loads(lines[-1])

    with open(os.path.join(out_dir, "record.json")) as f:
        record = json.load(f)
    host["loadavg_end"] = list(os.getloadavg())
    start_ticks, end_ticks = host.pop("cpu_ticks_start"), cpu_ticks()
    if start_ticks and end_ticks and end_ticks[1] > start_ticks[1]:
        # Share of CPU time the hypervisor gave to other guests.
        host["steal_share"] = (end_ticks[0] - start_ticks[0]) / (end_ticks[1] - start_ticks[1])
    record["host"] = host
    record["wall_s"] = time.monotonic() - started
    with open(os.path.join(out_dir, "record.json"), "w") as f:
        json.dump(record, f)
    with open(os.path.join(root, "perfbench", "out", "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    if args.trace == "1":
        log(f"spans: {os.path.relpath(os.path.join(out_dir, 'spans.jsonl'), root)}")

    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
