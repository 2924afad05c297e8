#!/usr/bin/env python3
"""dsmec benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package in
`perfbench/` (release, offline, into $CARGO_TARGET_DIR or `.bench_build`),
runs one workload in its own process and prints a readable report followed
by one JSON result line. `--trace 0` measures the end-to-end metrics with
`mec-obs` off; `--trace 1` replays the workload through the layers'
public functions and reports the per-layer metrics. Metric names, units
and directions come from BENCHMARK.json; see perfbench/README.md.

Exits nonzero when the build or the run fails, or when a correctness
check fails.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "rustc": command_output(["rustc", "-V"]),
        "commit": commit,
        "platform": platform.platform(),
    }


def build(binary, target_dir):
    argv = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--bin", binary,
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo keeps lock files and a cache index in CARGO_HOME even for
    # path-only builds; unless told otherwise, keep them in the build
    # directory so the benchmark writes nothing outside the checkout.
    env.setdefault("CARGO_HOME", os.path.join(target_dir, "cargo-home"))
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", binary)


def run_measured(argv):
    """Runs the benchmark binary in its own process; returns its stdout,
    exit code, wall seconds and resource usage (all of its threads)."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, time.monotonic() - start, usage


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build("perfbench-trace" if args.trace else "perfbench-e2e", target_dir)
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds)]
    if args.trace:
        spans = os.path.join(target_dir, f"spans-{args.workload}-{args.seed}.csv")
        argv += ["--spans", spans]

    out, code, wall, usage = run_measured(argv)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{os.path.basename(binary)} exited with {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"no result line from {os.path.basename(binary)}")

    values = dict(result["metrics"])
    if args.trace:
        cpu = usage.ru_utime + usage.ru_stime
        values["process.user_s"] = usage.ru_utime
        values["process.sys_s"] = usage.ru_stime
        values["process.cpu_per_wall"] = cpu / wall
        values["process.ctx_switches"] = usage.ru_nvcsw + usage.ru_nivcsw
    else:
        # Linux reports ru_maxrss (the process's VmHWM) in KiB.
        values["peak_rss_mb"] = usage.ru_maxrss / 1024

    env = environment()
    for line in lines[:-1]:
        print(line)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"nproc {env['nproc']}; cpu {env['cpu']}; {env['rustc']}; "
          f"commit {env['commit']}; {env['platform']}")
    metrics = {}
    complete = True
    for m in wanted:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"metric {m['name']} missing or not finite")
            complete = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>16.6g} {m['unit']:<8} "
              f"({m['better']} is better)")

    correct = result["failed"] == 0 and complete
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"] + (0 if complete else 1),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
