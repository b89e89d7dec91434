#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one benchmark workload.

    python3 perfbench/run.py --workload pcmap-mt --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). Lines before the last are human-readable (host facts, unit
digests, spreads); the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of the traced run.
`--workload all` runs every workload in both modes and prints them all.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pcmap-mt", "baseline-mt", "storm-gated"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print(f"run.py: build failed with code {r.returncode}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def source_id():
    """The commit, or a digest of the simulator sources outside git."""
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the checkout itself is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10, env=env)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in ("crates", "perfbench/src"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def rustc_version():
    try:
        r = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_one(binary, workload, seed, seconds, trace, extra):
    """Runs the binary once; returns (human lines, result dict) or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, lambda: proc.send_signal(signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 reports this child's own peak resident set size.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: {workload} printed no result line", file=sys.stderr)
        return None
    if trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fault-seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    extra = []
    if args.fault_seed is not None:
        extra += ["--fault-seed", str(args.fault_seed)]

    binary = build()
    if binary is None:
        return 1
    print(f"host rustc=\"{rustc_version()}\" source={source_id()}")

    if args.workload != "all":
        got = run_one(binary, args.workload, args.seed, args.seconds, args.trace, extra)
        if got is None:
            return 1
        lines, result = got
        for line in lines:
            print(line)
        print(json.dumps(result))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            got = run_one(binary, workload, args.seed, args.seconds, trace, extra)
            if got is None:
                return 1
            lines, result = got
            print(f"== {workload} trace={trace}")
            for line in lines:
                if not line.startswith("metric "):
                    print(line)
            for name, m in result["metrics"].items():
                print(f"{workload:12} {name:30} {m['value']:>20.6f} {m['unit']}")
                total["metrics"][f"{workload}/{name}"] = m
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
