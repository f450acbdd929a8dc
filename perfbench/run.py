#!/usr/bin/env python3
"""Benchmark entry point: build the fleet and the runner, run one workload.

Run from the root of a DPClustX checkout:

    python3 perfbench/run.py --workload explain_search --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds into .bench_build/ (the repository's
dpclustx_router and dpclustx_serve plus perfbench_runner); later runs only
re-check the build. The runner's output is passed through: its last stdout
line is the result object. Build output goes to stderr. Any failure exits
non-zero; a checkout without the repository's sources fails at configure.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
RUNNER_TIMEOUT_S = 170


def build():
    configure = ["cmake", "-S", "perfbench", "-B", BUILD]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def stop_group(pgid):
    """Kills whatever the runner left behind and waits until it is gone."""
    if not group_alive(pgid):
        return
    os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explain_search", "cached_reads",
                                 "append_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.chdir(ROOT)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    # Relative paths keep the router's unix socket path short.
    state = os.path.join(BUILD, f"run-{os.getpid()}")
    trace_out = os.path.join(
        BUILD, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    command = [
        os.path.join(BUILD, "perfbench_runner"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--router", os.path.join(BUILD, "dpclustx", "tools",
                                 "dpclustx_router"),
        "--serve", os.path.join(BUILD, "dpclustx", "tools", "dpclustx_serve"),
        "--state-dir", state, "--trace-out", trace_out,
    ]
    # Its own process group, so nothing it forks can outlive the run.
    runner = subprocess.Popen(command, stdout=subprocess.PIPE,
                              start_new_session=True)
    try:
        out, _ = runner.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(runner.pid)
        runner.communicate()
        print("perfbench: runner timed out", file=sys.stderr)
        return 3
    finally:
        stop_group(runner.pid)
        shutil.rmtree(state, ignore_errors=True)

    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return runner.returncode


if __name__ == "__main__":
    sys.exit(main())
