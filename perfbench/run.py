#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `betalike-serve` and the load
generator in `perfbench/loadgen` (release, offline) into
`$CARGO_TARGET_DIR` (default `target/`), then runs the load generator,
which starts the server, drives it, checks its answers and prints one JSON
object as the last line of standard output. Build output goes to standard
error. Exits non-zero, without a result, when the repository sources are
missing or a build or run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

# A run must end within 180 s; building is not part of it.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "betalike-server", "--bin", "betalike-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "loadgen", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def stop_group(proc):
    """Kills the load generator's process group and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["count_generalized", "count_hot", "publish_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    for needed in ("Cargo.toml", os.path.join("crates", "server", "Cargo.toml")):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the repository root", 2)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "target")
    build(target_dir)

    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server", os.path.join(target_dir, "release", "betalike-serve"),
        "--work", os.path.join(target_dir, "perfbench"),
    ]
    # Its own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        stop_group(proc)
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
