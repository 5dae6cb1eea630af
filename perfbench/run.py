#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
depends on the repository's crates by path, so it builds the program
from source: into $CARGO_TARGET_DIR when that is set, else into
perfbench/target. Build output goes to standard error; the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's, and non-zero without a result when the build fails, for
example when the repository's crates are not next to this directory.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def kill_group(proc):
    """Kills the benchmark's process group and waits until it is gone."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    # A reference run whose parent died is reaped by init; wait for that.
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates are missing; nothing to build",
              file=sys.stderr)
        return 2
    # The program's trace and event dumps are opt-in through MABE_*
    # variables; keep them off so a run writes nothing but its own spans.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MABE_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    # Its own process group, so that a timeout or a termination also
    # stops the untraced reference run a traced run starts.
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, env=env,
                            start_new_session=True)

    def stop(signum, _frame):
        kill_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
