#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload wan-reverify --seed 1 --seconds 10 --trace 0

Workloads: wan-reverify, fabric-fleet.
Everything the build and the run write (Go build cache, binary, cached
references, result stores, spans) goes under the state directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the root.

The last line of standard output is the result JSON object; the exit
status is non-zero when the build fails, a verdict is wrong, or the run
errors.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["wan-reverify", "fabric-fleet"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    state = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(state, "gocache"),
        "GOMODCACHE": os.path.join(state, "gomodcache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        # The go command keeps its config and telemetry counters under
        # the user config directory; keep them in the state directory.
        "XDG_CONFIG_HOME": os.path.join(state, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    binary = os.path.join(state, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed), "--state", state]
    # The reference is computed (once per workload and seed) in its own
    # process, so its time and memory never mix with the measurement.
    code = run([binary, "ref"] + common, env)
    if code != 0:
        return code
    return run([binary, "run"] + common +
               ["--seconds", str(args.seconds), "--trace", str(args.trace)], env)


def run(argv, env):
    """Runs argv to completion, passing a termination signal on to it."""
    child = subprocess.Popen(argv, cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = signal.signal(signal.SIGTERM, forward)
    try:
        return child.wait()
    except KeyboardInterrupt:
        child.terminate()
        return child.wait()
    finally:
        signal.signal(signal.SIGTERM, old)


if __name__ == "__main__":
    sys.exit(main())
