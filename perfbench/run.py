#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
repository's library and daemon plus the driver under the build
directory ($CARGO_TARGET_DIR, else .bench_build); later runs only
re-check the build. The driver's last stdout line is the result JSON.
Extra flags (--heldout, --freeze-digests) pass through to the driver;
see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the driver; output goes to stderr."""
    tree = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", tree],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", tree, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(tree, "perfbench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    digests = os.path.relpath(os.path.join(HERE, "digests.txt"))
    cmd = [binary, "--digests", digests, "--out-dir", build_dir]
    cmd += sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
