#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest     # build, then run the benchmark's tests

Run from the repository root.  The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build; both are relative to the repository root.
Build output goes to stderr, so the benchmark's JSON result stays the last
line of stdout.  Exits non-zero, printing no result, when the library
sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fleet.h")):
        sys.exit("perfbench: library sources (src/) not found; "
                 "run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if sys.argv[1:] == ["--selftest"]:
        cmd = ["ctest", "--test-dir", build_dir, "--output-on-failure"]
    else:
        cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
