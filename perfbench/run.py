#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which pulls in the
program's own build) on first use, then runs one workload:

    python3 perfbench/run.py --workload online-light --seed 2005 \
        --seconds 20 --trace 0

Run it from the root of a checkout. The build lives in .bench_build (or
$CARGO_TARGET_DIR when set); scratch files of a run (the online-traced
trace, the span dump of a layer-timing run) go to the same directory. The
last line of standard output is the JSON result; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    command = [binary, *sys.argv[1:],
               "--benchmark", os.path.join(ROOT, "BENCHMARK.json"),
               "--digest-dir", os.path.join(HERE, "digests"),
               "--scratch-dir", build_dir]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
