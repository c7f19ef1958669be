#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload ldpc_fig10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test      # build, then run the benchmark's own tests

Run from the root of a checkout. The repository's libraries are built
into $CARGO_TARGET_DIR (default .bench_build) with CMake, then the
benchmark package in perfbench/ is built against them. The last line of
standard output is the result object; the exit code is the benchmark's
(0 = every output check passed).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def run_quiet(command):
    """Runs a build step; its output goes to stderr only if it fails."""
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"[perfbench] build step failed: {' '.join(command)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise SystemExit("[perfbench] no repository sources beside perfbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    lib_dir = os.path.join(build_dir, "wi")
    bench_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        log("configuring the repository libraries (Release)")
        run_quiet(["cmake", "-S", ROOT, "-B", lib_dir, *generator,
                   "-DCMAKE_BUILD_TYPE=Release", "-DWI_BUILD_TESTS=OFF",
                   "-DWI_BUILD_BENCH=OFF", "-DWI_BUILD_EXAMPLES=OFF",
                   "-DWI_BUILD_TOOLS=OFF"])
    run_quiet(["cmake", "--build", lib_dir, "-j", jobs, "--target", "wi_sim", "wi_serve"])
    if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
        log("configuring the benchmark package")
        run_quiet(["cmake", "-S", HERE, "-B", bench_dir, *generator,
                   "-DCMAKE_BUILD_TYPE=Release", f"-DWI_BUILD_DIR={os.path.abspath(lib_dir)}"])
    run_quiet(["cmake", "--build", bench_dir, "-j", jobs])
    return bench_dir


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--tags", "--dirty"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
    except OSError:
        return "unversioned"
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else "unversioned"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bench_dir = build(build_dir)
    if args.test:
        return subprocess.run(["ctest", "--test-dir", bench_dir, "--output-on-failure"],
                              check=False).returncode

    binary = "perfbench_traced" if args.trace == "1" else "perfbench"
    tag = f"{args.workload}-s{args.seed}-{os.getpid()}"
    command = [os.path.join(bench_dir, binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--root", ROOT,
               "--work-dir", os.path.join(build_dir, "work", tag),
               "--describe", git_describe()]
    if args.trace == "1":
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        command += ["--trace-out", os.path.join(build_dir, "traces", tag + ".json")]
    sys.stdout.flush()
    return run_child(command)


def run_child(command):
    """Runs the benchmark; if this script is stopped, stops it too."""
    child = subprocess.Popen(command)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
