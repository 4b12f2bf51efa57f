#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload read-wide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds a Release build of ../src plus the
benchmark program (echbench) in <checkout>/.bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set); later calls reuse it.  Build
output goes to stderr.  The program's stdout is passed through, so its last
line is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def cached_source(cache: Path) -> str:
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1].strip()
    return ""


def build() -> Path:
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and Path(cached_source(cache)) != HERE:
        shutil.rmtree(out)  # a build of another checkout: start over
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "echbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "echbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check fails on a corrupted "
                         "state")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if args.self_test:
        cmd = [str(binary), "--self-test"]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            traces = build_dir().parent / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.csv")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
