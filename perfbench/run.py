#!/usr/bin/env python3
"""Builds the benchmark runner from the checkout's sources and runs it.

    python3 perfbench/run.py --workload colocate16 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The runner is configured and built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr. The runner's report follows on stdout and its
last line is the JSON result. Exits non-zero, printing no result, when the
simulator sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("colocate16", "mmpp_adaptive", "fleet_elastic")


def build_jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(build_jobs())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = build_dir / "camdn_bench"
    return binary if binary.is_file() else None


def commit_id():
    """Git commit of the checkout, else a digest of its simulator sources."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        lines = top.stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (one small sub-run)")
    args = parser.parse_args()

    if not (ROOT / "src" / "sim" / "experiment.h").is_file():
        print(f"run.py: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    binary = build(build_dir)
    if binary is None:
        print("run.py: building the benchmark runner failed", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
