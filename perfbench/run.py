#!/usr/bin/env python3
"""linrecd end-to-end benchmark.

    python3 perfbench/run.py --workload <point_reach|cycle_scan|update_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a linrec checkout. Builds the library, linrecd and
the load generator (Release) into .bench_build/, then runs the load
generator, whose last stdout line is the result JSON. Build output goes to
stderr. Configuring the repository's CMake re-points the compile_commands
symlink in the configured source directory; whatever was there before the
build is put back after it.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("point_reach", "cycle_scan", "update_mix")
# The load generator stops its own run well inside this; the limit only
# catches a hung daemon.
RUN_TIMEOUT_S = 170


def snapshot(path):
    """What sits at `path`: ('link', target), ('file', bytes) or None."""
    if path.is_symlink():
        return ("link", os.readlink(path))
    if path.is_file():
        return ("file", path.read_bytes())
    return None


def restore(path, state):
    if snapshot(path) == state:
        return
    if path.is_symlink() or path.is_file():
        path.unlink()
    if state is None:
        return
    kind, value = state
    if kind == "link":
        os.symlink(value, path)
    else:
        path.write_bytes(value)


def build():
    """Configures (once) and builds linrecd and perfbench_loadgen."""
    links = [ROOT / "compile_commands.json",
             BENCH_DIR / "compile_commands.json"]
    saved = [(path, snapshot(path)) for path in links]
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    try:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                        "--target", "linrecd", "perfbench_loadgen"],
                       check=True, stdout=sys.stderr)
    finally:
        for path, state in saved:
            restore(path, state)
    return (BUILD_DIR / "linrec" / "tools" / "linrecd",
            BUILD_DIR / "perfbench_loadgen")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: {ROOT} is not a linrec checkout "
                 "(no CMakeLists.txt and src/ beside perfbench/)")
    try:
        linrecd, loadgen = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    command = [str(loadgen), "--linrecd", str(linrecd),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own, so a hung run can be killed with its daemon.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit("perfbench: run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
