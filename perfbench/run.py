#!/usr/bin/env python3
"""The repo benchmark's single command (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the repo's serve_ui and the load
generator from source into .bench_build (or $CARGO_TARGET_DIR), then runs
one workload. The last line of stdout is the result object; build output
and diagnostics go to stderr.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_hits", "unique_misses", "reload_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = configured if os.path.isabs(configured) else os.path.join(ROOT, configured)
    return os.path.join(path, "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no repository sources next to {HERE}; nothing to build")
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True,
            stdout=sys.stderr,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", *targets],
        check=True,
        stdout=sys.stderr,
    )
    return out


def run_child(command):
    """Runs `command` in its own process group, forwarding its stdout; the
    whole group is killed if it outlives the time limit."""
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 124
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_test"])
        return run_child([os.path.join(out, "perfbench_test")])
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        out = build(["serve_ui", "perfbench_loadgen"])
    except (subprocess.CalledProcessError, OSError) as err:
        fail(f"build failed: {err}")
    workdir = os.path.join(out, "run")
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    return run_child([
        os.path.join(out, "perfbench_loadgen"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-ui", os.path.join(out, "repo", "serve_ui"),
        "--workdir", workdir,
    ])


if __name__ == "__main__":
    sys.exit(main())
