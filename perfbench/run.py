#!/usr/bin/env python3
"""Build and run the CounterMiner benchmark.

    python3 perfbench/run.py --workload profile|fleet|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the counterminer CLI and
the perfbench binary into .bench_build/ (RelWithDebInfo, the repository
default), runs its self-tests, then runs one workload in
.bench_work/<workload>/ and relays its output. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer ones. See README.md here.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("profile", "fleet", "serve")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        try:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            die("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        die("failed: " + " ".join(cmd))


def source_revision(root):
    """The git revision, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        hook = os.path.join(root, "perfbench", "cmake", "hook.cmake")
        run_logged(["cmake", "-S", root, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DCMAKE_PROJECT_counterminer_INCLUDE=" + hook],
                   log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", "counterminer",
                "perfbench", "-j", jobs], log, BUILD_TIMEOUT_S)
    return (os.path.join(build_dir, "perfbench", "perfbench"),
            os.path.join(build_dir, "src", "cli", "counterminer"))


def run_group(cmd, timeout):
    """Run cmd in its own process group; kill the whole group after."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out: " + " ".join(cmd))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            die("run from the root of a CounterMiner checkout "
                "(missing %s)" % needed)

    bench_bin, cli = build(root)
    code, out = run_group([bench_bin, "selftest"], RUN_TIMEOUT_S)
    if code != 0:
        die("self-tests failed:\n" + out)

    work = os.path.join(root, WORK_DIR, args.workload)
    os.makedirs(work, exist_ok=True)
    code, out = run_group(
        [bench_bin, args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cli", cli, "--work", work,
         "--revision", source_revision(root)], RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if code != 0:
        die("perfbench exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("perfbench printed no result line")
    if set(result) != RESULT_KEYS:
        die("malformed result line: " + lines[-1])
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
