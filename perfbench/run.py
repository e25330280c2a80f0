#!/usr/bin/env python3
"""Repository benchmark: builds the drbml sources with perfbench/CMakeLists.txt
and runs one workload.

    python3 perfbench/run.py --workload static-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The workloads and metrics are listed in
BENCHMARK.json and described in perfbench/WORKLOADS.md.

The workload runs in its own process. Set-up time is measured from the
launch of that process to its first timed operation; the workload is also
launched SETUP_REPEATS more times in set-up-only mode and the median of all
set-up times is reported. Every timing is reported at a fixed reference
host speed, measured by calibration bursts in the workload process (see
perfbench/WORKLOADS.md). The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it records
the commit, build type, processor count and seed. The exit code is 0 when
every output check passed, 1 when a check failed (the result still
prints), and 2 when the benchmark cannot run (no result prints).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TYPE = "Release"
SETUP_REPEATS = 4
# The whole run, builds excluded, must end well inside three minutes.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    """Configures once and builds; an up-to-date build is a no-op. The
    compiler's temporary files stay inside the build directory."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        raise BenchError("build failed")


def launch(args, deadline):
    """Runs the workload binary once; returns (exit code, parsed JSON line)."""
    spawn_ns = time.monotonic_ns()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([BINARY, *args, "--spawn-ns", str(spawn_ns)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("workload timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise BenchError(f"workload exited with {proc.returncode}")
    try:
        return proc.returncode, json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"unreadable workload output: {e}")


def source_digest():
    """sha256 over the program and benchmark sources, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return None
    return lines[1]


def check_metrics(metrics, expected):
    """The printed metrics must be exactly the listed ones, with their units."""
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"metric mismatch: missing {missing}, extra {extra}, units {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    opts = parser.parse_args()

    spec = load_spec()
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {opts.workload!r}")
    build()

    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds)] + (["--tiny"] if opts.tiny else [])
    setups, raw_setups = [], []
    for _ in range(0 if opts.trace else SETUP_REPEATS):
        code, out = launch(common + ["--setup-only"], deadline)
        if code != 0:
            # A check failed during set-up: report it as the result.
            return report(opts, code, out, out["metrics"], setups, raw_setups)
        setups.append(out["setup_s"])
        raw_setups.append(out["meta"]["raw_setup_s"])
    run_args = common + ["--trace", str(opts.trace)]
    if opts.trace:
        run_args += ["--trace-out",
                     os.path.join(BUILD_DIR, f"trace-{opts.workload}.json")]
    code, out = launch(run_args, deadline)
    setups.append(out["setup_s"])
    raw_setups.append(out["meta"]["raw_setup_s"])

    metrics = out["metrics"]
    if not opts.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    check_metrics(metrics, spec["per_layer" if opts.trace else "end_to_end"])
    return report(opts, code, out, metrics, setups, raw_setups)


def report(opts, code, out, metrics, setups, raw_setups):
    """Prints the meta line and the result; returns the exit code: 0 when
    every output check passed, 1 otherwise."""
    for failure in out["check_failures"]:
        log(f"check failed: {failure}")
    correct = code == 0 and out["correct"]
    meta = dict(out["meta"])
    meta.update({
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": opts.seconds,
        "trace": opts.trace,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
    })
    print(json.dumps({"perfbench_meta": meta}))
    print(json.dumps({"correct": correct, "attempted": max(1, out["attempted"]),
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(2)
