#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size through run.py and
checks that:
  * the last output line has exactly the keys correct, attempted, failed
    and metrics, and every output check passed;
  * an untraced run prints every end-to-end metric and a traced run every
    per-layer metric, each with its unit, and nothing else;
  * two seeds give different inputs but the same set of metrics;
  * the traced run joined the program's spans to the layers the workload
    uses;
  * the benchmark refuses, without printing a result, a changed
    configuration and a directory that holds only BENCHMARK.json and the
    benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# A layer each workload must exercise, so a broken span join shows.
USED_LAYERS = {
    "static-sweep": ["minic.parse_ms", "analysis.static_ms", "analysis.candidate_pairs"],
    "pct-campaign": ["runtime.run_ms", "runtime.steps", "explore.schedules"],
    "serve-fleet": ["serve.admit_ms", "serve.execute_p50_ms", "eval.cache.hit_ratio"],
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(workload, seed, trace, cwd=ROOT, script=RUN, env=None):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


def result_of(proc, name, expected):
    """Checks one run's output; returns (meta, result) or (None, None)."""
    expect(proc.returncode == 0, f"{name}: exit code {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        expect(False, f"{name}: no result")
        return None, None
    meta = json.loads(lines[-2])["perfbench_meta"]
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name}: result keys {sorted(result)}")
    expect(result.get("correct") is True, f"{name}: output checks failed")
    attempted, failed = result.get("attempted"), result.get("failed")
    expect(isinstance(attempted, int) and attempted >= 1, f"{name}: attempted {attempted}")
    expect(isinstance(failed, int) and 0 <= failed <= (attempted or 0),
           f"{name}: failed {failed}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v.get("unit") for k, v in metrics.items()}
    expect(got == want, f"{name}: metrics and units {got} != {want}")
    for k, v in metrics.items():
        expect(isinstance(v.get("value"), (int, float)), f"{name}: {k} is not a number")
    for k in ("commit", "source_sha256", "build_type", "nproc", "seed",
              "corpus_verdict_misses"):
        expect(k in meta, f"{name}: meta lacks {k}")
    return meta, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        metas = []
        for seed in (1, 2):
            meta, result = result_of(run(w, seed, 0), f"{w} seed {seed}", spec["end_to_end"])
            if meta is None:
                continue
            metas.append((meta, result))
            for k, v in result["metrics"].items():
                expect(v["value"] > 0, f"{w} seed {seed}: end-to-end {k} is {v['value']}")
        if len(metas) == 2:
            expect(metas[0][0]["inputs_digest"] != metas[1][0]["inputs_digest"],
                   f"{w}: seeds 1 and 2 gave the same inputs")
            expect(set(metas[0][1]["metrics"]) == set(metas[1][1]["metrics"]),
                   f"{w}: seeds 1 and 2 printed different metrics")
        meta, result = result_of(run(w, 1, 1), f"{w} traced", spec["per_layer"])
        if meta is not None:
            for layer in USED_LAYERS.get(w, []):
                expect(result["metrics"][layer]["value"] > 0, f"{w} traced: {layer} is 0")
            expect(meta.get("orphan_spans") == 0, f"{w} traced: program spans outside operations")
        print(f"ok: {w}", flush=True)

    first = spec["workloads"][0]["name"]
    env = dict(os.environ, DRBML_BACKEND="interp")
    proc = run(first, 1, 0, env=env)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "a set DRBML_BACKEND did not refuse the run")

    # A directory with only BENCHMARK.json and the benchmark's own files.
    alone = os.path.join(ROOT, ".bench_build", "selftest-alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(alone, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(first, 1, 0, cwd=alone, script=os.path.join(alone, "perfbench", "run.py"))
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "the benchmark ran without the program's sources")
    shutil.rmtree(alone, ignore_errors=True)

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
