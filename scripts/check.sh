#!/usr/bin/env bash
# Tier-1 verification plus the sanitizer passes.
#
#   scripts/check.sh            full suite + TSan parallel suite + ASan/UBSan
#   scripts/check.sh --fast     full suite only (skip the sanitizer builds)
#
# Stage 1 is the repository's tier-1 gate: configure, build, run every
# test. Stage 2 is the self-lint gate: the OpenMP correctness linter
# must survive the full corpus plus a fixed synthetic batch with zero
# crashes and a shape-valid SARIF log. Stage 2b is the repair gate:
# every race-labeled corpus entry must either gain a detector-verified
# fix or report a structured no-candidate/rejected reason, the verified
# fix rate must clear 60%, and no-race entries must come back
# byte-identical (or, on a detector false positive, with a patch that
# passed the output-equivalence gate -- never written under --check).
# Stage 2c is the docs gate: the generated span/metric catalog sections
# in docs/OBSERVABILITY.md must match the code (gen_obs_docs --check),
# and every relative link and #anchor in the top-level and docs/
# markdown must resolve (gen_obs_docs --check-links). Stage 2d is the
# exploration gate: at equal schedule budget PCT must match or beat the
# uniform walk on detected races over the race-labeled corpus with at
# least one PCT-only entry, and every reported race must ship a
# minimized witness that replays bit-identically. Stage 2e is the
# static-analysis gate: the precision differential (ctest -L precision)
# asserts strictly fewer false positives than the legacy detector
# configuration with zero recall loss, and clang-tidy (when installed)
# runs the curated .clang-tidy check set over src/. Stage 2f is the
# serve gate: the detection-as-a-service daemon must answer 50 mixed
# analyze/lint requests over the stdio transport with zero drops and
# zero errors, and the repeats must hit the warm shared cache (the
# serve_test suite of stage 1 streams a larger mix over a socketpair,
# holds the warm pass to a 50 QPS floor, and compares responses across
# --jobs). Stage 2g is the bytecode-VM gate: ctest -L vm holds the
# runtime to the committed fingerprints in
# tests/golden/runtime_fingerprints.txt, checks that runs resumed from a
# serial-prefix snapshot match runs from main, holds the explorer to a
# hash of every ExploreResult field in
# tests/golden/explore_fingerprints.txt (four configurations, so a
# schedule skipped as a repeat must report what running it would), and
# runs the bytecode verifier suite with its mutated-module fuzz target.
# Stage 2h is the
# hostile-input gate: programs that
# used to kill or hang a run (INT64_MIN / -1, loops that touch no
# memory, unbounded recursion, a `%s` that starts outside its string,
# and nesting past the parser's bound: 50,000 parentheses, a 200,000-term
# sum, a 100,000-deep else-if chain) must come back from the CLI as a
# result or a parse error, and a serve stream of all of them plus a
# request line of 50,000 nested brackets (past json::kMaxDepth; bad_json)
# must answer every request and drain on EOF; it runs under --fast too.
# Stage 2i runs the repository benchmark's self-test
# (perfbench/selftest.py): tiny runs of every workload with the
# benchmark's own output checks -- serve-fleet's hot responses
# byte-identical to its set-up responses, no novel request answered
# from the cache, every PCT witness replaying -- built into the
# gitignored .bench_build/; it runs under --fast too. Stage 3 rebuilds under
# ThreadSanitizer (-DDRBML_SANITIZE=thread) and runs the
# `parallel`-labelled suites -- the thread pool, the memoized artifact
# caches, the parallel experiment executor, the lint and repair
# fan-outs, the observability layer, the serve daemon, the bytecode
# verifier, and the scheduler's quiet-yield state on the (ucontext)
# fiber substrate via the golden suite -- so the infrastructure this repo uses to find data
# races is itself checked for data races. Stage 3 also builds
# sched_test, the only suite that drives the scheduler's deadlock,
# step-limit and exception unwinds on fibers, and runs it by name (it
# has no `parallel` label). Stage 4 rebuilds under AddressSanitizer +
# UndefinedBehaviorSanitizer (-DDRBML_SANITIZE=address) and runs the full
# suite, every team on annotated ucontext fibers, then sched_test,
# runtime_golden_test and explore_golden_test as whole binaries, where
# fibers and their stacks are re-armed for team after team.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== stage 1: tier-1 build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== stage 2: self-lint gate (corpus + 200 synth kernels) =="
# The linter must digest every corpus entry and a fixed synthetic batch
# without a single crash or parse failure, and the combined SARIF log
# must satisfy the 2.1.0 shape invariants (--check validates both).
build/tools/drbml lint --corpus --synth 200 --seed 7 --check >/dev/null

echo "== stage 2b: repair gate (verified fixes over the corpus) =="
build/tools/drbml fix --corpus --check --min-fix-rate 60 --dry-run \
  | tail -n 1

echo "== stage 2c: docs gate (generated catalog + link check) =="
build/tools/gen_obs_docs --check
build/tools/gen_obs_docs --check-links \
  README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md

echo "== stage 2d: exploration gate (PCT vs uniform + witness replay) =="
build/tools/drbml explore --corpus --check --budget 12 | tail -n 1

echo "== stage 2e: static analysis gate (clang-tidy + precision) =="
# The precision gate re-runs the corpus differential: the default
# detector must report strictly fewer false positives than the legacy
# configuration with zero recall loss, and every verdict must carry a
# round-trippable evidence chain (tests/static_precision_test.cpp).
(cd build && ctest -L precision --output-on-failure)
# clang-tidy runs the curated .clang-tidy check set over src/. The
# toolchain image does not always ship clang-tidy, so absence is a
# skip, not a failure.
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cpp' -print0 \
    | xargs -0 -P "$(nproc)" -n 8 clang-tidy -p build --quiet
else
  echo "clang-tidy not found; skipping the tidy half of stage 2e"
fi

echo "== stage 2f: serve gate (daemon round-trip) =="
# 50 mixed analyze/lint requests (two programs, repeated) plus a final
# stats probe, over the stdio transport; EOF triggers the graceful
# drain. Every id must come back exactly once with ok:true, and the
# repeats must have hit the warm shared cache (hits > 0 in the final
# stats snapshot -- the daemon starts cold, so every hit is a repeat).
serve_tmp=$(mktemp -d)
racy='int main() {\n  int sum = 0;\n  int a[100];\n#pragma omp parallel for\n  for (int i = 0; i < 100; i++) sum = sum + a[i];\n  return sum;\n}\n'
safe='int main() {\n  int a[100];\n#pragma omp parallel for\n  for (int i = 0; i < 100; i++) a[i] = i;\n  return 0;\n}\n'
{
  for i in $(seq 1 50); do
    if (( i % 2 )); then
      printf '{"id":"r%d","verb":"analyze","detector":"static","code":"%s"}\n' \
        "$i" "$racy"
    else
      printf '{"id":"r%d","verb":"lint","code":"%s"}\n' "$i" "$safe"
    fi
  done
  printf '{"id":"final-stats","verb":"stats"}\n'
} > "$serve_tmp/requests.ndjson"
build/tools/drbml serve --jobs 4 \
  < "$serve_tmp/requests.ndjson" > "$serve_tmp/responses.ndjson"
resp_count=$(wc -l < "$serve_tmp/responses.ndjson")
if [[ "$resp_count" -ne 51 ]]; then
  echo "serve gate: expected 51 responses, got $resp_count" >&2; exit 1
fi
if grep -q '"ok":false' "$serve_tmp/responses.ndjson"; then
  echo "serve gate: error responses in a well-formed workload" >&2; exit 1
fi
for i in $(seq 1 50); do
  grep -q "\"id\":\"r$i\"" "$serve_tmp/responses.ndjson" \
    || { echo "serve gate: response for id r$i missing" >&2; exit 1; }
done
hits=$(grep '"id":"final-stats"' "$serve_tmp/responses.ndjson" \
  | sed 's/.*"hits"://; s/[^0-9].*//')
if [[ -z "$hits" || "$hits" -eq 0 ]]; then
  echo "serve gate: warm cache hits not above cold (hits=${hits:-?})" >&2
  exit 1
fi
echo "serve gate: 51/51 responses, warm hits=$hits"
rm -rf "$serve_tmp"

echo "== stage 2g: bytecode-VM golden + verifier gate =="
# ctest -L vm runs three suites. The golden suite checks the runtime
# against the committed tests/golden/runtime_fingerprints.txt (corpus +
# 200 synth kernels x {uniform, pct} x 3 seeds, plus a PCT exploration
# each) -- the only reference the VM is held to -- and runs the same
# programs under uniform, PCT and replay schedules both from a shared
# serial-prefix snapshot and from main, requiring equal results. The
# exploration golden suite checks a hash of every ExploreResult field
# of the same programs under four explorer configurations against
# tests/golden/explore_fingerprints.txt. The
# verifier suite proves malformed bytecode is rejected before it runs;
# its fuzz target,
# VmFuzz.AcceptedMutantsOfCorpusModulesRunCleanly, changes one field of
# compiled corpus modules (fixed seed and budget) and runs every mutant
# verify() accepts to a result or a structured fault. The VM's speed is
# guarded by the repository benchmark's pct-campaign workload.
(cd build && ctest -L vm --output-on-failure)

echo "== stage 2h: hostile inputs (division, silent loops, recursion, strings, nesting) =="
# Each program goes through `drbml analyze --detector dynamic` (the
# division and the deep programs also through --detector static) and
# must exit with a code that is neither timeout's 124 nor a signal's
# >= 128. Then all of them plus one normal request stream through
# `drbml serve`: exactly one response per id, and the daemon exits 0 on
# EOF. One more line nests 50,000 brackets: it must get bad_json (with
# no id, as it never parsed), and the normal request after it an answer.
hostile_tmp=$(mktemp -d)
printf '%s\n' 'int main() { long m = 0x8000000000000000; long d = -1; long q = m / d; printf("%ld\n", q); return 0; }' \
  > "$hostile_tmp/div.c"
printf '%s\n' 'int main() { long m = 0x8000000000000000; long d = -1; long q = m % d; printf("%ld\n", q); return 0; }' \
  > "$hostile_tmp/mod.c"
printf '%s\n' 'int main() { while (1) {} return 0; }' > "$hostile_tmp/spin.c"
printf '%s\n' 'void f() {} int main() { while (1) f(); return 0; }' \
  > "$hostile_tmp/spin_call.c"
printf '%s\n' 'int main() {' '#pragma omp parallel' '  { while (1) {} }' \
  '  return 0;' '}' > "$hostile_tmp/spin_region.c"
printf '%s\n' 'int main() {' '  long i;' '#pragma omp parallel for' \
  '  for (i = 0; i < 0x7fffffffffffffff; i++) {}' '  return 0;' '}' \
  > "$hostile_tmp/spin_ws.c"
printf '%s\n' 'int f(int n) { return f(n + 1); }' 'int main() { return f(0); }' \
  > "$hostile_tmp/recurse.c"
printf '%s\n' 'int main() { char s[4] = "abc"; char *p = s - 2; printf("%s\n", p); return 0; }' \
  > "$hostile_tmp/cstring.c"
# Nesting far past minic::kMaxNestingDepth: a ParseError, not a stack
# overflow in the parser or a later recursive pass.
{ printf 'int main() { return '; printf '(%.0s' $(seq 50000); printf '1'
  printf ')%.0s' $(seq 50000); printf '; }\n'; } > "$hostile_tmp/deep_parens.c"
{ printf 'int main() { int x = 1; return x'; printf ' + x%.0s' $(seq 199999)
  printf '; }\n'; } > "$hostile_tmp/deep_sum.c"
{ printf 'int main() { int x = 0; '
  printf 'if (x) x = 1; else %.0s' $(seq 100000)
  printf 'x = 2; return x; }\n'; } > "$hostile_tmp/deep_else_if.c"
hostile_run() {  # detector file
  local rc=0
  timeout 60 build/tools/drbml analyze --detector "$1" "$2" >/dev/null 2>&1 \
    || rc=$?
  if (( rc == 124 || rc >= 128 )); then
    echo "hostile gate: $1 analyze of $(basename "$2") exited $rc" >&2
    exit 1
  fi
}
json_code() {  # file -> its text as a JSON string body
  sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' "$1" | awk '{ printf "%s\\n", $0 }'
}
hostile_ids=()
{
  for f in "$hostile_tmp"/*.c; do
    name=$(basename "$f" .c)
    hostile_run dynamic "$f"
    hostile_ids+=("$name")
    printf '{"id":"%s","verb":"analyze","detector":"dynamic","code":"%s"}\n' \
      "$name" "$(json_code "$f")"
  done
  for f in "$hostile_tmp"/div.c "$hostile_tmp"/deep_*.c; do
    name=$(basename "$f" .c)
    hostile_run static "$f"
    hostile_ids+=("$name-static")
    printf '{"id":"%s-static","verb":"analyze","detector":"static","code":"%s"}\n' \
      "$name" "$(json_code "$f")"
  done
  printf '{"id":"deep-json","verb":"stats","x":'
  printf '[%.0s' $(seq 50000); printf ']%.0s' $(seq 50000); printf '}\n'
  hostile_ids+=("normal")
  printf '{"id":"normal","verb":"analyze","detector":"static","code":"%s"}\n' \
    "$racy"
} > "$hostile_tmp/requests.ndjson"
serve_rc=0
timeout 300 build/tools/drbml serve --jobs 2 \
  < "$hostile_tmp/requests.ndjson" > "$hostile_tmp/responses.ndjson" \
  || serve_rc=$?
if (( serve_rc != 0 )); then
  echo "hostile gate: serve exited $serve_rc on EOF" >&2; exit 1
fi
resp_count=$(wc -l < "$hostile_tmp/responses.ndjson")
expected=$(( ${#hostile_ids[@]} + 1 ))
if [[ "$resp_count" -ne "$expected" ]]; then
  echo "hostile gate: expected $expected responses, got $resp_count" >&2
  exit 1
fi
for id in "${hostile_ids[@]}"; do
  if [[ $(grep -c "\"id\":\"$id\"" "$hostile_tmp/responses.ndjson") -ne 1 ]]; then
    echo "hostile gate: not exactly one response for id $id" >&2; exit 1
  fi
done
if [[ $(grep -c '^{"id":"","ok":false,"error":{"kind":"bad_json","message":"json: nesting deeper than' \
        "$hostile_tmp/responses.ndjson") -ne 1 ]]; then
  echo "hostile gate: the deeply nested line did not get bad_json" >&2; exit 1
fi
echo "hostile gate: $expected/$expected responses, serve exit 0"
rm -rf "$hostile_tmp"

echo "== stage 2i: benchmark self-test (tiny runs with output checks) =="
python3 perfbench/selftest.py | tail -n 1

if [[ "${1:-}" == "--fast" ]]; then
  echo "== skipping the sanitizer stages (--fast) =="
  exit 0
fi

echo "== stage 3: ThreadSanitizer build of the parallel suites =="
cmake -B build-tsan -S . -DDRBML_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target \
  parallel_test parallel_determinism_test detector_differential_test \
  explore_test metamorphic_test lint_test repair_test obs_test \
  bc_verify_test runtime_golden_test sched_test serve_test
(cd build-tsan && ctest -L parallel --output-on-failure)
build-tsan/tests/sched_test

echo "== stage 4: AddressSanitizer + UBSan build of the full suite =="
cmake -B build-asan -S . -DDRBML_SANITIZE=address >/dev/null
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j)
# ctest runs each test in a process of its own; these binaries also run
# whole, so that fiber stacks and the storage of a program's runs are
# reused across tests as a long-lived process reuses them.
build-asan/tests/sched_test
build-asan/tests/runtime_golden_test
build-asan/tests/explore_golden_test
echo "== all checks passed =="
