// Tests for the interpreter, cooperative scheduler, and dynamic
// (vector-clock) race detector.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "minic/parser.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "runtime/bc/compile.hpp"
#include "runtime/dynamic.hpp"
#include "runtime/interp.hpp"

// Global allocation counter for the RunStorage tests, left on for the
// whole binary. GCC flags free() on new-ed pointers without seeing that
// this replacement new is malloc-backed, so the mismatch warning is a
// false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too: otherwise they come from the runtime's allocator
// -- a sanitizer's under ASan -- and are handed back to the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace drbml::runtime {
namespace {

RunResult run_src(const char* src, RunOptions opts = {}) {
  minic::Program p = minic::parse_program(src);
  analysis::Resolution res = analysis::resolve(*p.unit);
  return run_program(*p.unit, res, opts);
}

analysis::RaceReport detect(const char* src) {
  DynamicRaceDetector detector;
  return detector.analyze_source(src);
}

// ---------------------------------------------------------------- sequential

TEST(Interp, ArithmeticAndPrintf) {
  auto r = run_src(
      "int main() { int x = 6; double y = 2.5; printf(\"%d %0.1f %d\\n\", "
      "x * 7, y * 2.0, x % 4); return 0; }");
  EXPECT_FALSE(r.faulted);
  EXPECT_EQ(r.output, "42 5.0 2\n");
  // At the edges of int64 the operators wrap and shift counts are taken
  // mod 64 (minic/int_ops.hpp), with no undefined behaviour in the
  // runtime itself.
  auto edges = run_src(
      "int main() { long big = 0x7fffffffffffffff; long m = "
      "0x8000000000000000; long s = 64;\n"
      "printf(\"%ld %ld %ld %ld %ld %ld\\n\", big + 1, -m, 1 << s, m >> s, "
      "big * 2, m - 1);\n"
      "long x = big; x++; x += 1; printf(\"%ld\\n\", x); return 0; }");
  EXPECT_FALSE(edges.faulted) << edges.fault_message;
  EXPECT_EQ(edges.output,
            "-9223372036854775808 -9223372036854775808 1 "
            "-9223372036854775808 -2 9223372036854775807\n"
            "-9223372036854775807\n");
}

TEST(Interp, ExitCodeFromMain) {
  EXPECT_EQ(run_src("int main() { return 3 + 4; }").exit_code, 7);
  // exit() from a global initializer ends the run before main; it used to
  // escape run_program and terminate the process.
  auto r = run_src("int g = exit(3);\nint main() { return 1; }");
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_EQ(r.exit_code, 3);
}

TEST(Interp, ForLoopAccumulates) {
  auto r = run_src(
      "int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i; "
      "printf(\"%d\", s); return 0; }");
  EXPECT_EQ(r.output, "55");
}

TEST(Interp, WhileAndBreakContinue) {
  auto r = run_src(
      "int main() { int i = 0; int s = 0; while (1) { i++; if (i > 10) "
      "break; if (i % 2 == 0) continue; s += i; } printf(\"%d\", s); return "
      "0; }");
  EXPECT_EQ(r.output, "25");
}

TEST(Interp, ArraysAndMultiDim) {
  auto r = run_src(
      "int main() { int a[3][4]; for (int i = 0; i < 3; i++) for (int j = "
      "0; j < 4; j++) a[i][j] = i * 10 + j; printf(\"%d %d\", a[2][3], "
      "a[0][1]); return 0; }");
  EXPECT_EQ(r.output, "23 1");
}

TEST(Interp, PartialAndExtraSubscripts) {
  // Fewer subscripts than dimensions address the innermost ones (one
  // subscript scales by the row stride); more subscripts than dimensions
  // give the extra ones stride 1.
  auto r = run_src(
      "int main() {\n"
      "  int a[2][3][4];\n"
      "  for (int i = 0; i < 2; i++) for (int j = 0; j < 3; j++)\n"
      "    for (int k = 0; k < 4; k++) a[i][j][k] = i * 100 + j * 10 + k;\n"
      "  int b[2][3];\n"
      "  for (int i = 0; i < 2; i++) for (int j = 0; j < 3; j++)\n"
      "    b[i][j] = i * 10 + j;\n"
      "  printf(\"%d %d %d %d %d\", a[1][2], a[0][1], a[1], b[0][1][1],\n"
      "         b[1][0][2]);\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_EQ(r.output, "12 1 100 2 12");
}

TEST(Interp, ReturnInsideAConstructReturnsFromTheCall) {
  auto r = run_src(
      "int f() {\n"
      "#pragma omp critical\n"
      "  { return 5; }\n"
      "  return 1;\n"
      "}\n"
      "int main() { printf(\"%d\", f()); return f() + 1; }");
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_EQ(r.output, "5");
  EXPECT_EQ(r.exit_code, 6);
}

TEST(Interp, ReturnOutOfAWorksharingLoopFaults) {
  auto r = run_src(
      "int f() {\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp for\n"
      "    for (int i = 0; i < 8; i++) { if (i == 3) return 1; }\n"
      "  }\n"
      "  return 0;\n"
      "}\n"
      "int main() { return f(); }");
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_message, "return out of a parallel region");
}

TEST(Interp, GlobalInitializerList) {
  auto r = run_src(
      "int tab[4] = {2, 3, 5, 7};\n"
      "int main() { printf(\"%d\", tab[0] + tab[1] + tab[2] + tab[3]); "
      "return 0; }");
  EXPECT_EQ(r.output, "17");
}

TEST(Interp, ArraySizedByItsBraceList) {
  auto r = run_src(
      "int g[] = {4, 5};\n"
      "int main() {\n"
      "  int a[] = {1, 2, 3};\n"
      "  int m[][2] = {{1, 2}, {3, 4}, {5, 6}};\n"
      "  printf(\"%d %d %d \", a[0] + a[1] + a[2], m[2][1], g[1]);\n"
      "  printf(\"%d\", m[3][0]);\n"
      "  return a[3];\n"
      "}");
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_message, "out-of-bounds access to 'm' at index 6 (size 6)");
  EXPECT_EQ(r.output, "6 6 5 ");
}

TEST(Interp, CharArraySizedByItsStringLiteral) {
  auto r = run_src(
      "int main() {\n"
      "  char t[] = \"xy\";\n"
      "  printf(\"%s %d %d\", t, t[0], t[2]);\n"
      "  return t[3];\n"
      "}");
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_message, "out-of-bounds access to 't' at index 3 (size 3)");
  EXPECT_EQ(r.output, "xy 120 0");
}

TEST(Interp, StringLiteralFillsACharArrayByCharacter) {
  auto r = run_src(
      "int main() {\n"
      "  char s[4] = \"abc\";\n"
      "  char u[3] = \"abc\";\n"
      "  char w[6] = \"ab\";\n"
      "  printf(\"%d %d %d %d %s|\", s[0], s[1], s[2], s[3], s);\n"
      "  printf(\"%d %d %d|%d %d %d %d\", u[0], u[1], u[2], w[1], w[2], w[3],\n"
      "         w[5]);\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_EQ(r.output, "97 98 99 0 abc|97 98 99|98 0 0 0");
  // A literal longer than its array faults like a long brace list.
  auto longer = run_src("int main() { char s[2] = \"abc\"; return s[0]; }");
  EXPECT_TRUE(longer.faulted);
  EXPECT_EQ(longer.fault_message,
            "out-of-bounds access to 's' at index 2 (size 2)");
  // A region that races only when s[0] is not 'a' runs race-free.
  const analysis::RaceReport report = detect(
      "int main() {\n"
      "  char s[4] = \"abc\";\n"
      "  int x = 0;\n"
      "#pragma omp parallel num_threads(2)\n"
      "  { if (s[0] != 97) x = x + 1; }\n"
      "  return x;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(Interp, FunctionsAndRecursion) {
  auto r = run_src(
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
      "int main() { printf(\"%d\", fib(10)); return 0; }");
  EXPECT_EQ(r.output, "55");
}

TEST(Interp, FunctionMutatesArrayThroughPointer) {
  auto r = run_src(
      "void fill(int* a, int n, int v) { for (int i = 0; i < n; i++) a[i] = "
      "v; }\n"
      "int main() { int b[5]; fill(b, 5, 9); printf(\"%d\", b[4]); return 0; "
      "}");
  EXPECT_EQ(r.output, "9");
}

TEST(Interp, MallocFreeSizeofConvention) {
  auto r = run_src(
      "int main() { int* p = (int*)malloc(10 * sizeof(int)); for (int i = "
      "0; i < 10; i++) p[i] = i; int s = 0; for (int i = 0; i < 10; i++) s "
      "+= p[i]; free(p); printf(\"%d\", s); return 0; }");
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_EQ(r.output, "45");
}

TEST(Interp, OutOfBoundsFaults) {
  auto r = run_src("int main() { int a[3]; a[5] = 1; return 0; }");
  EXPECT_TRUE(r.faulted);
  EXPECT_NE(r.fault_message.find("out-of-bounds"), std::string::npos);
}

TEST(Interp, UseAfterFreeFaults) {
  auto r = run_src(
      "int main() { int* p = (int*)malloc(4); free(p); p[0] = 1; return 0; "
      "}");
  EXPECT_TRUE(r.faulted);
}

// `%s`, puts and atoi read a string from its first character on. That
// character is checked as a load checks it: a string that starts outside
// its object, or in a freed one, faults with the load's message instead of
// reading whatever lies there.
TEST(Interp, StringReadsOutsideTheirObjectFault) {
  for (const char* print : {"printf(\"%s\\n\", p);", "puts(p);"}) {
    for (const char* start : {"s - 2", "s + 4"}) {
      const std::string src =
          std::string("int main() { char s[4] = \"abc\"; char *p = ") +
          start + "; " + print + " return 0; }";
      const RunResult r = run_src(src.c_str());
      EXPECT_TRUE(r.faulted) << src;
      EXPECT_EQ(r.fault_message,
                std::string("out-of-bounds access to 's' at index ") +
                    (start[2] == '-' ? "-2" : "4") + " (size 4)")
          << src;
      EXPECT_EQ(r.output, "") << src;
    }
  }
  // A string may start at the object's last element.
  const RunResult tail = run_src(
      "int main() { char s[4]; s[0] = 97; s[1] = 98; s[2] = 99; s[3] = 0; "
      "printf(\"[%s]\", s + 3); puts(s + 2); return 0; }");
  EXPECT_FALSE(tail.faulted) << tail.fault_message;
  EXPECT_EQ(tail.output, "[]c\n");
}

TEST(Interp, StringReadsOfAFreedObjectFault) {
  for (const char* print : {"printf(\"%s\", s);", "puts(s);"}) {
    const std::string src = std::string(
        "int main() { char *s = (char*)malloc(4); s[0] = 104; s[1] = 105; "
        "s[2] = 0; printf(\"%s|\", s); free(s); ") + print +
        " return 0; }";
    const RunResult r = run_src(src.c_str());
    EXPECT_TRUE(r.faulted) << src;
    EXPECT_EQ(r.fault_message, "use after free of '<heap>'") << src;
    EXPECT_EQ(r.output, "hi|") << src;
  }
}

TEST(Interp, DivisionByZeroFaults) {
  auto r = run_src("int main() { int x = 1; int y = x / (x - x); return y; }");
  EXPECT_TRUE(r.faulted);
  // INT64_MIN / -1 is not representable; it used to kill the process
  // with SIGFPE.
  for (const char* op : {"/", "%", "/=", "%="}) {
    const std::string assign = op[1] == '=' ? std::string("m ") + op + " d"
                                            : std::string("m = m ") + op + " d";
    const std::string src =
        "int main() { long m = 0x8000000000000000; long d = -1; " + assign +
        "; printf(\"%ld\\n\", m); return 0; }";
    auto o = run_src(src.c_str());
    EXPECT_TRUE(o.faulted) << src;
    EXPECT_EQ(o.fault_message, "integer division overflow") << src;
    EXPECT_EQ(o.output, "") << src;
  }
}

TEST(Interp, InfiniteLoopHitsStepLimit) {
  RunOptions opts;
  opts.step_limit = 10000;
  auto r = run_src("int main() { int x = 0; while (1) { x = x + 1; } }", opts);
  EXPECT_TRUE(r.faulted);
}

TEST(Interp, RunAllocationCapFaults) {
  // Each array fits the per-run element cap alone; together they exceed
  // it, so the second declaration faults instead of growing the host.
  auto r = run_src(
      "int main() { int a[600000]; int b[600000]; a[0] = 1; b[0] = 2; "
      "return a[0] + b[0]; }");
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_message,
            "allocation too large for the interpreter: 600000");
  // An element count that overflows (n * n wraps to 0 in 64 bits) used
  // to allocate nothing and run on.
  for (const char* decl : {"int a[n][n];", "int* a = (int*)calloc(n, n);"}) {
    const std::string src = std::string("int main() { long n = 0x100000000; ") +
                            decl + " printf(\"%d\", 1); return 0; }";
    auto o = run_src(src.c_str());
    EXPECT_TRUE(o.faulted) << src;
    EXPECT_EQ(o.fault_message,
              "allocation too large for the interpreter: element count "
              "overflows")
        << src;
    EXPECT_EQ(o.output, "") << src;
  }
}

// Unbounded recursion must come back as a structured fault, not overflow
// the native stack of the thread or fiber running it.
const std::string kCallDepthFault =
    "call depth limit exceeded: " + std::to_string(kMaxCallDepth);

TEST(Interp, UnboundedRecursionFaults) {
  auto r = run_src(
      "int f(int n) { return f(n + 1); }\n"
      "int main() { return f(0); }");
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_message, kCallDepthFault);
}

TEST(Interp, RecursionInsideParallelRegionFaults) {
  auto r = run_src(
      "int f(int n) { return f(n + 1); }\n"
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "  { x = f(0); }\n"
      "  return x;\n"
      "}");
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_message, kCallDepthFault);
}

TEST(Interp, RecursionThroughTasksFaults) {
  // Each task runs inline on its spawner's stack, so the chain of tasks
  // counts against the spawner's call depth.
  auto r = run_src(
      "int f(int n) {\n"
      "#pragma omp task\n"
      "  { f(n + 1); }\n"
      "  return n;\n"
      "}\n"
      "int main() {\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp single\n"
      "    { f(0); }\n"
      "  }\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_message, kCallDepthFault);
}

TEST(Interp, RecursionThroughNestedRegionsFaults) {
  // Every nested region holds a fiber of its own until it ends, so its
  // workers count against the spawner's call depth too.
  auto r = run_src(
      "int f(int n) {\n"
      "#pragma omp parallel\n"
      "  { f(n + 1); }\n"
      "  return n;\n"
      "}\n"
      "int main() { return f(0); }");
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(r.fault_message, kCallDepthFault);
}

TEST(Interp, RecursionUpToTheCapRuns) {
  // depth(n) nests n + 1 calls: exactly the cap runs, one more faults.
  const auto program = [](int n) {
    return "int depth(int n) { if (n == 0) return 0; "
           "return 1 + depth(n - 1); }\n"
           "int main() { printf(\"%d\", depth(" +
           std::to_string(n) + ")); return 0; }";
  };
  auto ok = run_src(program(kMaxCallDepth - 1).c_str());
  EXPECT_FALSE(ok.faulted) << ok.fault_message;
  EXPECT_EQ(ok.output, std::to_string(kMaxCallDepth - 1));
  auto over = run_src(program(kMaxCallDepth).c_str());
  EXPECT_TRUE(over.faulted);
  EXPECT_EQ(over.fault_message, kCallDepthFault);
}

// A loop that touches no memory counts no step, so only the silent-loop
// cap stops it; each of these used to run until it was killed.
const std::string kSilentLoopFault =
    "silent loop limit exceeded: " + std::to_string(kMaxSilentBackEdges) +
    " back-edges without a memory access";

void expect_silent_loop_fault(const char* src) {
  auto r = run_src(src);
  EXPECT_TRUE(r.faulted) << src;
  EXPECT_EQ(r.fault_message, kSilentLoopFault) << src;
}

TEST(Interp, SilentSerialLoopFaults) {
  expect_silent_loop_fault("int main() { while (1) {} return 0; }");
  expect_silent_loop_fault("int main() { do {} while (1); return 0; }");
}

TEST(Interp, SilentLoopInsideRegionFaults) {
  expect_silent_loop_fault(
      "int main() {\n"
      "#pragma omp parallel\n"
      "  { while (1) {} }\n"
      "  return 0;\n"
      "}\n");
}

TEST(Interp, SilentLoopThroughCallFaults) {
  expect_silent_loop_fault(
      "void f() {}\nint main() { while (1) f(); return 0; }");
}

TEST(Interp, SilentWorksharingLoopFaults) {
  expect_silent_loop_fault(
      "int main() {\n"
      "  long i;\n"
      "#pragma omp parallel for\n"
      "  for (i = 0; i < 0x7fffffffffffffff; i++) {}\n"
      "  return 0;\n"
      "}\n");
  // Under schedule(dynamic) every worker scans the iterations it does not
  // own; that scan touches no memory even when the body does.
  expect_silent_loop_fault(
      "int main() {\n"
      "  long i; long x = 0;\n"
      "#pragma omp parallel for schedule(dynamic, 4294967296)\n"
      "  for (i = 0; i < 0x7fffffffffffffff; i++) { x = i; }\n"
      "  return 0;\n"
      "}\n");
}

TEST(Interp, ThousandElementProgramRuns) {
  auto r = run_src(
      "int main() { int a[1000]; int s = 0; for (int i = 0; i < 1000; i++) "
      "a[i] = i; for (int i = 0; i < 1000; i++) s += a[i]; printf(\"%d\", "
      "s); return 0; }");
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_EQ(r.output, "499500");
}

TEST(Interp, PointerArithmetic) {
  auto r = run_src(
      "int main() { int a[5]; for (int i = 0; i < 5; i++) a[i] = i * i; "
      "int* p = a; p = p + 2; printf(\"%d %d\", *p, p[1]); return 0; }");
  EXPECT_EQ(r.output, "4 9");
}

TEST(Interp, TernaryAndLogicalShortCircuit) {
  auto r = run_src(
      "int main() { int a[2]; a[0] = 1; int i = 5; int v = (i < 2 && a[i]) "
      "? 1 : 0; printf(\"%d\", v); return 0; }");
  // a[i] must not be evaluated (it would be out of bounds).
  EXPECT_FALSE(r.faulted);
  EXPECT_EQ(r.output, "0");
}

// ---------------------------------------------------------------- parallel

TEST(Parallel, ReductionComputesCorrectSum) {
  auto r = run_src(
      "int main() {\n"
      "  int sum = 0;\n"
      "#pragma omp parallel for reduction(+:sum)\n"
      "  for (int i = 1; i <= 100; i++) sum += i;\n"
      "  printf(\"%d\", sum);\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_EQ(r.output, "5050");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, ParallelForWritesAllElements) {
  auto r = run_src(
      "int main() {\n"
      "  int a[64];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 64; i++) a[i] = i;\n"
      "  int bad = 0;\n"
      "  for (int i = 0; i < 64; i++) if (a[i] != i) bad++;\n"
      "  printf(\"%d\", bad);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "0");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, CriticalCounterIsExact) {
  auto r = run_src(
      "int main() {\n"
      "  int count = 0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 50; i++) {\n"
      "#pragma omp critical\n"
      "    { count = count + 1; }\n"
      "  }\n"
      "  printf(\"%d\", count);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "50");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, AtomicCounterIsExactAndRaceFree) {
  auto r = run_src(
      "int main() {\n"
      "  int count = 0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 50; i++) {\n"
      "#pragma omp atomic\n"
      "    count += 1;\n"
      "  }\n"
      "  printf(\"%d\", count);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "50");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, ThreadNumAndNumThreads) {
  auto r = run_src(
      "int main() {\n"
      "  int seen[16];\n"
      "  for (int i = 0; i < 16; i++) seen[i] = 0;\n"
      "#pragma omp parallel num_threads(4)\n"
      "  { seen[omp_get_thread_num()] = omp_get_num_threads(); }\n"
      "  printf(\"%d%d%d%d\", seen[0], seen[1], seen[2], seen[3]);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "4444");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, CompoundClauseArgumentsAreEvaluated) {
  // num_threads(n + 1) and if(n > 2) are C expressions over program
  // variables, not names.
  auto r = run_src(
      "int main() {\n"
      "  int n = 2;\n"
      "  int count = 0;\n"
      "#pragma omp parallel num_threads(n + 1)\n"
      "  {\n"
      "#pragma omp critical\n"
      "    count = count + omp_get_num_threads();\n"
      "  }\n"
      "#pragma omp parallel if(n > 2)\n"
      "  {\n"
      "#pragma omp critical\n"
      "    count = count + 10 * omp_get_num_threads();\n"
      "  }\n"
      "  printf(\"%d\", count);\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_EQ(r.output, "19");  // 3 threads of 3, then one thread of 10
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, OmpLockProtects) {
  auto r = run_src(
      "int main() {\n"
      "  omp_lock_t lck;\n"
      "  int count = 0;\n"
      "  omp_init_lock(&lck);\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 40; i++) {\n"
      "    omp_set_lock(&lck);\n"
      "    count = count + 1;\n"
      "    omp_unset_lock(&lck);\n"
      "  }\n"
      "  omp_destroy_lock(&lck);\n"
      "  printf(\"%d\", count);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "40");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, FirstprivateCopiesValue) {
  auto r = run_src(
      "int main() {\n"
      "  int base = 7;\n"
      "  int a[32];\n"
      "#pragma omp parallel for firstprivate(base)\n"
      "  for (int i = 0; i < 32; i++) a[i] = base + i;\n"
      "  printf(\"%d %d\", a[0], a[31]);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "7 38");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, LastprivateWritesBack) {
  auto r = run_src(
      "int main() {\n"
      "  int last = -1;\n"
      "  int a[32];\n"
      "  for (int i = 0; i < 32; i++) a[i] = i * 2;\n"
      "#pragma omp parallel for lastprivate(last)\n"
      "  for (int i = 0; i < 32; i++) last = a[i];\n"
      "  printf(\"%d\", last);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "62");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, SingleExecutesOnce) {
  auto r = run_src(
      "int main() {\n"
      "  int count = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp single\n"
      "    { count = count + 1; }\n"
      "  }\n"
      "  printf(\"%d\", count);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "1");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, SectionsRunAll) {
  auto r = run_src(
      "int main() {\n"
      "  int x = 0;\n"
      "  int y = 0;\n"
      "#pragma omp parallel sections\n"
      "  {\n"
      "#pragma omp section\n"
      "    { x = 11; }\n"
      "#pragma omp section\n"
      "    { y = 22; }\n"
      "  }\n"
      "  printf(\"%d %d\", x, y);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "11 22");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, OrderedPreservesOrder) {
  auto r = run_src(
      "int main() {\n"
      "  int log[10];\n"
      "  int pos = 0;\n"
      "#pragma omp parallel for ordered\n"
      "  for (int i = 0; i < 10; i++) {\n"
      "#pragma omp ordered\n"
      "    { log[pos] = i; pos = pos + 1; }\n"
      "  }\n"
      "  int bad = 0;\n"
      "  for (int i = 0; i < 10; i++) if (log[i] != i) bad++;\n"
      "  printf(\"%d\", bad);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "0");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, TaskProducesResultWithTaskwait) {
  auto r = run_src(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "#pragma omp single\n"
      "  {\n"
      "#pragma omp task\n"
      "    { x = 42; }\n"
      "#pragma omp taskwait\n"
      "    printf(\"%d\", x);\n"
      "  }\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "42");
  EXPECT_FALSE(r.report.race_detected);
}

TEST(Parallel, ScheduleStaticChunk) {
  auto r = run_src(
      "int main() {\n"
      "  int a[40];\n"
      "#pragma omp parallel for schedule(static, 2)\n"
      "  for (int i = 0; i < 40; i++) a[i] = i + 1;\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 40; i++) s += a[i];\n"
      "  printf(\"%d\", s);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "820");
}

TEST(Parallel, CollapseCoversFullSpace) {
  auto r = run_src(
      "int main() {\n"
      "  int m[6][7];\n"
      "#pragma omp parallel for collapse(2)\n"
      "  for (int i = 0; i < 6; i++)\n"
      "    for (int j = 0; j < 7; j++)\n"
      "      m[i][j] = 1;\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 6; i++)\n"
      "    for (int j = 0; j < 7; j++)\n"
      "      s += m[i][j];\n"
      "  printf(\"%d\", s);\n"
      "  return 0;\n"
      "}");
  EXPECT_EQ(r.output, "42");
  EXPECT_FALSE(r.report.race_detected);
}

// ------------------------------------------------------------ race detection

// A run that forks no team takes no schedule decision, so the detector
// runs it once, whatever its seed list; a run that forks one runs every
// seed.
TEST(DynamicRace, TeamlessProgramRunsOnce) {
  obs::Counter& runs = obs::metrics().counter(obs::kVmRuns);
  obs::Counter& replays = obs::metrics().counter(obs::kInterpReplays);
  const auto costs = [&](const char* src) {
    const std::uint64_t runs_before = runs.value();
    const std::uint64_t replays_before = replays.value();
    (void)detect(src);
    return std::pair{runs.value() - runs_before,
                     replays.value() - replays_before};
  };
  const std::pair<std::uint64_t, std::uint64_t> once{1, 1};
  EXPECT_EQ(costs("int main() { int x = 1; printf(\"%d\\n\", x); return 0; }"),
            once);
  EXPECT_EQ(costs("int main() { while (1) {} return 0; }"), once);
  EXPECT_EQ(costs("int g;\nvoid f() { g = 1; }\n"), once);
  const std::pair<std::uint64_t, std::uint64_t> every_seed{3, 3};
  EXPECT_EQ(costs("int main() { int x = 0;\n#pragma omp parallel\n"
                  "  { x = 1; }\n  return x; }"),
            every_seed);
  // A one-thread team is a team too.
  EXPECT_EQ(costs("int main() { int x = 0;\n"
                  "#pragma omp parallel num_threads(1)\n"
                  "  { x = 1; }\n  return x; }"),
            every_seed);
}

TEST(DynamicRace, FaultBeforeAnyTeamIsReportedOnce) {
  for (const char* src : {"int main() { while (1) {} return 0; }",
                          "int g;\nvoid f() { g = 1; }\n"}) {
    const analysis::RaceReport report = detect(src);
    int faults = 0;
    for (const std::string& d : report.diagnostics) {
      if (d.rfind("dynamic: run faulted: ", 0) == 0) ++faults;
    }
    EXPECT_EQ(faults, 1) << src;
    EXPECT_EQ(report.diagnostics.back(),
              "dynamic: no happens-before violation observed");
  }
}

TEST(DynamicRace, RunReportsWhetherItForkedATeam) {
  // Whether the last run of `src` forked a team: its region list.
  const auto forked_team = [](const char* src) {
    CompiledProgram program(src);
    const RunResult r = program.run({});
    return std::pair{!program.regions().empty(), r.faulted};
  };
  EXPECT_FALSE(forked_team("int main() { return 0; }").first);
  EXPECT_FALSE(forked_team("int main() { while (1) {} return 0; }").first);
  EXPECT_TRUE(forked_team("int main() {\n#pragma omp parallel\n  { }\n"
                          "  return 0; }")
                  .first);
  // Forked before the fault.
  const auto late = forked_team(
      "int main() {\n#pragma omp parallel\n  { }\n"
      "  while (1) {}\n  return 0; }");
  EXPECT_TRUE(late.second);
  EXPECT_TRUE(late.first);
}

TEST(DynamicRace, AntiDependenceDetected) {
  auto report = detect(
      "int main() {\n"
      "  int a[100];\n"
      "  for (int i = 0; i < 100; i++) a[i] = i;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 99; i++) a[i] = a[i+1] + 1;\n"
      "  return 0;\n"
      "}");
  ASSERT_TRUE(report.race_detected);
  EXPECT_EQ(report.pairs[0].first.var_name, "a");
  EXPECT_EQ(report.pairs[0].first.op, 'w');
}

TEST(DynamicRace, SharedSumDetected) {
  auto report = detect(
      "int main() {\n"
      "  int sum = 0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 64; i++) sum = sum + i;\n"
      "  return sum;\n"
      "}");
  ASSERT_TRUE(report.race_detected);
  EXPECT_EQ(report.pairs[0].first.var_name, "sum");
}

TEST(DynamicRace, DisjointWritesClean) {
  auto report = detect(
      "int main() {\n"
      "  int a[128];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 128; i++) a[i] = i;\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(report.race_detected);
}

TEST(DynamicRace, IndirectIndexRealRaceDetected) {
  // All idx entries collide on element 0: a genuine race a static tool can
  // only guess at.
  auto report = detect(
      "int main() {\n"
      "  int idx[64];\n"
      "  int a[64];\n"
      "  for (int i = 0; i < 64; i++) idx[i] = 0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 64; i++) a[idx[i]] = i;\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(report.race_detected);
}

TEST(DynamicRace, IndirectIndexDisjointClean) {
  auto report = detect(
      "int main() {\n"
      "  int idx[64];\n"
      "  int a[64];\n"
      "  for (int i = 0; i < 64; i++) idx[i] = i;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 64; i++) a[idx[i]] = i;\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(report.race_detected);
}

TEST(DynamicRace, MasterNoBarrierDetected) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp master\n"
      "    { x = 1; }\n"
      "    int y = x + 1;\n"
      "    y = y + 1;\n"
      "  }\n"
      "  return x;\n"
      "}");
  EXPECT_TRUE(report.race_detected);
}

TEST(DynamicRace, SingleBarrierClean) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp single\n"
      "    { x = 1; }\n"
      "    int y = x + 1;\n"
      "    y = y + 1;\n"
      "  }\n"
      "  return x;\n"
      "}");
  EXPECT_FALSE(report.race_detected);
}

TEST(DynamicRace, NowaitLoopsDetected) {
  auto report = detect(
      "int main() {\n"
      "  int a[64];\n"
      "  int b[64];\n"
      "  for (int i = 0; i < 64; i++) a[i] = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp for nowait\n"
      "    for (int i = 0; i < 64; i++) a[i] = i;\n"
      "#pragma omp for\n"
      "    for (int i = 0; i < 64; i++) b[i] = a[63 - i];\n"
      "  }\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(report.race_detected);
}

TEST(DynamicRace, BarrierSeparatedLoopsClean) {
  auto report = detect(
      "int main() {\n"
      "  int a[64];\n"
      "  int b[64];\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp for\n"
      "    for (int i = 0; i < 64; i++) a[i] = i;\n"
      "#pragma omp for\n"
      "    for (int i = 0; i < 64; i++) b[i] = a[63 - i];\n"
      "  }\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(report.race_detected);
}

TEST(DynamicRace, TasksWithoutSyncDetected) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "#pragma omp single\n"
      "  {\n"
      "#pragma omp task\n"
      "    { x = 1; }\n"
      "#pragma omp task\n"
      "    { x = 2; }\n"
      "  }\n"
      "  return x;\n"
      "}");
  EXPECT_TRUE(report.race_detected);
}

TEST(DynamicRace, TaskDependClean) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "#pragma omp single\n"
      "  {\n"
      "#pragma omp task depend(out: x)\n"
      "    { x = 1; }\n"
      "#pragma omp task depend(in: x)\n"
      "    { int y = x; y = y + 1; }\n"
      "  }\n"
      "  return x;\n"
      "}");
  EXPECT_FALSE(report.race_detected);
}

TEST(DynamicRace, ResultsAreDeterministic) {
  const char* src =
      "int main() {\n"
      "  int sum = 0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 32; i++) sum = sum + i;\n"
      "  return sum;\n"
      "}";
  RunOptions opts;
  opts.seed = 7;
  auto a = CompiledProgram(src).run(opts);
  auto b = CompiledProgram(src).run(opts);
  EXPECT_EQ(a.report.pairs.size(), b.report.pairs.size());
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(DynamicRace, RaceReportCoordinatesAreTrimmed) {
  auto report = detect(
      "/* two comment lines\n"
      "   before code */\n"
      "int main() {\n"
      "  int a[50];\n"
      "  for (int i = 0; i < 50; i++) a[i] = i;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 49; i++)\n"
      "    a[i] = a[i+1] + 1;\n"
      "  return 0;\n"
      "}");
  ASSERT_TRUE(report.race_detected);
  EXPECT_EQ(report.pairs[0].first.loc.line, 6);  // trimmed coordinates
}

// ---------------------------------------------------------- prefix snapshot

void expect_same_run(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.report.race_detected, want.report.race_detected);
  EXPECT_EQ(got.report.pairs, want.report.pairs);
  EXPECT_EQ(got.report.diagnostics, want.report.diagnostics);
  EXPECT_EQ(got.exit_code, want.exit_code);
  EXPECT_EQ(got.faulted, want.faulted);
  EXPECT_EQ(got.fault_message, want.fault_message);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.coverage, want.coverage);
  EXPECT_EQ(got.output, want.output);
}

struct Resumed {
  RunResult result;       // the second run on the snapshot
  bool restored = false;  // whether that run resumed from it
};

/// Runs `src` under PCT seeds 1 and 2 on one module, once sharing a
/// snapshot (seed 1 may fill it, seed 2 may resume from it) and once from
/// main, and expects each pair of results equal. `second` adjusts the
/// options of the seed-2 runs.
Resumed run_with_snapshot(const char* src,
                          void (*second)(RunOptions&) = nullptr,
                          RunOptions opts = {}) {
  minic::Program p = minic::parse_program(src);
  analysis::Resolution res = analysis::resolve(*p.unit);
  const bc::Module module = bc::compile_verified(*p.unit);
  opts.module = &module;
  opts.strategy = ScheduleStrategy::Pct;
  opts.capture_trace = true;
  opts.collect_coverage = true;
  PrefixSnapshot prefix;
  obs::Counter& restores = obs::metrics().counter(obs::kVmPrefixRestores);

  RunOptions first = opts;
  first.prefix = &prefix;
  const RunResult first_run = run_program(*p.unit, res, first);
  first.prefix = nullptr;
  expect_same_run(first_run, run_program(*p.unit, res, first));

  RunOptions later = opts;
  later.seed = 2;
  if (second != nullptr) second(later);
  later.prefix = &prefix;
  const std::uint64_t before = restores.value();
  Resumed out;
  out.result = run_program(*p.unit, res, later);
  out.restored = restores.value() == before + 1;
  later.prefix = nullptr;
  expect_same_run(out.result, run_program(*p.unit, res, later));
  return out;
}

TEST(PrefixSnapshot, OmpSetNumThreads) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int seen[16];\n"
      "  omp_set_num_threads(3);\n"
      "#pragma omp parallel\n"
      "  { seen[omp_get_thread_num()] = omp_get_num_threads(); }\n"
      "  printf(\"%d %d %d\", seen[0], seen[2], omp_get_max_threads());\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.restored);
  EXPECT_EQ(r.result.output, "3 3 3");
}

TEST(PrefixSnapshot, RandState) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[4];\n"
      "  srand(42);\n"
      "  int first = rand();\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 4; i++) a[i] = i;\n"
      "  printf(\"%d %d\", first, rand());\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.restored);
}

TEST(PrefixSnapshot, PointerPrintsOfPrefixObjects) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[4];\n"
      "  int* h = (int*)malloc(4);\n"
      "  printf(\"%p %p\\n\", a, h);\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 4; i++) a[i] = i;\n"
      "  int* g = (int*)malloc(2);\n"
      "  printf(\"%p %p %p\\n\", a, h, g);\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.restored);
  EXPECT_NE(r.result.output.find('\n'), std::string::npos);
}

TEST(PrefixSnapshot, MallocAndFree) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int* p = (int*)malloc(8);\n"
      "  int* q = (int*)malloc(8);\n"
      "  free(p);\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) q[i] = i;\n"
      "  printf(\"%d\", q[7]);\n"
      "  p[0] = 1;\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.restored);
  EXPECT_EQ(r.result.output, "7");
  EXPECT_TRUE(r.result.faulted);
  EXPECT_NE(r.result.fault_message.find("use after free"), std::string::npos);
}

TEST(PrefixSnapshot, LockApi) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  omp_lock_t held;\n"
      "  omp_lock_t spare;\n"
      "  int count = 0;\n"
      "  omp_init_lock(&held);\n"
      "  omp_init_lock(&spare);\n"
      "  omp_set_lock(&held);\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) {\n"
      "    omp_set_lock(&spare);\n"
      "    count = count + 1;\n"
      "    omp_unset_lock(&spare);\n"
      "  }\n"
      "  printf(\"%d %d %d\", count, omp_test_lock(&held),\n"
      "         omp_test_lock(&spare));\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.restored);
  EXPECT_EQ(r.result.output, "8 0 1");
}

TEST(PrefixSnapshot, StringLiteral) {
  const Resumed r = run_with_snapshot(
      "char* name() { return \"lit\"; }\n"
      "int main() {\n"
      "  int a[4];\n"
      "  char* before = name();\n"
      "  printf(\"%s %p\\n\", before, before);\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 4; i++) a[i] = i;\n"
      "  char* after = name();\n"
      "  printf(\"%d %p\\n\", before == after, after);\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.restored);
  EXPECT_NE(r.result.output.find("\n1 "), std::string::npos)
      << r.result.output;
}

TEST(PrefixSnapshot, OrphanedConstructsBeforeTheFork) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[8];\n"
      "  int n = 0;\n"
      "#pragma omp for\n"
      "  for (int i = 0; i < 8; i++) a[i] = i;\n"
      "#pragma omp critical\n"
      "  { n = n + 1; }\n"
      "#pragma omp single\n"
      "  { n = n + 10; }\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) a[i] = a[i] + n;\n"
      "  printf(\"%d %d\", a[0], a[7]);\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.restored);
  EXPECT_EQ(r.result.output, "11 18");
}

TEST(PrefixSnapshot, FirstForkInsideALoop) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[8];\n"
      "  int total = 0;\n"
      "  for (int k = 1; k <= 3; k++) {\n"
      "    int scale = k * 2;\n"
      "#pragma omp parallel for\n"
      "    for (int i = 0; i < 8; i++) a[i] = i * scale;\n"
      "    total = total + a[7];\n"
      "  }\n"
      "  printf(\"%d\", total);\n"
      "  return total;\n"
      "}");
  EXPECT_TRUE(r.restored);
  EXPECT_EQ(r.result.output, "84");
  EXPECT_EQ(r.result.exit_code, 84);
}

TEST(PrefixSnapshot, ClausesReadPrefixVariables) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int seen[16];\n"
      "  int n = 3;\n"
      "  int serial = 0;\n"
      "#pragma omp parallel num_threads(n)\n"
      "  { seen[omp_get_thread_num()] = omp_get_num_threads(); }\n"
      "#pragma omp parallel if(serial)\n"
      "  { seen[omp_get_thread_num()] = omp_get_num_threads(); }\n"
      "  printf(\"%d %d\", seen[0], seen[2]);\n"
      "  return 0;\n"
      "}");
  EXPECT_TRUE(r.restored);
  EXPECT_EQ(r.result.output, "1 3");
}

TEST(PrefixSnapshot, SerialStepLimitCountsThePrefix) {
  // 25 serial steps before the fork and 25 after: the limit of 30 is
  // crossed after the region only if the prefix's steps still count.
  RunOptions opts;
  opts.step_limit = 30;
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[4];\n"
      "  for (int i = 0; i < 4; i++) a[i] = i;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 4; i++) a[i] = a[i] + 1;\n"
      "  for (int i = 0; i < 4; i++) a[i] = i;\n"
      "  return 0;\n"
      "}",
      nullptr, opts);
  EXPECT_TRUE(r.restored);
  EXPECT_TRUE(r.result.faulted);
  EXPECT_NE(r.result.fault_message.find("serial step limit"),
            std::string::npos)
      << r.result.fault_message;
}

TEST(PrefixSnapshot, OptionsOutsideTheScheduleStartFromMain) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[8];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) a[i] = omp_get_num_threads();\n"
      "  printf(\"%d\", a[0]);\n"
      "  return 0;\n"
      "}",
      [](RunOptions& o) { o.num_threads = 2; });
  EXPECT_FALSE(r.restored);
  EXPECT_EQ(r.result.output, "2");
}

TEST(PrefixSnapshot, ForkOnlyThroughACallStartsFromMain) {
  const Resumed r = run_with_snapshot(
      "int a[8];\n"
      "void work() {\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) a[i] = a[i] + i;\n"
      "}\n"
      "int main() {\n"
      "  for (int i = 0; i < 8; i++) a[i] = 1;\n"
      "  work();\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) a[i] = a[i] * 2;\n"
      "  printf(\"%d\", a[7]);\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(r.restored);
  EXPECT_EQ(r.result.output, "16");
}

TEST(PrefixSnapshot, ForkInsideTargetStartsFromMain) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[8];\n"
      "  for (int i = 0; i < 8; i++) a[i] = 1;\n"
      "#pragma omp target\n"
      "  {\n"
      "#pragma omp parallel for\n"
      "    for (int i = 0; i < 8; i++) a[i] = a[i] + i;\n"
      "  }\n"
      "  printf(\"%d\", a[7]);\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(r.restored);
  EXPECT_EQ(r.result.output, "8");
}

TEST(PrefixSnapshot, PrefixThatExitsStartsFromMain) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[8];\n"
      "  printf(\"bye\");\n"
      "  exit(3);\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) a[i] = i;\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(r.restored);
  EXPECT_EQ(r.result.exit_code, 3);
  EXPECT_EQ(r.result.output, "bye");
}

TEST(PrefixSnapshot, PrefixThatFaultsStartsFromMain) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int a[8];\n"
      "  a[8] = 1;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) a[i] = i;\n"
      "  return 0;\n"
      "}");
  EXPECT_FALSE(r.restored);
  EXPECT_TRUE(r.result.faulted);
}

TEST(PrefixSnapshot, ProgramWithoutARegionStartsFromMain) {
  const Resumed r = run_with_snapshot(
      "int main() {\n"
      "  int s = 0;\n"
      "  for (int i = 1; i <= 4; i++) s = s + i;\n"
      "  return s;\n"
      "}");
  EXPECT_FALSE(r.restored);
  EXPECT_EQ(r.result.exit_code, 10);
}

// ------------------------------------------------------------ run storage
//
// The runs of one CompiledProgram reuse the storage the runs before them
// filled: memory arenas, thread contexts, team state, schedulers, fibers
// and deciders. A resumed run copies the prefix snapshot back into that
// storage.

/// operator new calls made while `fn` runs.
template <class F>
std::uint64_t allocations(F&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// A kernel whose serial prefix fills an `n`-element array.
std::string prefix_kernel(int n) {
  return "int main() {\n"
         "  int a[" + std::to_string(n) + "];\n"
         "  for (int i = 0; i < " + std::to_string(n) + "; i++) a[i] = i;\n"
         "#pragma omp parallel for\n"
         "  for (int i = 0; i < 8; i++) a[i] = a[i] + 1;\n"
         "  printf(\"%d\\n\", a[7]);\n"
         "  return 0;\n"
         "}\n";
}

TEST(RunStorage, ResumedRunAllocatesTheSameForAnyPrefixSize) {
  obs::Counter& restores = obs::metrics().counter(obs::kVmPrefixRestores);
  std::uint64_t counts[2] = {};
  const int sizes[2] = {10, 1000};
  for (int k = 0; k < 2; ++k) {
    CompiledProgram program(prefix_kernel(sizes[k]));
    RunOptions opts;
    opts.strategy = ScheduleStrategy::Pct;
    (void)program.run(opts);  // fills the snapshot
    opts.seed = 2;
    (void)program.run(opts);  // resumes; sizes the storage
    opts.seed = 3;
    const std::uint64_t restored = restores.value();
    RunResult r;
    counts[k] = allocations([&] { r = program.run(opts); });
    EXPECT_EQ(restores.value(), restored + 1) << sizes[k];
    EXPECT_FALSE(r.faulted) << r.fault_message;
    EXPECT_EQ(r.output, "8\n");
  }
  EXPECT_EQ(counts[0], counts[1]);
}

// Allocations of the 2nd to 24th runs of a 24-schedule PCT exploration's
// worth of runs, with trace and coverage capture on as exploration has
// them. What is left is the results' own buffers: per run, the region
// list (two allocations as it grows), the two regions' decision traces
// and the coverage. Measured at 115 for this kernel, five per run; when
// every run rebuilt its storage, the same runs made 4,726.
TEST(RunStorage, LaterPctRunsOfAProgramStayUnderABound) {
  CompiledProgram program(
      "int main() {\n"
      "  int a[64];\n"
      "  int sum = 0;\n"
      "  for (int i = 0; i < 64; i++) a[i] = i;\n"
      "#pragma omp parallel for reduction(+ : sum)\n"
      "  for (int i = 0; i < 64; i++) sum = sum + a[i];\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp critical\n"
      "    a[0] = a[0] + 1;\n"
      "#pragma omp barrier\n"
      "#pragma omp single\n"
      "    a[1] = a[0];\n"
      "  }\n"
      "  printf(\"%d %d\\n\", sum, a[1]);\n"
      "  return 0;\n"
      "}\n");
  RunOptions opts;
  opts.strategy = ScheduleStrategy::Pct;
  opts.capture_trace = true;
  opts.collect_coverage = true;
  (void)program.run(opts);
  const std::uint64_t later = allocations([&] {
    for (std::uint64_t seed = 2; seed <= 24; ++seed) {
      opts.seed = seed;
      const RunResult r = program.run(opts);
      EXPECT_FALSE(r.faulted) << r.fault_message;
      EXPECT_EQ(r.output, "2016 4\n");
    }
  });
  EXPECT_LE(later, 115u);
}

}  // namespace
}  // namespace drbml::runtime
