// Property-based and differential tests.
//
// 1. Dependence-test oracle: for generated affine subscript pairs with
//    small known bounds, brute-force enumeration of the iteration space
//    decides whether a cross-thread conflict exists; the analytical
//    classify_conflict must agree (exactly, since everything is affine).
// 2. Detector differential testing: a deterministic random OpenMP kernel
//    generator produces simple loop programs; on this restricted shape
//    the conservative static detector must flag every race the dynamic
//    detector observes, and the dynamic detector must report no race on
//    programs the optimistic static analysis proves disjoint.
#include <gtest/gtest.h>

#include <string>

#include "analysis/race.hpp"
#include "runtime/dynamic.hpp"
#include "support/rng.hpp"

namespace drbml {
namespace {

// ---------------------------------------------------------------------------
// 1. Affine dependence oracle sweep
//
// Kernel shape:  #pragma omp parallel for
//                for (i = 0; i < N; i++) a[c1*i + d1] = a[c2*i + d2] + 1;
// Cross-thread conflict truth: exists i1 != i2 in [0,N) with
// c1*i1 + d1 == c2*i2 + d2 (write/read) or c1*i1+d1 == c1*i2+d1 (w/w,
// only when c1 == 0). All indices are kept in range by construction.

struct AffineCase {
  int c1, d1, c2, d2, n;
};

bool brute_force_conflict(const AffineCase& k) {
  for (int i1 = 0; i1 < k.n; ++i1) {
    for (int i2 = 0; i2 < k.n; ++i2) {
      if (i1 == i2) continue;
      if (k.c1 * i1 + k.d1 == k.c2 * i2 + k.d2) return true;  // w vs r
      if (k.c1 * i1 + k.d1 == k.c1 * i2 + k.d1) return true;  // w vs w
    }
  }
  return false;
}

std::string render_affine_kernel(const AffineCase& k, int array_size) {
  auto term = [](int c, int d) {
    std::string s;
    if (c == 0) {
      s = std::to_string(d);
    } else if (c == 1) {
      s = "i";
      if (d != 0) s += (d > 0 ? "+" : "") + std::to_string(d);
    } else {
      s = std::to_string(c) + "*i";
      if (d != 0) s += (d > 0 ? "+" : "") + std::to_string(d);
    }
    return s;
  };
  std::string code = "int main() {\n";
  code += "  int i;\n";
  code += "  int a[" + std::to_string(array_size) + "];\n";
  code += "  for (i = 0; i < " + std::to_string(array_size) +
          "; i++) a[i] = i;\n";
  code += "#pragma omp parallel for\n";
  code += "  for (i = 0; i < " + std::to_string(k.n) + "; i++)\n";
  code += "    a[" + term(k.c1, k.d1) + "] = a[" + term(k.c2, k.d2) +
          "] + 1;\n";
  code += "  return 0;\n}\n";
  return code;
}

class AffineOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(AffineOracleTest, StaticMatchesBruteForce) {
  Rng rng = Rng::from_key("affine-oracle/" + std::to_string(GetParam()));
  AffineCase k;
  k.n = static_cast<int>(rng.between(4, 16));
  k.c1 = static_cast<int>(rng.between(0, 3));
  k.c2 = static_cast<int>(rng.between(0, 3));
  // Offsets chosen to keep indices in [0, array_size).
  k.d1 = static_cast<int>(rng.between(0, 8));
  k.d2 = static_cast<int>(rng.between(0, 8));
  const int max_index =
      std::max(k.c1 * (k.n - 1) + k.d1, k.c2 * (k.n - 1) + k.d2);
  const int array_size = std::max(max_index + 1, k.n);

  const bool truth = brute_force_conflict(k);
  const std::string code = render_affine_kernel(k, array_size);

  analysis::StaticRaceDetector detector;  // full modelling, conservative
  const bool flagged = detector.analyze_source(code).race_detected;
  EXPECT_EQ(flagged, truth)
      << "kernel:\n" << code << "c1=" << k.c1 << " d1=" << k.d1
      << " c2=" << k.c2 << " d2=" << k.d2 << " n=" << k.n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AffineOracleTest, ::testing::Range(0, 120));

// ---------------------------------------------------------------------------
// 1b. Two-dimensional collapse(2) oracle sweep
//
// Kernel: #pragma omp parallel for collapse(2)
//         for (i) for (j) m[i + di1][j + dj1] = m[i + di2][j + dj2] + 1;
// With collapse(2) every (i, j) iteration may run on a different thread,
// so a cross-thread conflict exists iff two distinct iterations touch the
// same element.

struct Affine2D {
  int di1, dj1, di2, dj2, ni, nj;
};

bool brute_force_conflict_2d(const Affine2D& k) {
  for (int i1 = 0; i1 < k.ni; ++i1) {
    for (int j1 = 0; j1 < k.nj; ++j1) {
      for (int i2 = 0; i2 < k.ni; ++i2) {
        for (int j2 = 0; j2 < k.nj; ++j2) {
          if (i1 == i2 && j1 == j2) continue;
          // write (i1,j1) vs read (i2,j2)
          if (i1 + k.di1 == i2 + k.di2 && j1 + k.dj1 == j2 + k.dj2) {
            return true;
          }
          // write vs write
          if (i1 + k.di1 == i2 + k.di1 && j1 + k.dj1 == j2 + k.dj1) {
            return true;  // only when iterations coincide -- they don't
          }
        }
      }
    }
  }
  return false;
}

std::string render_2d_kernel(const Affine2D& k) {
  const int rows = k.ni + std::max(k.di1, k.di2) + 1;
  const int cols = k.nj + std::max(k.dj1, k.dj2) + 1;
  auto idx = [](const char* v, int d) {
    std::string s = v;
    if (d != 0) s += "+" + std::to_string(d);
    return s;
  };
  std::string code = "int main() {\n  int i;\n  int j;\n";
  code += "  double m[" + std::to_string(rows) + "][" +
          std::to_string(cols) + "];\n";
  code += "  for (i = 0; i < " + std::to_string(rows) + "; i++)\n";
  code += "    for (j = 0; j < " + std::to_string(cols) + "; j++)\n";
  code += "      m[i][j] = i + j;\n";
  code += "#pragma omp parallel for collapse(2)\n";
  code += "  for (i = 0; i < " + std::to_string(k.ni) + "; i++)\n";
  code += "    for (j = 0; j < " + std::to_string(k.nj) + "; j++)\n";
  code += "      m[" + idx("i", k.di1) + "][" + idx("j", k.dj1) + "] = m[" +
          idx("i", k.di2) + "][" + idx("j", k.dj2) + "] + 1.0;\n";
  code += "  return 0;\n}\n";
  return code;
}

class Affine2DOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(Affine2DOracleTest, StaticMatchesBruteForce) {
  Rng rng = Rng::from_key("affine2d-oracle/" + std::to_string(GetParam()));
  Affine2D k;
  k.ni = static_cast<int>(rng.between(3, 8));
  k.nj = static_cast<int>(rng.between(3, 8));
  k.di1 = static_cast<int>(rng.between(0, 2));
  k.dj1 = static_cast<int>(rng.between(0, 2));
  k.di2 = static_cast<int>(rng.between(0, 2));
  k.dj2 = static_cast<int>(rng.between(0, 2));

  const bool truth = brute_force_conflict_2d(k);
  const std::string code = render_2d_kernel(k);
  analysis::StaticRaceDetector detector;
  EXPECT_EQ(detector.analyze_source(code).race_detected, truth)
      << code;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Affine2DOracleTest, ::testing::Range(0, 80));

// ---------------------------------------------------------------------------
// 2. Random kernel generator + detector differential testing

struct GeneratedProgram {
  std::string code;
  bool uses_sync = false;
};

/// Generates a simple parallel-for kernel over one shared array with a
/// random body drawn from known-safe and known-unsafe statement shapes.
GeneratedProgram generate_kernel(std::uint64_t seed) {
  Rng rng(seed);
  GeneratedProgram out;
  const int n = static_cast<int>(rng.between(8, 40));
  const int pad = 10;
  std::string body;
  const int shape = static_cast<int>(rng.between(0, 7));
  switch (shape) {
    case 0: body = "    a[i] = i;\n"; break;
    case 1: body = "    a[i] = a[i] + 1;\n"; break;
    case 2: body = "    a[i] = a[i+1] + 1;\n"; break;
    case 3: body = "    a[i+1] = a[i] + 1;\n"; break;
    case 4: body = "    s = s + a[i];\n"; break;
    case 5:
      body = "    if (i % 2 == 0)\n      a[i] = i;\n    else\n      a[i] = "
             "-i;\n";
      break;
    case 6: body = "    a[2*i] = a[2*i+1] + 1;\n"; break;
    case 7: body = "    a[i] = a[i+5] + 1;\n"; break;
    default: body = "    a[i] = i;\n"; break;
  }
  const bool wrap_critical = shape == 4 && rng.chance(0.5);
  if (wrap_critical) {
    body = "#pragma omp critical\n    { s = s + a[i]; }\n";
    out.uses_sync = true;
  }

  std::string code = "int main() {\n";
  code += "  int i;\n";
  code += "  int s = 0;\n";
  code += "  int a[" + std::to_string(2 * n + 2 * pad) + "];\n";
  code += "  for (i = 0; i < " + std::to_string(2 * n + 2 * pad) +
          "; i++) a[i] = i;\n";
  code += "#pragma omp parallel for\n";
  code += "  for (i = 0; i < " + std::to_string(n) + "; i++) {\n";
  code += body;
  code += "  }\n";
  code += "  return s;\n}\n";
  out.code = code;
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, DynamicFindingsAreSubsetOfConservativeStatic) {
  const GeneratedProgram prog =
      generate_kernel(0xD1FFu + static_cast<std::uint64_t>(GetParam()));

  analysis::StaticRaceDetector conservative;
  const bool static_flag =
      conservative.analyze_source(prog.code).race_detected;

  runtime::DynamicDetectorOptions opts;
  opts.schedule_seeds = {1, 2};
  runtime::DynamicRaceDetector dynamic_tool(opts);
  const analysis::RaceReport dyn = dynamic_tool.analyze_source(prog.code);

  // Soundness of the conservative static pass relative to observed
  // executions (on this call/task-free kernel shape).
  if (dyn.race_detected) {
    EXPECT_TRUE(static_flag) << prog.code;
  }
}

TEST_P(DifferentialTest, OptimisticProofImpliesNoObservedRace) {
  const GeneratedProgram prog =
      generate_kernel(0xFACEu + static_cast<std::uint64_t>(GetParam()));

  analysis::StaticDetectorOptions optimistic_opts;
  optimistic_opts.depend.conservative_nonaffine = false;
  analysis::StaticRaceDetector optimistic(optimistic_opts);
  const bool static_flag =
      optimistic.analyze_source(prog.code).race_detected;
  if (static_flag) return;  // nothing to check

  runtime::DynamicDetectorOptions opts;
  opts.schedule_seeds = {1, 2, 3};
  runtime::DynamicRaceDetector dynamic_tool(opts);
  EXPECT_FALSE(dynamic_tool.analyze_source(prog.code).race_detected)
      << prog.code;
}

TEST_P(DifferentialTest, ExecutionIsCleanAndDeterministic) {
  const GeneratedProgram prog =
      generate_kernel(0xBEEFu + static_cast<std::uint64_t>(GetParam()));
  runtime::RunOptions opts;
  opts.seed = 5;
  const runtime::RunResult a = runtime::CompiledProgram(prog.code).run(opts);
  const runtime::RunResult b = runtime::CompiledProgram(prog.code).run(opts);
  EXPECT_FALSE(a.faulted) << a.fault_message << "\n" << prog.code;
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.report.pairs.size(), b.report.pairs.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialTest, ::testing::Range(0, 60));

}  // namespace
}  // namespace drbml
