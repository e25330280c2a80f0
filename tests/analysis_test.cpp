// Unit tests for the static analysis substrate: resolution, constant
// propagation, affine forms, loop analysis, access collection, and the
// static race detector on canonical DRB-style patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/affine.hpp"
#include "analysis/consteval.hpp"
#include "analysis/race.hpp"
#include "analysis/resolve.hpp"
#include "minic/parser.hpp"

namespace drbml::analysis {
namespace {

using minic::Program;
using minic::parse_program;

RaceReport detect(const char* src, StaticDetectorOptions opts = {}) {
  StaticRaceDetector detector(opts);
  return detector.analyze_source(src);
}

// ------------------------------------------------------------- resolve

TEST(Resolve, BindsIdentifiersThroughScopes) {
  Program p = parse_program(
      "int g = 1;\n"
      "int main() { int g = 2; { int g = 3; g = g + 1; } return g; }\n");
  Resolution res = resolve(*p.unit);
  EXPECT_GE(res.all_decls.size(), 3u);
}

TEST(Resolve, TracksPointerAliases) {
  Program p = parse_program(
      "int main() { int a[10]; int* p; p = a; p[0] = 1; return 0; }\n");
  Resolution res = resolve(*p.unit);
  ASSERT_EQ(res.alias_target.size(), 1u);
  EXPECT_EQ(res.alias_target.begin()->second->name, "a");
}

TEST(Resolve, AliasThroughAddressOfElement) {
  Program p = parse_program(
      "int main() { int a[10]; int* p = &a[5]; *p = 1; return 0; }\n");
  Resolution res = resolve(*p.unit);
  ASSERT_FALSE(res.alias_target.empty());
  EXPECT_EQ(res.alias_target.begin()->second->name, "a");
}

// ------------------------------------------------------------- consteval

TEST(ConstEval, FoldsTopLevelConstants) {
  Program p = parse_program(
      "int main() { int len = 1000; int half = len / 2; return half; }\n");
  const auto* fn = p.unit->find_function("main");
  Resolution res = resolve(*p.unit);
  (void)res;
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* decl = minic::stmt_cast<minic::DeclStmt>(fn->body->body[1].get());
  EXPECT_EQ(cm.value_of(decl->decls[0].get()), 500);
}

TEST(ConstEval, PoisonsConditionalAssignments) {
  Program p = parse_program(
      "int main(int argc, char* argv[]) {\n"
      "  int n = 10;\n"
      "  if (argc > 1) n = 20;\n"
      "  return n;\n"
      "}\n");
  const auto* fn = p.unit->find_function("main");
  resolve(*p.unit);
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* decl = minic::stmt_cast<minic::DeclStmt>(fn->body->body[0].get());
  EXPECT_EQ(cm.value_of(decl->decls[0].get()), std::nullopt);
}

TEST(ConstEval, PoisonsLoopModifiedVariables) {
  Program p = parse_program(
      "int main() { int s = 0; for (int i = 0; i < 3; i++) s = s + i; "
      "return s; }\n");
  const auto* fn = p.unit->find_function("main");
  resolve(*p.unit);
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* decl = minic::stmt_cast<minic::DeclStmt>(fn->body->body[0].get());
  EXPECT_EQ(cm.value_of(decl->decls[0].get()), std::nullopt);
}

// ------------------------------------------------------------- affine

TEST(Affine, LinearizesSubscripts) {
  Program p = parse_program(
      "int main() { int len = 100; int a[100]; int i = 0; int x = 2*i + len "
      "- 1; return x; }\n");
  const auto* fn = p.unit->find_function("main");
  resolve(*p.unit);
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* decl = minic::stmt_cast<minic::DeclStmt>(fn->body->body[3].get());
  LinearForm f = linearize(*decl->decls[0]->init, cm);
  EXPECT_TRUE(f.is_affine);
  // i is constant 0 here, so everything folds: 2*0 + 100 - 1.
  EXPECT_TRUE(f.is_constant());
  EXPECT_EQ(f.constant, 99);
}

TEST(Affine, NonAffineOnIndirection) {
  Program p = parse_program(
      "int main() { int idx[10]; int i = 0; int x = idx[i]; return x; }\n");
  const auto* fn = p.unit->find_function("main");
  resolve(*p.unit);
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* decl = minic::stmt_cast<minic::DeclStmt>(fn->body->body[2].get());
  LinearForm f = linearize(*decl->decls[0]->init, cm);
  EXPECT_FALSE(f.is_affine);
}

// ------------------------------------------------------------- loop shapes

TEST(LoopAnalysis, RecognizesCanonicalLoops) {
  Program p = parse_program(
      "int main() { int n = 50;\n"
      "  for (int i = 2; i < n; i += 3) { }\n"
      "  return 0; }\n");
  const auto* fn = p.unit->find_function("main");
  resolve(*p.unit);
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* loop = minic::stmt_cast<minic::ForStmt>(fn->body->body[1].get());
  auto info = analyze_loop(*loop, cm);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->lower, 2);
  EXPECT_EQ(info->upper, 49);
  EXPECT_EQ(info->step, 3);
}

TEST(LoopAnalysis, DescendingLoop) {
  Program p = parse_program(
      "int main() { for (int i = 9; i >= 0; i--) { } return 0; }\n");
  const auto* fn = p.unit->find_function("main");
  resolve(*p.unit);
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* loop = minic::stmt_cast<minic::ForStmt>(fn->body->body[0].get());
  auto info = analyze_loop(*loop, cm);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->lower, 0);
  EXPECT_EQ(info->upper, 9);
  EXPECT_EQ(info->step, -1);
}

// ------------------------------------------------------------- detector: races

TEST(StaticRace, AntiDependenceLoopRaces) {
  // DRB001-antidep1 pattern.
  auto report = detect(
      "int main() {\n"
      "  int len = 1000;\n"
      "  int a[1000];\n"
      "  for (int i = 0; i < len; i++) a[i] = i;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < len - 1; i++) a[i] = a[i+1] + 1;\n"
      "  return 0;\n"
      "}\n");
  ASSERT_TRUE(report.race_detected);
  ASSERT_FALSE(report.pairs.empty());
  const RacePair& pair = report.pairs[0];
  EXPECT_EQ(pair.first.op, 'w');
  EXPECT_EQ(pair.first.var_name, "a");
}

TEST(StaticRace, TrueDependenceRaces) {
  auto report = detect(
      "int main() {\n"
      "  int a[100];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 99; i++) a[i+1] = a[i] + 1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, DisjointWritesDoNotRace) {
  auto report = detect(
      "int main() {\n"
      "  int a[100];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) a[i] = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, SharedScalarAccumulationRaces) {
  auto report = detect(
      "int main() {\n"
      "  int sum = 0;\n"
      "  int a[100];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) sum = sum + a[i];\n"
      "  return sum;\n"
      "}\n");
  ASSERT_TRUE(report.race_detected);
  EXPECT_EQ(report.pairs[0].first.var_name, "sum");
}

TEST(StaticRace, ReductionClauseSuppressesRace) {
  auto report = detect(
      "int main() {\n"
      "  int sum = 0;\n"
      "  int a[100];\n"
      "#pragma omp parallel for reduction(+:sum)\n"
      "  for (int i = 0; i < 100; i++) sum = sum + a[i];\n"
      "  return sum;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, CriticalProtectsScalar) {
  auto report = detect(
      "int main() {\n"
      "  int count = 0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) {\n"
      "#pragma omp critical\n"
      "    { count = count + 1; }\n"
      "  }\n"
      "  return count;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, DifferentCriticalNamesStillRace) {
  auto report = detect(
      "int main() {\n"
      "  int count = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp critical (one)\n"
      "    { count = count + 1; }\n"
      "#pragma omp critical (two)\n"
      "    { count = count + 2; }\n"
      "  }\n"
      "  return count;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, AtomicProtectsUpdate) {
  auto report = detect(
      "int main() {\n"
      "  int count = 0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) {\n"
      "#pragma omp atomic\n"
      "    count += 1;\n"
      "  }\n"
      "  return count;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, AtomicPlusPlainAccessRaces) {
  auto report = detect(
      "int main() {\n"
      "  int count = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp atomic\n"
      "    count += 1;\n"
      "    int x = count;\n"
      "    x = x + 1;\n"
      "  }\n"
      "  return count;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, PrivateClauseSuppressesRace) {
  auto report = detect(
      "int main() {\n"
      "  int tmp;\n"
      "  int a[100];\n"
      "#pragma omp parallel for private(tmp)\n"
      "  for (int i = 0; i < 100; i++) { tmp = i; a[i] = tmp; }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, MissingPrivateOnTempRaces) {
  auto report = detect(
      "int main() {\n"
      "  int tmp;\n"
      "  int a[100];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) { tmp = a[i]; a[i] = tmp + 1; }\n"
      "  return 0;\n"
      "}\n");
  ASSERT_TRUE(report.race_detected);
  EXPECT_EQ(report.pairs[0].first.var_name, "tmp");
}

TEST(StaticRace, InnerSequentialLoopSharedInductionRaces) {
  // DRB013-style: inner loop induction variable not privatized.
  auto report = detect(
      "int main() {\n"
      "  int j;\n"
      "  double a[20][20];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 20; i++)\n"
      "    for (j = 0; j < 20; j++)\n"
      "      a[i][j] = 1.0;\n"
      "  return 0;\n"
      "}\n");
  ASSERT_TRUE(report.race_detected);
  EXPECT_EQ(report.pairs[0].first.var_name, "j");
}

TEST(StaticRace, MultiDimDistinctElementsNoRace) {
  auto report = detect(
      "int main() {\n"
      "  double a[20][20];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 20; i++)\n"
      "    for (int j = 0; j < 20; j++)\n"
      "      a[i][j] = 1.0;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, ColumnWriteByRowLoopRaces) {
  // a[j][i] with i distributed: different i write different columns -- no
  // race; a[j][i] with j distributed over rows of the SAME column races
  // when the subscript swaps.
  auto report = detect(
      "int main() {\n"
      "  double a[20][20];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 20; i++)\n"
      "    for (int j = 0; j < 19; j++)\n"
      "      a[i][j] = a[i][j+1];\n"
      "  return 0;\n"
      "}\n");
  // Row-private: the j-dependence stays within one thread's row.
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, CrossRowDependenceRaces) {
  auto report = detect(
      "int main() {\n"
      "  double a[20][20];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 19; i++)\n"
      "    for (int j = 0; j < 20; j++)\n"
      "      a[i][j] = a[i+1][j];\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, BarrierSeparatesPhases) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp single\n"
      "    { x = 1; }\n"
      "    int y = x;\n"
      "    y = y + 1;\n"
      "  }\n"
      "  return x;\n"
      "}\n");
  // single has an implicit barrier, so the write happens-before the reads.
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, SingleNowaitRaces) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp single nowait\n"
      "    { x = 1; }\n"
      "    int y = x;\n"
      "    y = y + 1;\n"
      "  }\n"
      "  return x;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, MasterHasNoBarrierRaces) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp master\n"
      "    { x = 1; }\n"
      "    int y = x;\n"
      "    y = y + 1;\n"
      "  }\n"
      "  return x;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, TwoNowaitLoopsRace) {
  auto report = detect(
      "int main() {\n"
      "  int a[100];\n"
      "  int b[100];\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp for nowait\n"
      "    for (int i = 0; i < 100; i++) a[i] = i;\n"
      "#pragma omp for\n"
      "    for (int i = 0; i < 100; i++) b[i] = a[i];\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, BarrierBetweenLoopsNoRace) {
  auto report = detect(
      "int main() {\n"
      "  int a[100];\n"
      "  int b[100];\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp for\n"
      "    for (int i = 0; i < 100; i++) a[i] = i;\n"
      "#pragma omp for\n"
      "    for (int i = 0; i < 100; i++) b[i] = a[i];\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, SectionsWriteSameScalarRace) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel sections\n"
      "  {\n"
      "#pragma omp section\n"
      "    { x = 1; }\n"
      "#pragma omp section\n"
      "    { x = 2; }\n"
      "  }\n"
      "  return x;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, SectionsDisjointNoRace) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "  int y = 0;\n"
      "#pragma omp parallel sections\n"
      "  {\n"
      "#pragma omp section\n"
      "    { x = 1; }\n"
      "#pragma omp section\n"
      "    { y = 2; }\n"
      "  }\n"
      "  return x + y;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, FirstprivateNoRace) {
  auto report = detect(
      "int main() {\n"
      "  int offset = 5;\n"
      "  int a[100];\n"
      "#pragma omp parallel for firstprivate(offset)\n"
      "  for (int i = 0; i < 100; i++) a[i] = offset;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, LastprivateNoRace) {
  auto report = detect(
      "int main() {\n"
      "  int x0;\n"
      "  int a[100];\n"
      "#pragma omp parallel for lastprivate(x0)\n"
      "  for (int i = 0; i < 100; i++) x0 = a[i];\n"
      "  return x0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, PointerAliasRaceDetected) {
  auto report = detect(
      "int main() {\n"
      "  int a[100];\n"
      "  int* p;\n"
      "  p = a;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 99; i++) p[i] = a[i+1];\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, OmpLockProtectsWhenModeled) {
  const char* src =
      "int main() {\n"
      "  int count = 0;\n"
      "  omp_lock_t lck;\n"
      "  omp_init_lock(&lck);\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) {\n"
      "    omp_set_lock(&lck);\n"
      "    count = count + 1;\n"
      "    omp_unset_lock(&lck);\n"
      "  }\n"
      "  return count;\n"
      "}\n";
  EXPECT_FALSE(detect(src).race_detected);
  StaticDetectorOptions no_locks;
  no_locks.model_locks = false;
  EXPECT_TRUE(detect(src, no_locks).race_detected);
}

TEST(StaticRace, OrderedSerializes) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel for ordered\n"
      "  for (int i = 0; i < 100; i++) {\n"
      "#pragma omp ordered\n"
      "    { x = x + i; }\n"
      "  }\n"
      "  return x;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, IndirectIndexConservativeByDefault) {
  const char* src =
      "int main() {\n"
      "  int idx[100];\n"
      "  int a[100];\n"
      "  for (int i = 0; i < 100; i++) idx[i] = i;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) a[idx[i]] = i;\n"
      "  return 0;\n"
      "}\n";
  EXPECT_TRUE(detect(src).race_detected);  // conservative default
  StaticDetectorOptions optimistic;
  optimistic.depend.conservative_nonaffine = false;
  EXPECT_FALSE(detect(src, optimistic).race_detected);
}

TEST(StaticRace, SimdLoopCarriedDependenceRaces) {
  auto report = detect(
      "int main() {\n"
      "  int a[100];\n"
      "#pragma omp simd\n"
      "  for (int i = 0; i < 99; i++) a[i] = a[i+1] + 1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, SafelenRespectsDistance) {
  // Dependence distance 16 >= safelen 8: safe.
  auto report = detect(
      "int main() {\n"
      "  int a[100];\n"
      "#pragma omp simd safelen(8)\n"
      "  for (int i = 0; i < 84; i++) a[i+16] = a[i] + 1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
  // Distance 4 < safelen 8: race.
  auto bad = detect(
      "int main() {\n"
      "  int a[100];\n"
      "#pragma omp simd safelen(8)\n"
      "  for (int i = 0; i < 96; i++) a[i+4] = a[i] + 1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(bad.race_detected);
}

TEST(StaticRace, TaskMissingSyncRaces) {
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
      "}\n");
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, TaskDependOrdersWhenModeled) {
  const char* src =
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
      "}\n";
  EXPECT_FALSE(detect(src).race_detected);
  StaticDetectorOptions ignore_depend;
  ignore_depend.model_depend_clauses = false;
  EXPECT_TRUE(detect(src, ignore_depend).race_detected);
}

TEST(StaticRace, TaskwaitSeparates) {
  auto report = detect(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "#pragma omp single\n"
      "  {\n"
      "#pragma omp task\n"
      "    { x = 1; }\n"
      "#pragma omp taskwait\n"
      "#pragma omp task\n"
      "    { x = 2; }\n"
      "  }\n"
      "  return x;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, CollapseDistributesBothLoops) {
  auto report = detect(
      "int main() {\n"
      "  double a[20][20];\n"
      "#pragma omp parallel for collapse(2)\n"
      "  for (int i = 0; i < 20; i++)\n"
      "    for (int j = 0; j < 19; j++)\n"
      "      a[i][j] = a[i][j+1];\n"
      "  return 0;\n"
      "}\n");
  // With collapse(2), the j-dependence crosses thread boundaries.
  EXPECT_TRUE(report.race_detected);
}

TEST(StaticRace, StrideDisjointNoRace) {
  auto report = detect(
      "int main() {\n"
      "  int a[200];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) { a[2*i] = i; a[2*i+1] = i; }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, OffsetBeyondRangeNoRace) {
  auto report = detect(
      "int main() {\n"
      "  int a[200];\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp for nowait\n"
      "    for (int i = 0; i < 100; i++) a[i] = i;\n"
      "#pragma omp for\n"
      "    for (int i = 0; i < 100; i++) a[i + 100] = i;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(report.race_detected);
}

TEST(StaticRace, ReportPairHasTrimmedCoordinates) {
  auto report = detect(
      "/* header comment line 1\n"
      "   header comment line 2 */\n"
      "int main() {\n"
      "  int a[100];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 99; i++)\n"
      "    a[i] = a[i+1] + 1;\n"
      "  return 0;\n"
      "}\n");
  ASSERT_TRUE(report.race_detected);
  const RacePair& pair = report.pairs[0];
  // Trimmed code: line 5 holds the assignment (comments dropped).
  EXPECT_EQ(pair.first.loc.line, 5);
  EXPECT_EQ(pair.second.loc.line, 5);
  EXPECT_EQ(pair.first.expr_text, "a[i]");
  EXPECT_EQ(pair.second.expr_text, "a[i+1]");
  EXPECT_EQ(pair.first.op, 'w');
  EXPECT_EQ(pair.second.op, 'r');
}

// ------------------------------------------------------------ race report

TEST(RaceReportTest, AddPairCollapsesExactAndSymmetricDuplicates) {
  RacePair p;
  p.first = {"x", "x", {3, 5}, 'w'};
  p.second = {"x", "x", {4, 7}, 'r'};
  RacePair sym;
  sym.first = p.second;
  sym.second = p.first;

  RaceReport report;
  EXPECT_FALSE(report.contains(p));
  report.add_pair(p);
  report.add_pair(p);    // exact duplicate
  report.add_pair(sym);  // symmetric twin
  EXPECT_TRUE(report.race_detected);
  EXPECT_EQ(report.pairs.size(), 1u);
  EXPECT_TRUE(report.contains(p));
  EXPECT_TRUE(report.contains(sym));

  RacePair other = p;
  other.second.loc.line = 9;
  report.add_pair(other);
  EXPECT_EQ(report.pairs.size(), 2u);
}

/// 17 shared scalars, each updated once inside one `omp parallel`: two
/// racy pairs per scalar, 34 in all, past the reported-pair cap.
std::string seventeen_scalar_kernel() {
  std::string decls;
  std::string updates;
  for (int i = 0; i < 17; ++i) {
    std::string v = "s";
    v += std::to_string(i);
    decls += "  int " + v + " = 0;\n";
    updates += "    " + v + " = " + v + " + 1;\n";
  }
  return "int main() {\n" + decls + "#pragma omp parallel\n  {\n" +
         updates + "  }\n  return 0;\n}\n";
}

TEST(StaticRace, PairCapReportsSuppressedCountInsteadOfSilence) {
  const std::string code = seventeen_scalar_kernel();
  const RaceReport report = detect(code.c_str());
  ASSERT_TRUE(report.race_detected);
  EXPECT_EQ(report.pairs.size(), kMaxReportedPairs);
  EXPECT_EQ(report.suppressed_pairs, 18);
  const std::vector<std::string>& diags = report.diagnostics;
  EXPECT_NE(std::find(diags.begin(), diags.end(),
                      "static: 18 additional pair(s) suppressed "
                      "(max_pairs=16)"),
            diags.end());
}

}  // namespace
}  // namespace drbml::analysis
