// Focused tests for linear-form construction and constant propagation
// corner cases (complementing the end-to-end analysis tests).
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "analysis/affine.hpp"
#include "analysis/consteval.hpp"
#include "analysis/resolve.hpp"
#include "minic/parser.hpp"

namespace drbml::analysis {
namespace {

using minic::Program;
using minic::parse_program;

/// Parses a program whose last main statement is `int probe = <expr>;`
/// and linearizes that expression.
LinearForm linearize_probe(const char* src) {
  static std::vector<std::unique_ptr<Program>> keep;
  keep.push_back(std::make_unique<Program>(parse_program(src)));
  Program& p = *keep.back();
  resolve(*p.unit);
  const auto* fn = p.unit->find_function("main");
  EXPECT_NE(fn, nullptr);
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  // probe declaration is the second-to-last statement (before return).
  const auto& body = fn->body->body;
  const auto* decl =
      minic::stmt_cast<minic::DeclStmt>(body[body.size() - 2].get());
  EXPECT_NE(decl, nullptr);
  return linearize(*decl->decls.back()->init, cm);
}

/// Folds `probe = <expr>` next to int64-edge constants with both folders
/// and expects Mini-C's integer semantics (minic/int_ops.hpp): `value`,
/// or no constant at all. On these inputs the folders used to trap
/// (SIGFPE) or hit undefined behaviour.
void expect_edge_fold(const char* expr, std::optional<std::int64_t> value) {
  const std::string src =
      std::string("int main() { long m = 0x8000000000000000; long d = -1; "
                  "long z = 0; long big = 0x7fffffffffffffff; long probe = ") +
      expr + "; return 0; }";
  const LinearForm f = linearize_probe(src.c_str());
  if (value) {
    EXPECT_TRUE(f.is_constant()) << expr;
    EXPECT_EQ(f.constant, *value) << expr;
  } else {
    EXPECT_FALSE(f.is_affine) << expr;
  }
  Program p = parse_program(src);
  resolve(*p.unit);
  const auto* fn = p.unit->find_function("main");
  const ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto& body = fn->body->body;
  const auto* probe =
      minic::stmt_cast<minic::DeclStmt>(body[body.size() - 2].get());
  ASSERT_NE(probe, nullptr) << expr;
  EXPECT_EQ(cm.eval(*probe->decls.back()->init), value) << expr;
}

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TEST(Affine, MulByFoldedConstantScales) {
  LinearForm f = linearize_probe(
      "int main() { int s = 4; int i; i = 0; int probe = s * i + 3; "
      "return probe; }");
  // i has been poisoned? `i = 0` is an unconditional top-level assignment
  // to a fresh variable -> bound to 0, so the whole thing folds.
  EXPECT_TRUE(f.is_affine);
  EXPECT_TRUE(f.is_constant());
  EXPECT_EQ(f.constant, 3);
}

TEST(Affine, UnknownVariableKeepsCoefficient) {
  LinearForm f = linearize_probe(
      "int main(int argc, char* argv[]) { int n = argc + 1; int probe = 2 "
      "* n + 5; return probe; }");
  EXPECT_TRUE(f.is_affine);
  EXPECT_FALSE(f.is_constant());
  EXPECT_EQ(f.constant, 5);
  // Exactly one variable with coefficient 2.
  int nonzero = 0;
  for (const auto& [v, c] : f.coeffs) {
    if (c != 0) {
      ++nonzero;
      EXPECT_EQ(c, 2);
    }
  }
  EXPECT_EQ(nonzero, 1);
}

TEST(Affine, VariableTimesVariableIsNonAffine) {
  LinearForm f = linearize_probe(
      "int main(int argc, char* argv[]) { int a = argc; int b = argc + 2; "
      "int probe = a * b; return probe; }");
  EXPECT_FALSE(f.is_affine);
}

TEST(Affine, DivisionFoldsOnlyExactConstants) {
  LinearForm exact = linearize_probe(
      "int main() { int probe = 12 / 4; return probe; }");
  EXPECT_TRUE(exact.is_constant());
  EXPECT_EQ(exact.constant, 3);

  LinearForm inexact = linearize_probe(
      "int main(int argc, char* argv[]) { int n = argc; int probe = n / 2; "
      "return probe; }");
  EXPECT_FALSE(inexact.is_affine);

  // A zero divisor or INT64_MIN / -1 is not a constant.
  expect_edge_fold("m / d", std::nullopt);
  expect_edge_fold("m % d", std::nullopt);
  expect_edge_fold("m / z", std::nullopt);
  expect_edge_fold("m % z", std::nullopt);
  expect_edge_fold("m / 2", kMin / 2);
}

TEST(Affine, ModuloAndShiftsFold) {
  LinearForm f = linearize_probe(
      "int main() { int probe = (13 % 5) + (1 << 4); return probe; }");
  EXPECT_TRUE(f.is_constant());
  EXPECT_EQ(f.constant, 19);

  // Shift counts are taken mod 64; +, - and * wrap.
  expect_edge_fold("1 << 64", 1);
  expect_edge_fold("1 << 65", 2);
  expect_edge_fold("m >> 64", kMin);
  expect_edge_fold("big + 1", kMin);
  expect_edge_fold("m - 1", kMax);
  expect_edge_fold("big * 2", -2);
}

TEST(Affine, SubtractionCancelsSymbols) {
  LinearForm f = linearize_probe(
      "int main(int argc, char* argv[]) { int n = argc; int probe = (n + "
      "7) - n; return probe; }");
  EXPECT_TRUE(f.is_affine);
  EXPECT_TRUE(f.is_constant());
  EXPECT_EQ(f.constant, 7);
}

TEST(ConstEval, ChainedBindingsFold) {
  Program p = parse_program(
      "int main() { int a = 6; int b = a * 7; int c = b - 2; return c; }");
  resolve(*p.unit);
  const auto* fn = p.unit->find_function("main");
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* c_decl =
      minic::stmt_cast<minic::DeclStmt>(fn->body->body[2].get());
  EXPECT_EQ(cm.value_of(c_decl->decls[0].get()), 40);
}

TEST(ConstEval, ReassignmentPoisons) {
  Program p = parse_program(
      "int main() { int a = 1; a = 2; int b = a; return b; }");
  resolve(*p.unit);
  const auto* fn = p.unit->find_function("main");
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* a_decl =
      minic::stmt_cast<minic::DeclStmt>(fn->body->body[0].get());
  EXPECT_EQ(cm.value_of(a_decl->decls[0].get()), std::nullopt);
}

TEST(ConstEval, AddressTakenPoisons) {
  Program p = parse_program(
      "void set(int* p) { p[0] = 9; }\n"
      "int main() { int a = 1; set(&a); int b = a + 1; return b; }");
  resolve(*p.unit);
  const auto* fn = p.unit->find_function("main");
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* a_decl =
      minic::stmt_cast<minic::DeclStmt>(fn->body->body[0].get());
  EXPECT_EQ(cm.value_of(a_decl->decls[0].get()), std::nullopt);
}

TEST(ConstEval, IncrementPoisons) {
  Program p = parse_program("int main() { int a = 1; a++; return a; }");
  resolve(*p.unit);
  const auto* fn = p.unit->find_function("main");
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* a_decl =
      minic::stmt_cast<minic::DeclStmt>(fn->body->body[0].get());
  EXPECT_EQ(cm.value_of(a_decl->decls[0].get()), std::nullopt);
}

TEST(ConstEval, GlobalInitializersFold) {
  Program p = parse_program(
      "int base = 40;\n"
      "int main() { int probe = base; return probe; }");
  resolve(*p.unit);
  const auto* fn = p.unit->find_function("main");
  ConstantMap cm = ConstantMap::build(*p.unit, *fn);
  const auto* decl =
      minic::stmt_cast<minic::DeclStmt>(fn->body->body[0].get());
  EXPECT_EQ(cm.value_of(decl->decls[0].get()), 40);
}

TEST(ConstEval, EvalHandlesLogicAndComparisons) {
  Program p = parse_program("int main() { return 0; }");
  resolve(*p.unit);
  ConstantMap cm =
      ConstantMap::build(*p.unit, *p.unit->find_function("main"));
  Program expr_prog = parse_program(
      "int main() { int probe = (3 < 5) && (2 == 2); return probe; }");
  resolve(*expr_prog.unit);
  const auto* fn = expr_prog.unit->find_function("main");
  ConstantMap cm2 = ConstantMap::build(*expr_prog.unit, *fn);
  const auto* decl =
      minic::stmt_cast<minic::DeclStmt>(fn->body->body[0].get());
  EXPECT_EQ(cm2.value_of(decl->decls[0].get()), 1);
}

}  // namespace
}  // namespace drbml::analysis
