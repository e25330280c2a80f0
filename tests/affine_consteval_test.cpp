// Focused tests for linear-form construction and constant propagation
// corner cases (complementing the end-to-end analysis tests).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "analysis/affine.hpp"
#include "analysis/consteval.hpp"
#include "analysis/resolve.hpp"
#include "minic/parser.hpp"

// Global allocation counter for the ConstantMap scaling test, left on for
// the whole binary (as in runtime_test). GCC flags free() on new-ed
// pointers without seeing that this replacement new is malloc-backed, so
// the mismatch warning is a false positive here.
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

// ------------------------------------------------------- scaling

/// `main` with `n` chained declarations (`int v0 = 1; int v1 = v0 + 1;
/// ...`) and a parallel region that reads the first and the last.
std::string chained_decls(int n) {
  std::string src = "int main() {\n  int a[8];\n  int v0 = 1;\n";
  for (int i = 1; i < n; ++i) {
    src += "  int v";
    src += std::to_string(i);
    src += " = v";
    src += std::to_string(i - 1);
    src += " + 1;\n";
  }
  src += "#pragma omp parallel for\n";
  src += "  for (int i = 0; i < 8; i++) a[i] = v0 + v";
  src += std::to_string(n - 1);
  src += " + i;\n  return 0;\n}\n";
  return src;
}

const minic::VarDecl* find_decl(const minic::FunctionDecl& fn,
                                const std::string& name) {
  for (const auto& st : fn.body->body) {
    if (const auto* d = minic::stmt_cast<minic::DeclStmt>(st.get())) {
      for (const auto& v : d->decls) {
        if (v->name == name) return v.get();
      }
    }
  }
  return nullptr;
}

TEST(ConstEval, BuildAllocatesLinearlyInTheFunctionsBindings) {
  // Each binding folds its initializer against the map being built, so
  // twice the declarations cost about twice the allocations: one tree
  // node per binding. Folding against a copy of the map per binding was
  // quadratic, about 4x from 250 to 500 declarations.
  const int sizes[2] = {250, 500};
  std::uint64_t counts[2] = {};
  for (int k = 0; k < 2; ++k) {
    const Program p = parse_program(chained_decls(sizes[k]));
    resolve(*p.unit);
    const minic::FunctionDecl* fn = p.unit->find_function("main");
    ASSERT_NE(fn, nullptr);
    std::optional<ConstantMap> cm;
    const std::uint64_t before = g_allocations.load();
    cm.emplace(ConstantMap::build(*p.unit, *fn));
    counts[k] = g_allocations.load() - before;
    std::string last = "v";
    last += std::to_string(sizes[k] - 1);
    EXPECT_EQ(cm->value_of(find_decl(*fn, last)), sizes[k]) << last;
  }
  EXPECT_GT(counts[0], 0u);
  EXPECT_LE(counts[1] * 2, counts[0] * 5)
      << counts[0] << " allocations for " << sizes[0] << " declarations, "
      << counts[1] << " for " << sizes[1];
}

}  // namespace
}  // namespace drbml::analysis
