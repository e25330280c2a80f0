// Best-effort constant propagation for scalar integers.
//
// DRB-style microbenchmarks bind loop bounds to constants near the top of
// main (`int len = 1000;`). The static race detector folds those constants
// into affine subscripts and loop bounds. The propagation is deliberately
// conservative: a variable that is ever reassigned a non-constant value, or
// assigned under a branch or loop, is treated as unknown.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "minic/ast.hpp"

namespace drbml::analysis {

/// An affine form over the symbolic thread id: coeff * omp_get_thread_num()
/// + constant. Used to model per-thread index arithmetic
/// (`int lo = omp_get_thread_num() * 16;`) so the dependence tester can
/// prove thread-disjoint array partitions.
struct TidForm {
  std::int64_t coeff = 0;
  std::int64_t constant = 0;

  friend bool operator==(const TidForm&, const TidForm&) = default;
};

class ConstantMap {
 public:
  /// Scans `fn`'s body (and `unit` globals) and records scalar integer
  /// variables with a single, unconditional constant binding.
  static ConstantMap build(const minic::TranslationUnit& unit,
                           const minic::FunctionDecl& fn);

  [[nodiscard]] std::optional<std::int64_t> value_of(
      const minic::VarDecl* v) const;

  /// Evaluates `e` to an integer constant if possible, folding known
  /// variables, literals, and arithmetic.
  [[nodiscard]] std::optional<std::int64_t> eval(const minic::Expr& e) const;

  /// The thread-id affine form bound to `v`, if any. Bindings come from
  /// straight-line declaration initializers inside a parallel construct
  /// (`int tid = omp_get_thread_num(); int lo = tid * 16;`); declarations
  /// under loops or branches, reassignments, and address-taken variables
  /// never bind.
  [[nodiscard]] std::optional<TidForm> tid_form_of(
      const minic::VarDecl* v) const;

  /// Evaluates `e` as an affine form over the symbolic thread id, folding
  /// constants and tid-bound variables. `omp_get_thread_num()` evaluates
  /// to {coeff 1, constant 0}.
  [[nodiscard]] std::optional<TidForm> tid_eval(const minic::Expr& e) const;

 private:
  std::map<const minic::VarDecl*, std::int64_t> values_;
  std::map<const minic::VarDecl*, TidForm> tid_values_;
  std::set<const minic::VarDecl*> poisoned_;
};

}  // namespace drbml::analysis
