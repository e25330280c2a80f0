// The linter's six built-in checks (lint/checks.cpp), run in this order
// by lint::lint_source over one shared LintContext.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/report.hpp"
#include "lint/diagnostic.hpp"
#include "minic/ast.hpp"

namespace drbml::lint {

/// Everything a check may consult, computed once per program.
struct LintContext {
  const minic::Program& program;
  const std::vector<analysis::ParallelRegion>& regions;
  const analysis::RaceReport& race;  // static race pairs + diagnostics
};

// Each check appends its findings to `out` in no particular order; checks
// keep no state, so concurrent lints are data-race-free.

/// lint.race: one explanatory diagnostic per static race pair, plus a
/// note when pairs were dropped at analysis::kMaxReportedPairs.
void check_race(const LintContext& ctx, std::vector<Diagnostic>& out);
/// lint.datashare: default(none) audit plus privatization fix-its for
/// racing shared scalars.
void check_datashare(const LintContext& ctx, std::vector<Diagnostic>& out);
/// lint.reduction: accumulation races with a concrete reduction fix-it.
void check_reduction(const LintContext& ctx, std::vector<Diagnostic>& out);
/// lint.lock: omp_set_lock/omp_unset_lock pairing and ordering discipline.
void check_lock(const LintContext& ctx, std::vector<Diagnostic>& out);
/// lint.barrier: illegal/asymmetric barriers and nowait misuse.
void check_barrier(const LintContext& ctx, std::vector<Diagnostic>& out);
/// lint.atomic: every concurrent access to a location must use the same
/// protection regime (atomic vs critical vs lock vs nothing).
void check_atomic(const LintContext& ctx, std::vector<Diagnostic>& out);

/// (id, description) of every check, in execution order.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
available_checks();

}  // namespace drbml::lint
