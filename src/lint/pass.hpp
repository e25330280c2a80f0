// Pass-manager core of the OpenMP correctness linter.
//
// The linter wraps the existing resolve -> access-collection -> dependence
// pipeline once per program, then hands the shared LintContext to a
// sequence of independent checks (LintPass). Each pass appends structured
// Diagnostics; the manager orders them by location, applies
// `// drbml-lint-suppress(check-id)` comment suppression (comma-separated
// ids, or `all`), and returns the final LintReport.
//
// A suppression comment covers the trimmed-code line it lives on; a
// comment-only line (dropped by the stripper) covers the next surviving
// line, so annotations can sit above the offending statement.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/race.hpp"
#include "lint/diagnostic.hpp"
#include "minic/ast.hpp"

namespace drbml::lint {

struct LintOptions {
  /// Knobs for the wrapped static race pipeline (max_pairs included).
  analysis::StaticDetectorOptions detector;
  /// Check ids to run; empty = every registered pass.
  std::vector<std::string> enabled;
};

/// Everything a pass may consult, computed once per program.
struct LintContext {
  const minic::Program& program;
  const analysis::Resolution& resolution;
  const std::vector<analysis::ParallelRegion>& regions;
  const analysis::RaceReport& race;  // static race pairs + diagnostics
  const LintOptions& opts;
};

/// One correctness check. Passes are stateless: `run` is const and must be
/// data-race-free (the lint detector runs on parallel_map workers).
class LintPass {
 public:
  virtual ~LintPass() = default;
  [[nodiscard]] virtual const char* id() const noexcept = 0;
  [[nodiscard]] virtual const char* description() const noexcept = 0;
  virtual void run(const LintContext& ctx,
                   std::vector<Diagnostic>& out) const = 0;
};

/// The built-in checks, in execution order (see lint/checks.cpp).
[[nodiscard]] std::vector<std::unique_ptr<LintPass>> default_passes();

/// (id, description) of every built-in check, in execution order.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
available_checks();

class PassManager {
 public:
  /// Registers the default passes.
  PassManager() : PassManager(default_passes()) {}
  explicit PassManager(std::vector<std::unique_ptr<LintPass>> passes)
      : passes_(std::move(passes)) {}

  /// Runs every enabled pass over a parsed program. Resolves the unit in
  /// place (idempotent), collects parallel regions, runs the static race
  /// detector, then the passes; diagnostics come back sorted by location
  /// with suppressed findings removed and counted.
  [[nodiscard]] LintReport run(minic::Program& program,
                               const LintOptions& opts) const;

  [[nodiscard]] const std::vector<std::unique_ptr<LintPass>>& passes()
      const noexcept {
    return passes_;
  }

 private:
  std::vector<std::unique_ptr<LintPass>> passes_;
};

}  // namespace drbml::lint
