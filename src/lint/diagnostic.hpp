// Structured diagnostics produced by the OpenMP correctness linter.
//
// A Diagnostic is what a real tool (Intel Inspector, ompVerify/LLOV-style
// verifiers) emits and what the paper's `p2` prompt asks an LLM to
// emulate: a severity, a stable check id, a location in *trimmed-code*
// coordinates (the coordinate system DRB-ML labels use), a human
// explanation, an optional fix-it, and a DRB pattern-family
// classification. Emitters (lint/emit.hpp) render reports as human text,
// JSON, and SARIF 2.1.0.
#pragma once

#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "minic/source.hpp"

namespace drbml::lint {

enum class Severity { Error, Warning, Note };

/// "error" / "warning" / "note" (also the SARIF result level).
[[nodiscard]] const char* severity_name(Severity s) noexcept;

/// A secondary location attached to a diagnostic (e.g. the conflicting
/// side of a race pair, or the `nowait` clause a stale read blames).
struct RelatedLocation {
  minic::SourceLoc loc;
  std::string message;
};

struct Diagnostic {
  std::string check_id;  // e.g. "lint.reduction"
  Severity severity = Severity::Warning;
  minic::SourceLoc loc;  // trimmed-code coordinates; line 0 = file-level
  std::string message;   // human explanation
  std::string fixit;     // suggested clause/directive text; "" = none
  std::string pattern;   // DRB pattern-family classification
  std::vector<RelatedLocation> related;
};

/// Output of one linter run over one program.
struct LintReport {
  std::vector<Diagnostic> diagnostics;
  /// The underlying static race evidence (pairs in DRB label format).
  analysis::RaceReport race;
  /// Findings removed by `drbml-lint-suppress(check-id)` comments.
  int suppressed = 0;
};

}  // namespace drbml::lint
