// Emitters for lint reports: human-readable text, JSON, and SARIF 2.1.0.
//
// SARIF invariants (checked by sarif_shape_ok and the differential tests):
//   - top level carries "$schema" and "version": "2.1.0";
//   - runs[0].tool.driver.name is "drbml-lint" and driver.rules lists every
//     built-in check, so each result's ruleIndex resolves;
//   - every result has ruleId, level, message.text, and exactly one
//     location whose region start is >= 1 (file-level diagnostics clamp
//     to line 1, SARIF forbids line 0);
//   - fix-its and pattern families ride in result.properties so they
//     survive consumers that ignore the optional "fixes" field.
#pragma once

#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "support/json.hpp"

namespace drbml::lint {

/// A lint report tagged with the artifact name it was produced from. It
/// refers to the report, which must outlive it.
struct FileLint {
  std::string name;  // artifact URI in SARIF, prefix in text output
  const LintReport& report;
};

/// One diagnostic as a single human-readable line (no related locations);
/// used by the lint detector to surface findings in RaceVerdict diagnostics.
[[nodiscard]] std::string to_text_line(const Diagnostic& d);

/// Full human-readable rendering: one block per diagnostic (location,
/// severity, check id, message, related notes, fix-it), then a summary.
[[nodiscard]] std::string to_text(const FileLint& file);

/// JSON rendering of one file's report (diagnostics + summary counts).
[[nodiscard]] json::Value to_json(const FileLint& file);

/// SARIF 2.1.0 log covering all files as one run.
[[nodiscard]] json::Value to_sarif(const std::vector<FileLint>& files);

/// Validates the invariants listed above on a SARIF document. On failure
/// returns false and, when `why` is non-null, stores the first violation.
[[nodiscard]] bool sarif_shape_ok(const json::Value& sarif,
                                  std::string* why = nullptr);

}  // namespace drbml::lint
