// Unified detector interface -- the library's primary public API.
//
// Interchangeable detectors analyze OpenMP C source for data races:
//   - "static":  dependence-based static analysis (RELAY/ompVerify-style)
//   - "dynamic": interpreted execution with vector-clock happens-before
//                checking (ThreadSanitizer/Inspector-style)
//   - "hybrid":  static union dynamic (the paper's traditional-tool column):
//                the static report plus every dynamic pair not already in
//                it (mirrored twins collapse), racy if either side is, with
//                static diagnostics before dynamic ones; a dynamic-side
//                Error becomes the diagnostic "dynamic detector
//                unavailable: <what>"
//   - "lint":    the OpenMP correctness linter (src/lint); race verdict from
//                the static pipeline, diagnostics rendered per finding
//   - "explore[:uniform|:pct]": the schedule-exploration engine (src/explore):
//     a budgeted loop of uniform-random or PCT priority schedules with a
//     coverage-plateau cut; a detected race ships a minimized replayable
//     witness in the diagnostics ("explore" alone means "explore:pct")
//   - "llm:<persona>[:<prompt>]": a simulated LLM queried through the
//     paper's prompt pipeline, e.g. "llm:gpt4:p3"
//
// The static, dynamic, hybrid, lint and explore detectors read their
// artifacts through the shared eval::artifact_cache() under default
// options, so `drbml analyze` and a serve `analyze` request share one
// cache entry per program and artifact.
//
// Quickstart:
//   auto detector = drbml::core::make_detector("hybrid");
//   auto verdict = detector->analyze(source_code);
//   if (verdict.report.race_detected) { ... verdict.report.pairs ... }
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "eval/source.hpp"

namespace drbml::core {

/// A detector's answer for one program.
struct RaceVerdict {
  /// Verdict, pairs and diagnostics. `discharged` (candidate pairs proved
  /// race-free, each with its evidence chain) is filled by the
  /// static-backed detectors only.
  analysis::RaceReport report;
  /// The raw model reply (LLM detectors only).
  std::string model_response{};
};

class RaceDetector {
 public:
  virtual ~RaceDetector() = default;

  /// Analyzes OpenMP C source text. The Source carries the text's cache
  /// key, so a caller that probes other artifacts of the same program
  /// hashes it once; a string converts to one implicitly. Must be
  /// data-race-free: the CLI calls it concurrently from parallel_map
  /// workers, and the serve daemon from its pool's.
  [[nodiscard]] virtual RaceVerdict analyze(const eval::Source& code) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Creates a detector by specification string (see file comment).
/// Throws Error for unknown specifications.
[[nodiscard]] std::unique_ptr<RaceDetector> make_detector(
    const std::string& spec);

/// Names accepted by make_detector.
[[nodiscard]] std::vector<std::string> available_detectors();

}  // namespace drbml::core
