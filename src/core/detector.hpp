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
  /// data-race-free: analyze_batch calls it concurrently from pool
  /// workers.
  [[nodiscard]] virtual RaceVerdict analyze(const eval::Source& code) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Analyzes many programs, fanning out over a thread pool and returning
  /// verdicts in input order (bit-identical to calling analyze in a loop).
  /// Uses this detector's jobs() knob; 0 = auto (DRBML_JOBS env var,
  /// else hardware concurrency), 1 = serial.
  [[nodiscard]] std::vector<RaceVerdict> analyze_batch(
      const std::vector<std::string>& sources) const;

  /// Default worker count for analyze_batch (see DetectorSpec::jobs).
  [[nodiscard]] int jobs() const noexcept { return jobs_; }
  void set_jobs(int jobs) noexcept { jobs_ = jobs; }

 private:
  int jobs_ = 0;
};

/// Structured detector specification: the spec string (file comment
/// grammar) plus execution knobs.
struct DetectorSpec {
  std::string spec = "hybrid";
  /// Worker threads for analyze_batch: 0 = auto, 1 = serial, N = fixed.
  int jobs = 0;
};

/// Creates a detector by specification string (see file comment).
/// Throws Error for unknown specifications.
[[nodiscard]] std::unique_ptr<RaceDetector> make_detector(
    const std::string& spec);

/// Creates a detector from a structured spec (jobs knob included).
[[nodiscard]] std::unique_ptr<RaceDetector> make_detector(
    const DetectorSpec& spec);

/// Names accepted by make_detector.
[[nodiscard]] std::vector<std::string> available_detectors();

}  // namespace drbml::core
