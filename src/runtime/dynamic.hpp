// Dynamic race detector facade (the repository's Intel-Inspector stand-in).
//
// Runs the program under the interpreter's vector-clock detector across
// one or more seeded schedules and unions the reports. Like any dynamic
// tool it only sees races that manifest on executed paths: races guarded
// by unexercised inputs are missed (false negatives); it reports no false
// positives on data it actually observed.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "analysis/report.hpp"
#include "runtime/bc/bc.hpp"
#include "runtime/interp.hpp"

namespace drbml::runtime {

/// A source parsed, resolved and compiled once, run under any number of
/// schedules; runs that differ from the first only in schedule fields
/// resume from its serial-prefix snapshot, and every run reuses the
/// storage the runs before it filled (PrefixSnapshot). One thread at a
/// time.
class CompiledProgram {
 public:
  /// Throws support's Error when the source does not parse or resolve.
  explicit CompiledProgram(std::string_view source);

  /// Runs `opts` with this program's module and prefix snapshot (any
  /// module or snapshot in `opts` is replaced).
  [[nodiscard]] RunResult run(RunOptions opts);

  /// The teams the last run forked, one per parallel region in dynamic
  /// order (empty before the first run). Valid until the next run.
  [[nodiscard]] std::span<const TeamRecord> regions() const {
    return prefix_.regions();
  }

 private:
  minic::Program prog_;
  analysis::Resolution res_;
  bc::Module module_;
  PrefixSnapshot prefix_;
};

struct DynamicDetectorOptions {
  /// Base run options; `seed`, `module` and `prefix` are set per run.
  RunOptions run;
  /// Seeds for independent schedule replays; reports are unioned. A seed
  /// whose run would repeat the last run (repeats_run) is skipped: under
  /// the uniform walk, every seed after a run that forked no team.
  std::vector<std::uint64_t> schedule_seeds = {1, 2, 3};
};

class DynamicRaceDetector {
 public:
  explicit DynamicRaceDetector(DynamicDetectorOptions opts = {})
      : opts_(std::move(opts)) {}

  /// Parses, resolves, and executes the source under each schedule seed
  /// whose run would not repeat the last one.
  [[nodiscard]] analysis::RaceReport analyze_source(
      std::string_view source) const;

  [[nodiscard]] const DynamicDetectorOptions& options() const noexcept {
    return opts_;
  }

 private:
  DynamicDetectorOptions opts_;
};

}  // namespace drbml::runtime
