// Schedule-exploration engine over CoopScheduler and the vector-clock
// dynamic detector.
//
// Where the plain dynamic detector replays a fixed handful of uniform
// seeds, the explorer runs a budgeted loop of schedules under a chosen
// strategy (uniform random walk or PCT priority schedules), tracks an
// interleaving-coverage map to stop early once schedules stop buying new
// behaviour, and -- on the first detected race -- delta-debugs the
// recorded decision trace into a minimal witness that replays the race
// bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.hpp"
#include "explore/witness.hpp"
#include "runtime/interp.hpp"

namespace drbml::explore {

/// Another name for runtime::ScheduleStrategy.
using Strategy = runtime::ScheduleStrategy;

struct ExploreOptions {
  /// Base run options, PCT depth and expected steps included;
  /// `seed`/`strategy`/`capture_trace`/`collect_coverage` are set per
  /// schedule, `module`/`prefix` per source.
  runtime::RunOptions run;
  runtime::ScheduleStrategy strategy = runtime::ScheduleStrategy::Pct;
  /// Schedule budget per source.
  int max_schedules = 24;
  /// Adaptive budget: stop once this many consecutive schedules add no
  /// new coverage (0 disables the plateau cut).
  int plateau_window = 8;
  /// Base seed; schedule i derives its seed deterministically from it.
  std::uint64_t seed = 0x5eedULL;
  /// Delta-debug the first racy schedule into a minimal witness.
  bool minimize = true;

  friend bool operator==(const ExploreOptions&,
                         const ExploreOptions&) = default;
};

/// Per-schedule outcome, in execution order.
struct ScheduleStats {
  std::uint64_t seed = 0;
  bool raced = false;
  bool faulted = false;
  std::uint64_t steps = 0;
  std::uint64_t new_coverage = 0;

  friend bool operator==(const ScheduleStats&,
                         const ScheduleStats&) = default;
};

struct ExploreResult {
  bool race_detected = false;
  /// Union of racy schedules' reports (pairs deduplicated by add_pair).
  analysis::RaceReport report;
  int schedules_run = 0;
  /// Index of the first racy schedule, -1 if none (the time-to-first-race
  /// in units of schedule budget).
  int first_race_schedule = -1;
  /// Seed of the first racy schedule (re-run it to get the full trace).
  std::uint64_t first_race_seed = 0;
  bool stopped_on_plateau = false;
  /// Union of interleaving-coverage hashes over all schedules, sorted.
  std::vector<std::uint64_t> coverage;
  std::vector<ScheduleStats> schedules;
  /// Encoded minimized witness ("" when no race was found).
  std::string witness;
  /// Decision counts before/after minimization.
  std::uint64_t original_decisions = 0;
  std::uint64_t witness_decisions = 0;
  int minimize_replays = 0;
  int faulted_runs = 0;
};

/// Runs the exploration loop on one source. Parse/resolve errors and a
/// Replay strategy (it needs a trace) propagate as support's Error
/// (callers batching over a corpus catch it, as for the dynamic detector).
[[nodiscard]] ExploreResult explore_source(std::string_view source,
                                           const ExploreOptions& opts);

/// Replays a witness against a source, bit-identically when the witness
/// carries a full trace for that source.
[[nodiscard]] runtime::RunResult replay_witness(
    std::string_view source, const Witness& w,
    const runtime::RunOptions& base = {});

}  // namespace drbml::explore
