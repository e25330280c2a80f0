// Shared rendering helpers for the table-reproduction bench binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "eval/artifact_cache.hpp"
#include "eval/experiments.hpp"
#include "llm/model.hpp"
#include "obs/obs.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace drbml::bench {

/// Shared argv handling for bench mains: consumes the global
/// observability flags (--trace FILE / --metrics FILE) and warns about
/// anything left over. The DRBML_TRACE / DRBML_METRICS environment
/// variables work without any flags.
inline void init_bench(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  obs::consume_obs_flags(args);
  for (const std::string& a : args) {
    std::fprintf(stderr, "%s: ignoring unknown argument '%s'\n", argv[0],
                 a.c_str());
  }
}

/// Renders detection rows in the paper's Table 2/3 layout.
inline std::string detection_table(
    const std::vector<eval::DetectionRow>& rows) {
  TextTable t({"Choice", "Prompt", "TP", "FP", "TN", "FN", "R", "P", "F1"});
  for (const auto& row : rows) {
    const auto& cm = row.cm;
    t.add_row({row.model, row.prompt, std::to_string(cm.tp),
               std::to_string(cm.fp), std::to_string(cm.tn),
               std::to_string(cm.fn), format_double(cm.recall(), 3),
               format_double(cm.precision(), 3), format_double(cm.f1(), 3)});
  }
  return t.render();
}

/// Renders CV rows in the paper's Table 4/6 layout.
inline std::string cv_table(const std::vector<eval::CvRow>& rows) {
  TextTable t({"Model", "AVG of R", "SD of R", "AVG of P", "SD of P",
               "AVG of F1", "SD of F1"});
  for (const auto& row : rows) {
    t.add_row({row.model, format_double(row.recall.avg, 3),
               format_double(row.recall.sd, 3),
               format_double(row.precision.avg, 3),
               format_double(row.precision.sd, 3),
               format_double(row.f1.avg, 3), format_double(row.f1.sd, 3)});
  }
  return t.render();
}

/// Renders the repair experiment (Table 7) rows: verified-fix outcomes
/// per DRB pattern family.
inline std::string repair_table(const std::vector<eval::RepairRow>& rows) {
  TextTable t({"Family", "Entries", "Fixed", "Verified", "NoCand", "Rej",
               "Err", "FixRate", "VerRate", "Patches/Fix"});
  for (const auto& row : rows) {
    t.add_row({row.family, std::to_string(row.entries),
               std::to_string(row.fixed), std::to_string(row.verified),
               std::to_string(row.no_candidate), std::to_string(row.rejected),
               std::to_string(row.errors), format_double(row.fix_rate(), 3),
               format_double(row.verified_rate(), 3),
               format_double(row.patches_per_fix(), 2)});
  }
  return t.render();
}

/// Renders the schedule-exploration comparison: uniform vs PCT at equal
/// budget over the race-labeled corpus.
inline std::string exploration_table(
    const std::vector<eval::ExplorationRow>& rows) {
  TextTable t({"Strategy", "Entries", "Detected", "OnlyHere", "Sched/Entry",
               "ToFirstRace", "WitnessDec", "Plateau", "Err"});
  for (const auto& row : rows) {
    t.add_row({row.strategy, std::to_string(row.entries),
               std::to_string(row.detected), std::to_string(row.only_here),
               format_double(row.entries > 0
                                 ? static_cast<double>(row.schedules) /
                                       row.entries
                                 : 0.0,
                             2),
               format_double(row.avg_schedules_to_first_race(), 2),
               std::to_string(row.witness_decisions),
               std::to_string(row.plateau_stops),
               std::to_string(row.errors)});
  }
  return t.render();
}

inline void print_reference(const char* text) {
  std::printf("%s", text);
}

/// Runs a table pipeline serially (jobs=1) and in parallel (jobs=auto),
/// prints the parallel rendering, and reports wall-clock speedup plus a
/// byte-identity check of the two renderings (the executor's determinism
/// contract). `render(opts)` must return the fully rendered table.
template <typename RenderFn>
int print_with_speedup(RenderFn&& render) {
  using Clock = std::chrono::steady_clock;
  const int jobs = support::resolve_jobs(0);

  // Cold-start both runs: memoized artifacts must not let the second run
  // coast on the first run's work, or the comparison measures caching.
  auto cold = [] {
    eval::artifact_cache().clear();
    llm::clear_feature_cache();
  };

  cold();
  auto t0 = Clock::now();
  const std::string serial = render(eval::ExperimentOptions{/*jobs=*/1});
  const double serial_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  cold();
  t0 = Clock::now();
  const std::string parallel = render(eval::ExperimentOptions{jobs});
  const double parallel_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  std::printf("%s", parallel.c_str());
  const bool identical = serial == parallel;
  std::printf(
      "\n[executor] serial %.1f ms | %d jobs %.1f ms | speedup %.2fx | "
      "serial/parallel outputs %s\n",
      serial_ms, jobs, parallel_ms,
      parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0,
      identical ? "identical" : "DIFFER (BUG)");
  return identical ? 0 : 3;
}

}  // namespace drbml::bench
