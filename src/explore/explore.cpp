#include "explore/explore.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "explore/minimize.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "runtime/dynamic.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace drbml::explore {

namespace {

/// Replay budget for the minimizer.
constexpr int kMaxMinimizeReplays = 128;

std::uint64_t schedule_seed(std::uint64_t base, int index) {
  return mix64(base + 0x9e3779b97f4a7c15ULL *
                          (static_cast<std::uint64_t>(index) + 1));
}

/// A schedule that ran and found no race, as a later schedule that
/// repeats it (runtime::repeats_run) reports it: its options, its teams,
/// their PCT plans, and its outcome.
struct DistinctRun {
  runtime::RunOptions run;
  std::vector<runtime::TeamRecord> regions;
  runtime::PctPlans plans;
  bool faulted = false;
  std::uint64_t steps = 0;
};

runtime::RunOptions schedule_run_options(const ExploreOptions& opts,
                                         int index) {
  runtime::RunOptions run = opts.run;
  run.seed = schedule_seed(opts.seed, index);
  run.strategy = opts.strategy;
  run.replay = nullptr;
  run.capture_trace = true;
  run.collect_coverage = true;
  return run;
}

}  // namespace

ExploreResult explore_source(std::string_view source,
                             const ExploreOptions& opts) {
  static obs::Counter& schedules_run =
      obs::metrics().counter(obs::kExploreSchedules);
  static obs::Counter& schedules_repeated =
      obs::metrics().counter(obs::kExploreSchedulesRepeated);
  static obs::Counter& races = obs::metrics().counter(obs::kExploreRaces);
  static obs::Counter& coverage_new =
      obs::metrics().counter(obs::kExploreCoverageNew);
  static obs::Counter& plateau_stops =
      obs::metrics().counter(obs::kExplorePlateauStops);
  static obs::Counter& minimize_replays =
      obs::metrics().counter(obs::kExploreMinimizeReplays);
  static obs::Counter& witnesses =
      obs::metrics().counter(obs::kExploreWitnesses);
  static obs::Histogram& to_first_race =
      obs::metrics().histogram(obs::kExploreSchedulesToFirstRace);

  if (opts.strategy == runtime::ScheduleStrategy::Replay) {
    throw Error("explore: the replay strategy needs a recorded trace "
                "(replay a witness instead)");
  }
  obs::Span entry_span(obs::kSpanExploreEntry,
                       runtime::strategy_name(opts.strategy));

  // Compile once; every schedule (and the minimizer's replays) reuses the
  // same verified module, and resumes from the first schedule's snapshot
  // of the serial prefix.
  runtime::CompiledProgram program(source);

  ExploreResult result;
  std::set<std::uint64_t> coverage;
  int plateau = 0;
  runtime::ScheduleTrace racy_trace;
  runtime::RunOptions racy_run;
  // The schedules run so far (a racy one ends the loop). A schedule whose
  // run would repeat one of them takes its outcome instead of running.
  std::vector<DistinctRun> distinct;
  runtime::PctPlans plans;

  for (int i = 0; i < opts.max_schedules; ++i) {
    const runtime::RunOptions run = schedule_run_options(opts, i);
    plans.reset(run);
    const DistinctRun* repeated = nullptr;
    for (DistinctRun& d : distinct) {
      if (runtime::repeats_run(d.run, d.regions, d.plans, run, plans)) {
        repeated = &d;
        break;
      }
    }
    ++result.schedules_run;
    schedules_run.add();

    ScheduleStats stats;
    stats.seed = run.seed;
    runtime::RunResult rr;
    if (repeated != nullptr) {
      // The earlier run found no race, and its coverage is in the union.
      schedules_repeated.add();
      stats.faulted = repeated->faulted;
      stats.steps = repeated->steps;
    } else {
      rr = [&] {
        obs::Span span(obs::kSpanExploreSchedule, std::to_string(i));
        return program.run(run);
      }();
      stats.raced = rr.report.race_detected;
      stats.faulted = rr.faulted;
      stats.steps = rr.steps;
      for (std::uint64_t h : rr.coverage) {
        if (coverage.insert(h).second) ++stats.new_coverage;
      }
      if (!stats.raced) {
        const std::span<const runtime::TeamRecord> regions =
            program.regions();
        distinct.emplace_back(run, std::vector(regions.begin(), regions.end()),
                              std::move(plans), stats.faulted, stats.steps);
      }
    }
    coverage_new.add(stats.new_coverage);
    if (stats.faulted) ++result.faulted_runs;
    result.schedules.push_back(stats);

    if (stats.raced) {
      races.add();
      result.race_detected = true;
      result.first_race_schedule = i;
      result.first_race_seed = run.seed;
      to_first_race.observe(static_cast<std::uint64_t>(i) + 1);
      for (auto& pair : rr.report.pairs) {
        result.report.add_pair(std::move(pair));
      }
      for (auto& d : rr.report.diagnostics) {
        result.report.diagnostics.push_back(std::move(d));
      }
      racy_trace = std::move(rr.trace);
      racy_run = run;
      break;
    }

    if (opts.plateau_window > 0) {
      if (stats.new_coverage == 0) {
        if (++plateau >= opts.plateau_window) {
          result.stopped_on_plateau = true;
          plateau_stops.add();
          break;
        }
      } else {
        plateau = 0;
      }
    }
  }

  result.coverage.assign(coverage.begin(), coverage.end());

  if (result.race_detected) {
    result.original_decisions = racy_trace.total_decisions();
    runtime::ScheduleTrace minimized = racy_trace;
    if (opts.minimize) {
      obs::Span span(obs::kSpanExploreMinimize);
      auto still_races = [&](const runtime::ScheduleTrace& candidate) {
        runtime::RunOptions replay = racy_run;
        replay.strategy = runtime::ScheduleStrategy::Replay;
        replay.replay = &candidate;
        replay.capture_trace = false;
        replay.collect_coverage = false;
        return program.run(replay).report.race_detected;
      };
      MinimizeResult mr =
          minimize_trace(racy_trace, still_races, kMaxMinimizeReplays);
      result.minimize_replays = mr.replays;
      minimize_replays.add(static_cast<std::uint64_t>(mr.replays));
      // Ship only a trace that verifiably races. ddmin replayed the trace
      // it returns when it accepted it; the full trace it returns when it
      // accepted nothing is replayed here, guarding against a recorded
      // trace that does not reproduce its race (a bug).
      if (mr.replayed || still_races(mr.trace)) {
        minimized = std::move(mr.trace);
      }
    }
    Witness w;
    w.num_threads = racy_run.num_threads;
    w.preempt_every = racy_run.preempt_every;
    w.step_limit = racy_run.step_limit;
    w.trace = std::move(minimized);
    result.witness_decisions = w.trace.total_decisions();
    result.witness = encode_witness(w);
    witnesses.add();
  } else {
    result.report.diagnostics.push_back(
        std::string("explore: no race in ") +
        std::to_string(result.schedules_run) + " " +
        runtime::strategy_name(opts.strategy) + " schedule(s)" +
        (result.stopped_on_plateau ? " (coverage plateau)" : ""));
  }
  result.report.race_detected = !result.report.pairs.empty();
  return result;
}

runtime::RunResult replay_witness(std::string_view source, const Witness& w,
                                  const runtime::RunOptions& base) {
  return runtime::CompiledProgram(source).run(witness_run_options(w, base));
}

}  // namespace drbml::explore
