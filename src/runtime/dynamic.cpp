#include "runtime/dynamic.hpp"

#include <utility>

#include "minic/parser.hpp"
#include "obs/catalog.hpp"
#include "runtime/bc/compile.hpp"

namespace drbml::runtime {

CompiledProgram::CompiledProgram(std::string_view source)
    : prog_(minic::parse_program(source)),
      res_(analysis::resolve(*prog_.unit)),
      module_(bc::compile_verified(*prog_.unit)) {}

RunResult CompiledProgram::run(RunOptions opts) {
  opts.module = &module_;
  opts.prefix = &prefix_;
  return run_program(*prog_.unit, res_, opts);
}

analysis::RaceReport DynamicRaceDetector::analyze_source(
    std::string_view source) const {
  static obs::Counter& replays = obs::metrics().counter(obs::kInterpReplays);
  static obs::Counter& faults = obs::metrics().counter(obs::kInterpFaults);
  static obs::Counter& races = obs::metrics().counter(obs::kInterpRaces);
  static obs::Counter& steps = obs::metrics().counter(obs::kSchedSteps);
  static obs::Histogram& steps_hist =
      obs::metrics().histogram(obs::kSchedStepsPerReplay);

  // Compile once, execute every schedule seed against the same module;
  // seeds after the first resume from its snapshot of the serial prefix.
  // A seed whose run would exactly repeat the last one adds nothing (a run
  // that forked no team took no schedule decision, so every seed repeats
  // it), and is skipped.
  CompiledProgram program(source);
  RunOptions run = opts_.run;
  RunOptions last;
  PctPlans last_plans;
  PctPlans plans;
  bool ran = false;

  analysis::RaceReport merged;
  for (std::uint64_t seed : opts_.schedule_seeds) {
    run.seed = seed;
    plans.reset(run);
    if (ran && repeats_run(last, program.regions(), last_plans, run, plans)) {
      continue;
    }
    const std::string seed_label = "seed=" + std::to_string(seed);
    RunResult result = [&] {
      obs::Span span(obs::kSpanInterpReplay, seed_label);
      return program.run(run);
    }();
    replays.add();
    steps.add(result.steps);
    steps_hist.observe(result.steps);
    if (result.faulted) faults.add();
    if (result.report.race_detected) races.add();
    for (auto& pair : result.report.pairs) {
      merged.add_pair(std::move(pair));
    }
    for (auto& d : result.report.diagnostics) {
      merged.diagnostics.push_back(std::move(d));
    }
    if (result.faulted) {
      merged.diagnostics.push_back("dynamic: run faulted: " +
                                   result.fault_message);
    }
    last = run;
    std::swap(last_plans, plans);
    ran = true;
  }
  if (!merged.race_detected) {
    merged.diagnostics.push_back(
        "dynamic: no happens-before violation observed");
  }
  return merged;
}

}  // namespace drbml::runtime
