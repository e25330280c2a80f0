#include "runtime/dynamic.hpp"

#include "minic/parser.hpp"
#include "obs/catalog.hpp"
#include "runtime/bc/compile.hpp"

namespace drbml::runtime {

analysis::RaceReport DynamicRaceDetector::analyze_source(
    std::string_view source) const {
  static obs::Counter& replays = obs::metrics().counter(obs::kInterpReplays);
  static obs::Counter& faults = obs::metrics().counter(obs::kInterpFaults);
  static obs::Counter& races = obs::metrics().counter(obs::kInterpRaces);
  static obs::Counter& steps = obs::metrics().counter(obs::kSchedSteps);
  static obs::Histogram& steps_hist =
      obs::metrics().histogram(obs::kSchedStepsPerReplay);

  minic::Program prog = minic::parse_program(source);
  analysis::Resolution res = analysis::resolve(*prog.unit);

  // Compile once, execute every schedule seed against the same module;
  // seeds after the first resume from its snapshot of the serial prefix.
  bc::Module module;
  PrefixSnapshot prefix;
  RunOptions run = opts_.run;
  if (run.module == nullptr) {
    module = bc::compile_verified(*prog.unit);
    run.module = &module;
  }
  run.prefix = &prefix;

  analysis::RaceReport merged;
  for (std::uint64_t seed : opts_.schedule_seeds) {
    run.seed = seed;
    const std::string seed_label = "seed=" + std::to_string(seed);
    RunResult result = [&] {
      obs::Span span(obs::kSpanInterpReplay, seed_label);
      return run_program(*prog.unit, res, run);
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
  }
  if (!merged.race_detected) {
    merged.diagnostics.push_back(
        "dynamic: no happens-before violation observed");
  }
  return merged;
}

RunResult DynamicRaceDetector::run_once(std::string_view source,
                                        std::uint64_t seed) const {
  minic::Program prog = minic::parse_program(source);
  analysis::Resolution res = analysis::resolve(*prog.unit);
  RunOptions run = opts_.run;
  run.seed = seed;
  return run_program(*prog.unit, res, run);
}

}  // namespace drbml::runtime
