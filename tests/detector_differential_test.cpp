// Differential testing of the static and dynamic detectors over the
// synthetic kernel generator, driven through the cached/parallel
// invocation path the experiment harness uses.
//
// The synthesizer's construction labels are ground truth: each template
// family is structurally racy or structurally safe for every parameter
// choice. The dynamic (vector-clock) detector reports only races it
// observed, so it must never flag a race-free kernel -- a false positive
// here means the happens-before tracking, the artifact cache, or the
// parallel executor corrupted an analysis.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/drbml.hpp"
#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "eval/artifact_cache.hpp"
#include "eval/experiments.hpp"
#include "explore/explore.hpp"
#include "runtime/dynamic.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace drbml {
namespace {

std::vector<drb::SynthEntry> kernels() {
  drb::SynthConfig config;
  config.count = 200;
  config.seed = 20230806;
  return drb::synthesize(config);
}

TEST(DetectorDifferential, DynamicNeverFlagsRaceFreeSynthKernels) {
  const std::vector<drb::SynthEntry> entries = kernels();
  ASSERT_EQ(entries.size(), 200u);

  runtime::DynamicDetectorOptions dyn_opts;  // default 3 schedule seeds
  eval::ArtifactCache& cache = eval::artifact_cache();

  // Analyze through the shared cache from 8 worker threads, exactly as
  // the parallel experiment harness does.
  const std::vector<int> verdicts = support::parallel_map(
      8, entries, [&](const drb::SynthEntry& e) -> int {
        return cache.dynamic_report(e.code, dyn_opts).race_detected ? 1 : 0;
      });

  int safe_kernels = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].race) continue;
    ++safe_kernels;
    EXPECT_EQ(verdicts[i], 0)
        << "dynamic detector false positive on race-free kernel "
        << entries[i].name << " (pattern " << entries[i].pattern << ")";
  }
  ASSERT_GT(safe_kernels, 50) << "generator produced too few safe kernels "
                                 "for the assertion to mean anything";
}

TEST(DetectorDifferential, CachedVerdictsMatchFreshDetectors) {
  // The cache must be a pure memo: verdicts served through it agree with
  // fresh, uncached detector runs.
  std::vector<drb::SynthEntry> entries = kernels();
  entries.resize(40);

  runtime::DynamicDetectorOptions dyn_opts;
  analysis::StaticDetectorOptions static_opts;
  eval::ArtifactCache& cache = eval::artifact_cache();

  for (const drb::SynthEntry& e : entries) {
    const bool cached_dynamic =
        cache.dynamic_report(e.code, dyn_opts).race_detected;
    const bool fresh_dynamic = runtime::DynamicRaceDetector(dyn_opts)
                                   .analyze_source(e.code)
                                   .race_detected;
    EXPECT_EQ(cached_dynamic, fresh_dynamic) << e.name;

    const bool cached_static =
        cache.static_report(e.code, static_opts).race_detected;
    const bool fresh_static = analysis::StaticRaceDetector(static_opts)
                                  .analyze_source(e.code)
                                  .race_detected;
    EXPECT_EQ(cached_static, fresh_static) << e.name;
  }
}

// Entries whose race the interpreter cannot exhibit on any schedule. A
// static-hit/explore-miss on one of these produces a structured miss
// report instead of a failure; a miss on any other entry fails the test.
const std::map<std::string, std::string>& dynamically_invisible() {
  static const std::map<std::string, std::string> table = {
      {"DRB007-collapsedep-orig-yes.c",
       "collapse(2) is not distributed over the inner loop by the "
       "interpreter, so the j-carried dependence never crosses threads"},
  };
  return table;
}

TEST(DetectorDifferential, PctExplorationMatchesStaticOnRaceLabeledCorpus) {
  // Whenever the static detector flags a race-labeled corpus entry, PCT
  // exploration at the stats-gate budget must reproduce the race; known
  // dynamically-invisible entries are reported, not asserted.
  std::vector<const drb::CorpusEntry*> racy;
  for (const auto& e : drb::corpus()) {
    if (e.race) racy.push_back(&e);
  }
  ASSERT_GT(racy.size(), 100u);

  analysis::StaticDetectorOptions static_opts;
  explore::ExploreOptions eopts;
  eopts.strategy = runtime::ScheduleStrategy::Pct;
  eopts.max_schedules = 12;
  eopts.minimize = false;
  eval::ArtifactCache& cache = eval::artifact_cache();

  struct Outcome {
    bool static_hit = false;
    bool explored_hit = false;
    int schedules = 0;
    bool plateau = false;
    bool error = false;
  };
  const std::vector<Outcome> outcomes = support::parallel_map(
      0, racy, [&](const drb::CorpusEntry* e) -> Outcome {
        Outcome o;
        const std::string code = drb::drb_code(*e);
        try {
          o.static_hit = cache.static_report(code, static_opts).race_detected;
          const explore::ExploreResult& r = cache.explore_result(code, eopts);
          o.explored_hit = r.race_detected;
          o.schedules = r.schedules_run;
          o.plateau = r.stopped_on_plateau;
        } catch (const Error&) {
          o.error = true;
        }
        return o;
      });

  int static_hits = 0;
  int misses = 0;
  for (std::size_t i = 0; i < racy.size(); ++i) {
    const Outcome& o = outcomes[i];
    ASSERT_FALSE(o.error) << racy[i]->name;
    if (!o.static_hit) continue;
    ++static_hits;
    if (o.explored_hit) continue;
    ++misses;
    const auto known = dynamically_invisible().find(racy[i]->name);
    const bool documented = known != dynamically_invisible().end();
    std::fprintf(stderr,
                 "miss-report: %s [%s] static=yes explored=no "
                 "schedules=%d plateau=%d reason=%s\n",
                 racy[i]->name.c_str(), racy[i]->pattern.c_str(), o.schedules,
                 o.plateau ? 1 : 0,
                 documented ? known->second.c_str() : "UNDOCUMENTED");
    EXPECT_TRUE(documented)
        << racy[i]->name << ": static detector finds the race but PCT "
        << "exploration missed it within " << eopts.max_schedules
        << " schedules, and the entry is not on the documented "
        << "dynamically-invisible list";
  }
  // The static detector covers nearly the whole race-labeled corpus, so
  // the implication above is not vacuous; and every miss is documented.
  EXPECT_GT(static_hits, 90);
  EXPECT_LE(misses, static_cast<int>(dynamically_invisible().size()));
}

TEST(TraditionalTool, MalformedEntryCountsAsNegativeInsteadOfAborting) {
  // Neither the static nor the dynamic tool can parse this; the harness
  // must swallow both failures and count the entry as a negative
  // prediction instead of aborting the whole table.
  dataset::Entry malformed;
  malformed.id = 9001;
  malformed.name = "MALFORMED-001";
  malformed.trimmed_code = "#pragma omp parallel for\nfor (int i = 0; i <";
  malformed.data_race = 1;  // labeled racy, so the miss lands in FN

  dataset::Entry healthy;
  healthy.id = 9002;
  healthy.name = "HEALTHY-001";
  healthy.trimmed_code =
      "int main() {\n"
      "  int a[64];\n"
      "  #pragma omp parallel for\n"
      "  for (int i = 0; i < 64; i = i + 1) {\n"
      "    a[i] = i;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  healthy.data_race = 0;

  const std::vector<const dataset::Entry*> subset = {&malformed, &healthy};
  eval::ConfusionMatrix cm;
  ASSERT_NO_THROW(cm = eval::run_traditional_tool(subset));
  EXPECT_EQ(cm.total(), 2);
  EXPECT_EQ(cm.fn, 1);  // malformed racy entry -> negative prediction
  EXPECT_EQ(cm.tn, 1);  // healthy race-free entry -> true negative
}

}  // namespace
}  // namespace drbml
