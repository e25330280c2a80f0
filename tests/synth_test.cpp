// Tests for the synthetic training-data generator (Section 4.5 remedy):
// every generated kernel must parse, execute cleanly, and carry a label
// the dynamic detector agrees with (the generator's labels are
// by-construction ground truth).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/race.hpp"
#include "analysis/resolve.hpp"
#include "drb/synth.hpp"
#include "minic/parser.hpp"
#include "runtime/dynamic.hpp"
#include "runtime/interp.hpp"

namespace drbml::drb {
namespace {

const std::vector<SynthEntry>& sample() {
  static const std::vector<SynthEntry> entries = [] {
    SynthConfig config;
    config.count = 60;
    config.seed = 99;
    return synthesize(config);
  }();
  return entries;
}

TEST(Synth, GeneratesRequestedCount) {
  EXPECT_EQ(sample().size(), 60u);
  SynthConfig small;
  small.count = 5;
  EXPECT_EQ(synthesize(small).size(), 5u);
}

TEST(Synth, DeterministicForSeed) {
  SynthConfig config;
  config.count = 10;
  config.seed = 4;
  const auto a = synthesize(config);
  const auto b = synthesize(config);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].code, b[i].code);
    EXPECT_EQ(a[i].race, b[i].race);
  }
  config.seed = 5;
  const auto c = synthesize(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].code != c[i].code) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synth, RoughClassBalance) {
  int yes = 0;
  for (const auto& e : sample()) yes += e.race ? 1 : 0;
  EXPECT_GT(yes, 15);
  EXPECT_LT(yes, 45);
}

TEST(Synth, NamesEncodeVerdict) {
  for (const auto& e : sample()) {
    if (e.race) {
      EXPECT_NE(e.name.find("-yes.c"), std::string::npos) << e.name;
    } else {
      EXPECT_NE(e.name.find("-no.c"), std::string::npos) << e.name;
    }
  }
}

class SynthEntryTest : public ::testing::TestWithParam<int> {};

TEST_P(SynthEntryTest, ExecutesCleanlyAndLabelIsSound) {
  const SynthEntry& e = sample()[static_cast<std::size_t>(GetParam())];
  runtime::DynamicDetectorOptions opts;
  opts.schedule_seeds = {1, 2};
  runtime::DynamicRaceDetector detector(opts);

  const runtime::RunResult run = runtime::CompiledProgram(e.code).run({});
  EXPECT_FALSE(run.faulted) << e.name << ": " << run.fault_message << "\n"
                            << e.code;

  const bool observed = detector.analyze_source(e.code).race_detected;
  // Dynamic observation must agree with the constructed label: these
  // templates have schedule-robust races (or none at all).
  EXPECT_EQ(observed, e.race) << e.name << "\n" << e.code;

  // The conservative static detector must also flag every racy kernel
  // (templates are affine, so it should be exact here).
  analysis::StaticRaceDetector static_tool;
  EXPECT_EQ(static_tool.analyze_source(e.code).race_detected, e.race)
      << e.name << "\n" << e.code;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SynthEntryTest, ::testing::Range(0, 60));

// The bytecode VM on ~200 random synthesized kernels. The generator's
// parameter space reaches expression/loop shapes the hand-written corpus
// does not, so this is the adversarial input source for the compiler's
// lowering: every kernel must run, and a second run with the same options
// must reproduce the first exactly.
void expect_same_run(const runtime::RunResult& a, const runtime::RunResult& b,
                     const SynthEntry& e) {
  EXPECT_EQ(a.report.race_detected, b.report.race_detected)
      << e.name << "\n"
      << e.code;
  EXPECT_EQ(a.output, b.output) << e.name << "\n" << e.code;
  EXPECT_EQ(a.steps, b.steps) << e.name;
  EXPECT_EQ(a.faulted, b.faulted) << e.name;
  EXPECT_EQ(a.fault_message, b.fault_message) << e.name;
  EXPECT_EQ(a.trace, b.trace) << e.name;
}

TEST(SynthRepeatability, TwoHundredKernelsRerunIdentically) {
  SynthConfig config;
  config.count = 200;
  config.seed = 0xd1ffULL;
  const std::vector<SynthEntry> entries = synthesize(config);
  ASSERT_EQ(entries.size(), 200u);

  for (const SynthEntry& e : entries) {
    minic::Program prog = minic::parse_program(e.code);
    analysis::Resolution res = analysis::resolve(*prog.unit);

    runtime::RunOptions opts;
    opts.seed = 5;
    opts.capture_trace = true;
    const runtime::RunResult first =
        runtime::run_program(*prog.unit, res, opts);
    const runtime::RunResult again =
        runtime::run_program(*prog.unit, res, opts);
    expect_same_run(first, again, e);
  }
}

// Serial execution: with one thread there is no schedule nondeterminism
// at all. Covers all 200 kernels cheaply.
TEST(SynthRepeatability, SerialRunsRerunIdentically) {
  SynthConfig config;
  config.count = 200;
  config.seed = 0x5e41ULL;
  const std::vector<SynthEntry> entries = synthesize(config);

  for (const SynthEntry& e : entries) {
    minic::Program prog = minic::parse_program(e.code);
    analysis::Resolution res = analysis::resolve(*prog.unit);

    runtime::RunOptions opts;
    opts.num_threads = 1;
    opts.capture_trace = true;
    const runtime::RunResult first =
        runtime::run_program(*prog.unit, res, opts);
    const runtime::RunResult again =
        runtime::run_program(*prog.unit, res, opts);
    expect_same_run(first, again, e);
    EXPECT_EQ(first.exit_code, again.exit_code) << e.name;
  }
}

}  // namespace
}  // namespace drbml::drb
