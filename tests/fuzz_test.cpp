// Robustness fuzzing (deterministic): the JSON parser, the Mini-C
// frontend, and the response parsers must never crash on malformed
// input -- they throw typed errors or return best-effort results.
#include <gtest/gtest.h>

#include <string>

#include "analysis/resolve.hpp"
#include "drb/corpus.hpp"
#include "eval/parse.hpp"
#include "minic/parser.hpp"
#include "runtime/interp.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace drbml {
namespace {

std::string random_bytes(Rng& rng, std::size_t max_len) {
  const std::size_t n = rng.below(max_len) + 1;
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Printable-biased bytes with occasional control characters.
    if (rng.chance(0.9)) {
      s.push_back(static_cast<char>(rng.between(32, 126)));
    } else {
      s.push_back(static_cast<char>(rng.between(1, 31)));
    }
  }
  return s;
}

/// Mutates a valid document: deletions, duplications, byte flips.
std::string mutate(const std::string& base, Rng& rng) {
  std::string s = base;
  const int edits = static_cast<int>(rng.between(1, 8));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.below(s.size());
    switch (rng.below(3)) {
      case 0: s.erase(pos, 1); break;
      case 1: s.insert(pos, 1, static_cast<char>(rng.between(32, 126))); break;
      default: s[pos] = static_cast<char>(rng.between(32, 126)); break;
    }
  }
  return s;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, JsonParserNeverCrashes) {
  Rng rng = Rng::from_key("fuzz-json/" + std::to_string(GetParam()));
  for (int round = 0; round < 50; ++round) {
    const std::string input = random_bytes(rng, 200);
    try {
      (void)json::parse(input);
    } catch (const JsonError&) {
      // expected for malformed documents
    }
  }
}

TEST_P(FuzzTest, JsonParserSurvivesMutatedValidDocuments) {
  Rng rng = Rng::from_key("fuzz-json-mut/" + std::to_string(GetParam()));
  const std::string valid =
      R"({"ID":1,"name":"x","var_pairs":[{"name":["a","b"],"line":[1,2]}]})";
  for (int round = 0; round < 50; ++round) {
    const std::string input = mutate(valid, rng);
    try {
      (void)json::parse(input);
    } catch (const JsonError&) {
    }
  }
}

TEST_P(FuzzTest, FrontendNeverCrashesOnMutatedPrograms) {
  Rng rng = Rng::from_key("fuzz-minic/" + std::to_string(GetParam()));
  const std::string base =
      drb::resolve_entry(
          drb::corpus()[rng.below(drb::corpus().size())])
          .trimmed;
  for (int round = 0; round < 10; ++round) {
    const std::string input = mutate(base, rng);
    try {
      (void)minic::parse_program(input);
    } catch (const ParseError&) {
      // expected
    } catch (const Error&) {
      // other typed library errors are fine too
    }
  }
}

TEST_P(FuzzTest, ResponseParsersNeverCrash) {
  Rng rng = Rng::from_key("fuzz-parse/" + std::to_string(GetParam()));
  static const char* kFragments[] = {
      "yes",        "no",       "variable '", "' at line ",
      "{\"data_race\":", "1}",  "write",      "read",
      "\"variable_names\": [", "]",           "a[i]",
      "I cannot",  "\n",        "operation",  ":",
  };
  for (int round = 0; round < 50; ++round) {
    std::string input;
    const int pieces = static_cast<int>(rng.between(1, 12));
    for (int p = 0; p < pieces; ++p) {
      input += kFragments[rng.below(std::size(kFragments))];
    }
    const eval::ParsedVarId parsed = eval::parse_varid(input);
    // Whatever came back must be internally consistent.
    for (const auto& pair : parsed.pairs) {
      EXPECT_LE(pair.names.size(), 2u);
    }
    (void)eval::parse_detection(input);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzTest, ::testing::Range(0, 20));

// Fuzzing of the bytecode VM: mutated corpus programs that still parse
// and resolve must run to a verdict or a structured fault, never crash,
// and a second run with the same options must reproduce the first
// exactly -- verdict, output, steps, fault message, and decision trace.
// The mutations reach degenerate programs (dead code, broken loops, odd
// expressions) no generator template produces. (The test name dates
// from when a second executor was run alongside the VM.)
TEST_P(FuzzTest, MutatedProgramsBehaveIdenticallyAcrossBackends) {
  Rng rng = Rng::from_key("fuzz-vm-diff/" + std::to_string(GetParam()));
  const std::string base =
      drb::resolve_entry(drb::corpus()[rng.below(drb::corpus().size())])
          .trimmed;
  int executed = 0;
  for (int round = 0; round < 60 && executed < 8; ++round) {
    const std::string input = mutate(base, rng);
    minic::Program prog;
    analysis::Resolution res;
    try {
      prog = minic::parse_program(input);
      res = analysis::resolve(*prog.unit);
    } catch (const Error&) {
      continue;  // mutation broke the frontend contract; not our target
    }
    runtime::RunOptions opts;
    opts.seed = 3;
    opts.step_limit = 100'000;  // mutations can create infinite loops
    opts.capture_trace = true;
    runtime::RunResult first;
    try {
      first = runtime::run_program(*prog.unit, res, opts);
    } catch (const Error&) {
      continue;  // typed runtime rejection (e.g. no main) is fine
    }
    const runtime::RunResult again =
        runtime::run_program(*prog.unit, res, opts);
    ++executed;
    EXPECT_EQ(first.report.race_detected, again.report.race_detected)
        << input;
    EXPECT_EQ(first.output, again.output) << input;
    EXPECT_EQ(first.steps, again.steps) << input;
    EXPECT_EQ(first.faulted, again.faulted) << input;
    EXPECT_EQ(first.fault_message, again.fault_message) << input;
    EXPECT_EQ(first.trace, again.trace) << input;
  }
  // Most single-byte mutations still parse; the test must actually
  // exercise the VM, not vacuously skip everything.
  EXPECT_GT(executed, 0);
}

}  // namespace
}  // namespace drbml
