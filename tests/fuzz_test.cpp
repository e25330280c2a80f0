// Robustness fuzzing (deterministic): the JSON parser, the Mini-C
// frontend, and the response parsers must never crash on malformed
// input -- they throw typed errors or return best-effort results.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "analysis/resolve.hpp"
#include "drb/corpus.hpp"
#include "eval/parse.hpp"
#include "fuzz_mutate.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
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

// Fixed-budget fuzz target for the Mini-C front end (comment stripper,
// lexer, parser): mutants of every corpus file and of its comment-free
// code either parse or throw ParseError -- no other exception, no crash,
// no read past the source (ASan+UBSan run this in scripts/check.sh stage
// 4; tokens are views into the source). Besides mutate's byte edits the
// mutants truncate inside a string or char literal, a block comment or a
// pragma that ends in a backslash, carry literals at or past the edges of
// the numeric conversions, and carry bytes >= 0x80 and NUL.

/// `base` cut at a random point and ended inside an unterminated
/// construct.
std::string truncated(const std::string& base, Rng& rng) {
  static const char* const kTails[] = {
      "\"abc",          "\"a\\",       "'",
      "'\\",           "'x",          "/* never closed",
      "/*",             "#pragma omp parallel \\",
      "#pragma omp parallel for \\\n  private(",
      "#pragma omp critical (",
  };
  return base.substr(0, rng.below(base.size() + 1)) +
         kTails[rng.below(std::size(kTails))];
}

/// `base` with a numeric literal at the edge of (or past) what the lexer
/// converts, inserted at a random point or over an existing number.
std::string with_edge_literal(const std::string& base, Rng& rng) {
  static const char* const kLiterals[] = {
      "99999999999999999999", "9223372036854775807", "9223372036854775808",
      "18446744073709551616", "0xFFFFFFFFFFFFFFFF",  "0x1FFFFFFFFFFFFFFFF",
      "0x",                   "0X",                  "1e999",
      "1e-999",               "4.9e-324",            "1e",
      "1.2.3",                ".5e+",                "0x1p3",
      "00000000000000000000000000000000000000000000000000000000000000001",
      "1.00000000000000000000000000000000000000000000000000000000000001e1",
  };
  const std::string literal = kLiterals[rng.below(std::size(kLiterals))];
  std::string s = base;
  const std::size_t digit = s.find_first_of("0123456789", rng.below(s.size()));
  if (digit != std::string::npos && rng.chance(0.5)) {
    std::size_t end = digit;
    while (end < s.size() && std::isalnum(static_cast<unsigned char>(s[end]))) {
      ++end;
    }
    return s.replace(digit, end - digit, literal);
  }
  return s.insert(rng.below(s.size() + 1), " " + literal + " ");
}

/// `base` with a byte >= 0x80 or a NUL inserted or overwritten.
std::string with_odd_byte(const std::string& base, Rng& rng) {
  static const unsigned char kBytes[] = {0x00, 0x80, 0xbf, 0xc3, 0xe2, 0xff};
  const char byte = static_cast<char>(kBytes[rng.below(std::size(kBytes))]);
  std::string s = base;
  const std::size_t pos = rng.below(s.size());
  if (rng.chance(0.5)) {
    s[pos] = byte;
  } else {
    s.insert(pos, 1, byte);
  }
  return s;
}

TEST(MinicFuzz, MutantsParseOrFailCleanly) {
  constexpr int kMutantsPerEntry = 20;
  Rng rng = Rng::from_key("minic-fuzz");
  int parsed = 0;
  int rejected = 0;
  for (const drb::CorpusEntry& entry : drb::corpus()) {
    const std::string bases[2] = {drb::drb_code(entry),
                                  drb::resolve_entry(entry).trimmed};
    for (int k = 0; k < kMutantsPerEntry; ++k) {
      const std::string& base = bases[k % 2];
      std::string input;
      switch (rng.below(4)) {
        case 0: input = mutate(base, rng); break;
        case 1: input = truncated(base, rng); break;
        case 2: input = with_edge_literal(base, rng); break;
        default: input = with_odd_byte(base, rng); break;
      }
      try {
        const minic::Program prog = minic::parse_program(input);
        (void)minic::unit_to_string(*prog.unit);
        ++parsed;
      } catch (const ParseError&) {
        ++rejected;
      }
    }
  }
  EXPECT_EQ(parsed + rejected,
            static_cast<int>(drb::corpus().size()) * kMutantsPerEntry);
  // Both outcomes occur: the target reaches past the lexer.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

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
