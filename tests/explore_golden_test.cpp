// Golden exploration fingerprints: every field of an ExploreResult, pinned
// in a committed file.
//
// tests/golden/explore_fingerprints.txt holds one line per (configuration,
// program):
//
//   CONFIG NAME race=R schedules=N faulted=F hash=H
//
// where H is a 64-bit hash of the whole result: every ScheduleStats entry
// (seed, raced, faulted, steps, new coverage), the coverage union, the
// report's pairs, diagnostics and suppressed count, the first racy
// schedule and its seed, the plateau flag, the witness, the decision
// counts before and after minimization, the minimizer's replays and the
// faulted runs. A program that does not parse or resolve gets
// `error=TEXT` instead.
//
// The programs are the 202 corpus entries and the 200 synth kernels of
// seed 7 that the runtime golden file uses. The configurations:
//
//   pct-p0    PCT, 24 schedules, no plateau cut, minimization on;
//   default   ExploreOptions as constructed;
//   pct-d1    PCT depth 1 (no change points), 24 schedules, no plateau
//             cut;
//   uniform   the uniform walk, otherwise the defaults.
//
// tests/golden/runtime_fingerprints.txt pins only an exploration's
// verdict, schedule count and witness; this file pins the per-schedule
// statistics too, so an explorer change that reports one schedule's
// outcome for another fails here. Regenerate the file (only for an
// intended behaviour change) with
//
//   build/tests/explore_golden_test --regenerate
//
// which rewrites it and exits.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "explore/explore.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"

#ifndef DRBML_GOLDEN_FILE
#error "DRBML_GOLDEN_FILE must name tests/golden/explore_fingerprints.txt"
#endif

namespace drbml {
namespace {

struct Program {
  std::string name;
  std::string code;
};

/// The corpus followed by the runtime golden file's synthetic kernels.
const std::vector<Program>& programs() {
  static const std::vector<Program> all = [] {
    std::vector<Program> out;
    for (const drb::CorpusEntry& e : drb::corpus()) {
      out.push_back({e.name, e.body});
    }
    drb::SynthConfig config;
    config.count = 200;
    config.seed = 7;
    for (drb::SynthEntry& e : drb::synthesize(config)) {
      out.push_back({std::move(e.name), std::move(e.code)});
    }
    return out;
  }();
  return all;
}

struct Config {
  const char* name;
  explore::ExploreOptions opts;
};

const std::vector<Config>& configs() {
  static const std::vector<Config> all = [] {
    explore::ExploreOptions pct_p0;
    pct_p0.strategy = runtime::ScheduleStrategy::Pct;
    pct_p0.max_schedules = 24;
    pct_p0.plateau_window = 0;
    pct_p0.minimize = true;
    explore::ExploreOptions pct_d1;
    pct_d1.strategy = runtime::ScheduleStrategy::Pct;
    pct_d1.pct_depth = 1;
    pct_d1.max_schedules = 24;
    pct_d1.plateau_window = 0;
    explore::ExploreOptions uniform;
    uniform.strategy = runtime::ScheduleStrategy::Uniform;
    return std::vector<Config>{{"pct-p0", pct_p0},
                               {"default", explore::ExploreOptions{}},
                               {"pct-d1", pct_d1},
                               {"uniform", uniform}};
  }();
  return all;
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Folds values into one 64-bit hash, strings by their FNV-1a hash and
/// length.
struct Hasher {
  std::uint64_t h = 0x6578706c6f726521ULL;

  void add(std::uint64_t v) { h = hash_combine(h, v); }
  void add(std::string_view s) {
    add(s.size());
    add(fnv1a64(s));
  }
  void add(const analysis::RaceAccess& a) {
    add(a.expr_text);
    add(a.var_name);
    add(static_cast<std::uint64_t>(a.loc.line));
    add(static_cast<std::uint64_t>(a.loc.col));
    add(static_cast<std::uint64_t>(a.op));
  }
};

std::uint64_t result_hash(const explore::ExploreResult& r) {
  Hasher h;
  h.add(r.race_detected ? 1 : 0);
  h.add(r.report.race_detected ? 1 : 0);
  h.add(r.report.pairs.size());
  for (const analysis::RacePair& pair : r.report.pairs) {
    h.add(pair.first);
    h.add(pair.second);
    h.add(pair.note);
  }
  h.add(r.report.diagnostics.size());
  for (const std::string& d : r.report.diagnostics) h.add(d);
  h.add(static_cast<std::uint64_t>(r.report.suppressed_pairs));
  h.add(r.report.discharged.size());
  h.add(static_cast<std::uint64_t>(r.schedules_run));
  h.add(static_cast<std::uint64_t>(r.first_race_schedule));
  h.add(r.first_race_seed);
  h.add(r.stopped_on_plateau ? 1 : 0);
  h.add(r.coverage.size());
  for (std::uint64_t c : r.coverage) h.add(c);
  h.add(r.schedules.size());
  for (const explore::ScheduleStats& s : r.schedules) {
    h.add(s.seed);
    h.add(s.raced ? 1 : 0);
    h.add(s.faulted ? 1 : 0);
    h.add(s.steps);
    h.add(s.new_coverage);
  }
  h.add(r.witness);
  h.add(r.original_decisions);
  h.add(r.witness_decisions);
  h.add(static_cast<std::uint64_t>(r.minimize_replays));
  h.add(static_cast<std::uint64_t>(r.faulted_runs));
  return h.h;
}

/// Quotes free text so a fingerprint stays on one line.
std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fingerprint(const Config& config, const Program& p) {
  const std::string head = std::string(config.name) + " " + p.name;
  try {
    const explore::ExploreResult r = explore::explore_source(p.code,
                                                             config.opts);
    return head + " race=" + std::to_string(r.race_detected ? 1 : 0) +
           " schedules=" + std::to_string(r.schedules_run) +
           " faulted=" + std::to_string(r.faulted_runs) +
           " hash=" + hex(result_hash(r));
  } catch (const Error& e) {
    return head + " error=" + quote(e.what());
  }
}

/// The golden lines of `config`, in file order.
std::vector<std::string> compute(const Config& config) {
  return support::parallel_map(4, programs(), [&](const Program& p) {
    return fingerprint(config, p);
  });
}

std::vector<std::string> golden_lines(const Config& config) {
  const std::string prefix = std::string(config.name) + " ";
  std::ifstream in(DRBML_GOLDEN_FILE);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

void expect_matches_golden(const Config& config) {
  const std::vector<std::string> want = golden_lines(config);
  ASSERT_FALSE(want.empty()) << "no " << config.name << " lines in "
                             << DRBML_GOLDEN_FILE;
  const std::vector<std::string> got = compute(config);
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (want[i] != got[i]) {
      FAIL() << "first differing line (" << i + 1 << " of the "
             << config.name << " lines):\n  golden: " << want[i]
             << "\n  actual: " << got[i];
    }
  }
  EXPECT_EQ(want.size(), got.size()) << "line count differs";
}

TEST(ExploreGolden, PctWithoutPlateauMatchesGolden) {
  expect_matches_golden(configs()[0]);
}

TEST(ExploreGolden, DefaultOptionsMatchGolden) {
  expect_matches_golden(configs()[1]);
}

TEST(ExploreGolden, PctDepthOneMatchesGolden) {
  expect_matches_golden(configs()[2]);
}

TEST(ExploreGolden, UniformMatchesGolden) {
  expect_matches_golden(configs()[3]);
}

int regenerate() {
  std::ofstream out(DRBML_GOLDEN_FILE);
  for (const Config& config : configs()) {
    for (const std::string& line : compute(config)) out << line << "\n";
  }
  out.close();
  if (!out) {
    std::cerr << "cannot write " << DRBML_GOLDEN_FILE << "\n";
    return 1;
  }
  std::cout << "wrote " << DRBML_GOLDEN_FILE << "\n";
  return 0;
}

}  // namespace
}  // namespace drbml

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--regenerate") == 0) {
    return drbml::regenerate();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
