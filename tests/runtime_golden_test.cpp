// Golden runtime fingerprints: the dynamic runtime's observable behaviour,
// pinned in a committed file rather than in a live A/B against a second
// executor.
//
// tests/golden/runtime_fingerprints.txt holds one line per (program,
// strategy, seed) run -- verdict, exit code, steps, fault text, every race
// pair, and 64-bit hashes of the decision trace, the coverage vector and
// the program output -- plus one line per program for a 24-schedule PCT
// exploration (verdict, schedules run, minimized witness). The programs
// are the 202 corpus entries and 200 seeded synthetic kernels.
//
// The file is the runtime's only reference: no second executor or
// scheduling substrate is kept alive to compare against, so any change to
// the compiler, the VM, the scheduler, the memory model or the detector
// that moves an observable result fails here.
//
// Regenerate the file (only for an intended behaviour change) with
//
//   build/tests/runtime_golden_test --regenerate
//
// which rewrites it and exits.
//
// The same programs also check that a run resumed from a serial-prefix
// snapshot (runtime::PrefixSnapshot) returns exactly what the run from
// main returns, under every schedule kind and capture setting.
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

#include "analysis/resolve.hpp"
#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "explore/explore.hpp"
#include "minic/parser.hpp"
#include "runtime/bc/compile.hpp"
#include "runtime/interp.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"

#ifndef DRBML_GOLDEN_FILE
#error "DRBML_GOLDEN_FILE must name tests/golden/runtime_fingerprints.txt"
#endif

namespace drbml {
namespace {

struct Program {
  std::string name;
  std::string code;
};

/// The corpus followed by a fixed batch of seeded synthetic kernels.
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

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t trace_hash(const runtime::ScheduleTrace& trace) {
  std::uint64_t h = mix64(trace.regions.size());
  for (const runtime::RegionTrace& region : trace.regions) {
    h = hash_combine(h, region.size());
    for (const runtime::ScheduleDecision& d : region) {
      h = hash_combine(h, d.step);
      h = hash_combine(h, (static_cast<std::uint64_t>(d.target) << 1) |
                              (d.forced ? 1u : 0u));
    }
  }
  return h;
}

std::uint64_t coverage_hash(const std::vector<std::uint64_t>& coverage) {
  std::uint64_t h = mix64(coverage.size());
  for (std::uint64_t c : coverage) h = hash_combine(h, c);
  return h;
}

std::string access(const analysis::RaceAccess& a) {
  return quote(a.expr_text) + "@" + std::to_string(a.loc.line) + ":" +
         std::to_string(a.loc.col) + ":" + a.op + ":" + a.var_name;
}

constexpr runtime::ScheduleStrategy kStrategies[] = {
    runtime::ScheduleStrategy::Uniform, runtime::ScheduleStrategy::Pct};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// One line per (strategy, seed) run of `p`.
std::vector<std::string> run_lines(const Program& p) {
  std::vector<std::string> lines;
  try {
    minic::Program prog = minic::parse_program(p.code);
    analysis::Resolution res = analysis::resolve(*prog.unit);
    for (runtime::ScheduleStrategy strategy : kStrategies) {
      for (std::uint64_t seed : kSeeds) {
        runtime::RunOptions opts;
        opts.seed = seed;
        opts.strategy = strategy;
        opts.capture_trace = true;
        opts.collect_coverage = true;
        const runtime::RunResult r =
            runtime::run_program(*prog.unit, res, opts);
        std::string line = "run " + p.name + " " +
                           runtime::strategy_name(strategy) +
                           " seed=" + std::to_string(seed);
        line += " race=" + std::to_string(r.report.race_detected ? 1 : 0);
        line += " exit=" + std::to_string(r.exit_code);
        line += " steps=" + std::to_string(r.steps);
        line += " fault=" + quote(r.faulted ? r.fault_message : "");
        line += " pairs=[";
        for (std::size_t i = 0; i < r.report.pairs.size(); ++i) {
          const analysis::RacePair& pair = r.report.pairs[i];
          if (i > 0) line += "; ";
          line += access(pair.first) + " vs " + access(pair.second);
        }
        line += "] trace=" + hex(trace_hash(r.trace));
        line += " cov=" + hex(coverage_hash(r.coverage));
        line += " out=" + hex(fnv1a64(r.output));
        lines.push_back(std::move(line));
      }
    }
  } catch (const Error& e) {
    lines.push_back("run " + p.name + " error=" + quote(e.what()));
  }
  return lines;
}

/// One line for a 24-schedule PCT exploration of `p`.
std::string explore_line(const Program& p) {
  explore::ExploreOptions opts;
  opts.strategy = runtime::ScheduleStrategy::Pct;
  opts.max_schedules = 24;
  try {
    const explore::ExploreResult r = explore::explore_source(p.code, opts);
    return "explore " + p.name +
           " race=" + std::to_string(r.race_detected ? 1 : 0) +
           " schedules=" + std::to_string(r.schedules_run) +
           " witness=" + quote(r.witness);
  } catch (const Error& e) {
    return "explore " + p.name + " error=" + quote(e.what());
  }
}

enum class Part { Runs, Explorations };

/// The golden lines of one part, in file order.
std::vector<std::string> compute(Part part) {
  std::vector<std::vector<std::string>> per_program = support::parallel_map(
      4, programs(), [&](const Program& p) -> std::vector<std::string> {
        if (part == Part::Runs) return run_lines(p);
        return {explore_line(p)};
      });
  std::vector<std::string> out;
  for (auto& lines : per_program) {
    for (auto& l : lines) out.push_back(std::move(l));
  }
  return out;
}

const char* part_prefix(Part part) {
  return part == Part::Runs ? "run " : "explore ";
}

std::vector<std::string> golden_lines(Part part) {
  std::ifstream in(DRBML_GOLDEN_FILE);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(part_prefix(part), 0) == 0) out.push_back(line);
  }
  return out;
}

void expect_matches_golden(Part part) {
  const std::vector<std::string> want = golden_lines(part);
  ASSERT_FALSE(want.empty()) << "no golden lines in " << DRBML_GOLDEN_FILE;
  const std::vector<std::string> got = compute(part);
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (want[i] != got[i]) {
      FAIL() << "first differing line (" << i + 1 << " of the "
             << part_prefix(part) << "lines):\n  golden: " << want[i]
             << "\n  actual: " << got[i];
    }
  }
  EXPECT_EQ(want.size(), got.size()) << "line count differs";
}

TEST(RuntimeGolden, VmRunsMatchGolden) { expect_matches_golden(Part::Runs); }

TEST(RuntimeGolden, VmExplorationsMatchGolden) {
  expect_matches_golden(Part::Explorations);
}

// ------------------------------------------------- prefix snapshots

/// Everything a run returns, spelled out in full.
std::string describe(const runtime::RunResult& r) {
  std::string out = "race=" + std::to_string(r.report.race_detected ? 1 : 0) +
                    " exit=" + std::to_string(r.exit_code) +
                    " steps=" + std::to_string(r.steps) +
                    " faulted=" + std::to_string(r.faulted ? 1 : 0) +
                    " fault=" + quote(r.fault_message) + " pairs=[";
  for (const analysis::RacePair& pair : r.report.pairs) {
    out += access(pair.first) + " vs " + access(pair.second) + " " +
           quote(pair.note) + ";";
  }
  out += "] suppressed=" + std::to_string(r.report.suppressed_pairs) +
         " diagnostics=[";
  for (const std::string& d : r.report.diagnostics) out += quote(d) + ";";
  out += "] trace=[";
  for (const runtime::RegionTrace& region : r.trace.regions) {
    out += "(";
    for (const runtime::ScheduleDecision& d : region) {
      out += std::to_string(d.step) + (d.forced ? "f" : "v") +
             std::to_string(d.target) + ",";
    }
    out += ")";
  }
  out += "] coverage=[";
  for (std::uint64_t c : r.coverage) out += hex(c) + ",";
  return out + "] output=" + quote(r.output);
}

/// The runs of one program that share a snapshot: uniform and PCT
/// schedules, replays of a recorded, a truncated and an empty trace, with
/// trace and coverage capture toggled. The first one fills the snapshot.
std::vector<runtime::RunOptions> snapshot_schedules(
    const runtime::ScheduleTrace& recorded,
    const runtime::ScheduleTrace& truncated,
    const runtime::ScheduleTrace& empty) {
  std::vector<runtime::RunOptions> out;
  int k = 0;
  const auto add = [&](runtime::ScheduleStrategy strategy,
                       std::uint64_t seed) -> runtime::RunOptions& {
    runtime::RunOptions o;
    o.strategy = strategy;
    o.seed = seed;
    o.capture_trace = (k & 1) == 0;
    o.collect_coverage = (k & 2) == 0;
    ++k;
    out.push_back(o);
    return out.back();
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    add(runtime::ScheduleStrategy::Pct, seed);
    add(runtime::ScheduleStrategy::Uniform, seed);
  }
  runtime::RunOptions& shallow = add(runtime::ScheduleStrategy::Pct, 5);
  shallow.pct_depth = 2;
  shallow.pct_expected_steps = 64;
  for (const runtime::ScheduleTrace* trace : {&recorded, &truncated, &empty}) {
    add(runtime::ScheduleStrategy::Replay, 1).replay = trace;
  }
  return out;
}

struct SnapshotCheck {
  std::vector<std::string> mismatches;
  bool captured = false;
};

/// Runs each of `p`'s snapshot schedules twice on one module -- resuming
/// from a shared snapshot and from main -- and lists the runs whose
/// results differ.
SnapshotCheck check_snapshot(const Program& p) {
  SnapshotCheck check;
  minic::Program prog;
  analysis::Resolution res;
  runtime::bc::Module module;
  try {
    prog = minic::parse_program(p.code);
    res = analysis::resolve(*prog.unit);
    module = runtime::bc::compile_verified(*prog.unit);
  } catch (const Error&) {
    return check;  // the golden run lines pin the error
  }
  runtime::RunOptions record;
  record.module = &module;
  record.strategy = runtime::ScheduleStrategy::Pct;
  record.capture_trace = true;
  const runtime::ScheduleTrace recorded =
      runtime::run_program(*prog.unit, res, record).trace;
  runtime::ScheduleTrace truncated = recorded;
  for (runtime::RegionTrace& region : truncated.regions) {
    region.resize(region.size() / 2);
  }
  const runtime::ScheduleTrace empty;

  runtime::PrefixSnapshot prefix;
  const std::vector<runtime::RunOptions> schedules =
      snapshot_schedules(recorded, truncated, empty);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    runtime::RunOptions opts = schedules[i];
    opts.module = &module;
    const std::string from_main =
        describe(runtime::run_program(*prog.unit, res, opts));
    opts.prefix = &prefix;
    const std::string resumed =
        describe(runtime::run_program(*prog.unit, res, opts));
    if (resumed != from_main) {
      check.mismatches.push_back(p.name + " schedule " + std::to_string(i) +
                                 ":\n  from main: " + from_main +
                                 "\n  snapshot:  " + resumed);
    }
  }
  check.captured = prefix.state != nullptr;
  return check;
}

TEST(RuntimeGolden, SnapshotRunsMatchRunsFromMain) {
  const std::vector<SnapshotCheck> checks =
      support::parallel_map(4, programs(), check_snapshot);
  std::size_t captured = 0;
  std::size_t mismatched = 0;
  for (const SnapshotCheck& c : checks) {
    if (c.captured) ++captured;
    for (const std::string& m : c.mismatches) {
      if (++mismatched <= 5) ADD_FAILURE() << m;
    }
  }
  EXPECT_EQ(mismatched, 0u) << "runs whose result depends on the snapshot";
  // Not vacuous: nearly every program forks its first team from main's
  // own chunk.
  EXPECT_GT(captured, checks.size() * 9 / 10)
      << captured << " of " << checks.size() << " programs captured";
}

int regenerate() {
  std::ofstream out(DRBML_GOLDEN_FILE);
  for (Part part : {Part::Runs, Part::Explorations}) {
    for (const std::string& line : compute(part)) {
      out << line << "\n";
    }
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
