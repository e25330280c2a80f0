// Golden static fingerprints: the front end's and the static detector's
// observable output, pinned in a committed file.
//
// tests/golden/static_fingerprints.txt has two sections.
//
//   static NAME ...   one line per program (the 202 corpus entries, then
//                     the 200 synth kernels of seed 7 that the runtime
//                     golden file uses): the verdict, the pair and
//                     discharged-pair counts, and 64-bit hashes of
//                     - the default static report as `drbml analyze
//                       --detector static --explain --format json`
//                       prints it (pairs with var, text, line, col and op;
//                       discharged pairs; evidence chains; diagnostics),
//                     - the comment stripper's StripResult (trimmed text
//                       and line map),
//                     - the linter's JSON report.
//   mutant NAME#K ... one line per fixed-seed byte mutant of a corpus
//                     file or of its comment-free code (ten per entry,
//                     fuzz_test's mutations): the ParseError text, line
//                     and column, or `ok` plus hashes of the printed
//                     translation unit and the StripResult. This pins the
//                     error texts and locations CLI and serve users see.
//
// Any change to the comment stripper, lexer, parser, resolver, constant
// propagation, access collection, dependence testing or linter that moves
// an observable result fails here. Regenerate the file (only for an
// intended behaviour change) with
//
//   build/tests/static_golden_test --regenerate
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

#include "analysis/evidence.hpp"
#include "analysis/race.hpp"
#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "fuzz_mutate.hpp"
#include "lint/emit.hpp"
#include "lint/lint.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

#ifndef DRBML_GOLDEN_FILE
#error "DRBML_GOLDEN_FILE must name tests/golden/static_fingerprints.txt"
#endif

namespace drbml {
namespace {

struct Program {
  std::string name;
  std::string code;
};

/// The corpus files (header comment included) followed by the seeded
/// synthetic kernels of the runtime golden file.
const std::vector<Program>& programs() {
  static const std::vector<Program> all = [] {
    std::vector<Program> out;
    for (const drb::CorpusEntry& e : drb::corpus()) {
      out.push_back({e.name, drb::drb_code(e)});
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

constexpr int kMutantsPerEntry = 10;

/// Quotes free text so a fingerprint stays on one line.
std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) >= 0x7f) {
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

std::uint64_t strip_hash(const minic::StripResult& s) {
  std::uint64_t h = fnv1a64(s.trimmed);
  h = hash_combine(h, s.line_map.size());
  for (int line : s.line_map) {
    h = hash_combine(h, static_cast<std::uint64_t>(line));
  }
  return h;
}

/// The report as `drbml analyze --detector static --explain --format json`
/// prints it, less the file path.
std::string explain_json(const analysis::RaceReport& r) {
  const auto pair_json = [](const auto& p) {
    json::Object o;
    o.set("first", serve::access_to_json(p.first));
    o.set("second", serve::access_to_json(p.second));
    o.set("evidence", analysis::evidence_to_json(p.evidence));
    return json::Value(std::move(o));
  };
  json::Array pairs;
  for (const auto& pair : r.pairs) pairs.push_back(pair_json(pair));
  json::Array discharged;
  for (const auto& d : r.discharged) discharged.push_back(pair_json(d));
  json::Array diags;
  for (const auto& diag : r.diagnostics) diags.emplace_back(diag);
  json::Object root;
  root.set("race_detected", r.race_detected);
  root.set("pairs", std::move(pairs));
  root.set("discharged", std::move(discharged));
  root.set("diagnostics", std::move(diags));
  return json::Value(std::move(root)).dump_pretty();
}

std::string static_line(const Program& p) {
  std::string line = "static " + p.name;
  const analysis::RaceReport report =
      analysis::StaticRaceDetector().analyze_source(p.code);
  line += " race=" + std::to_string(report.race_detected ? 1 : 0);
  line += " pairs=" + std::to_string(report.pairs.size());
  line += " discharged=" + std::to_string(report.discharged.size());
  line += " report=" + hex(fnv1a64(explain_json(report)));
  line += " strip=" + hex(strip_hash(minic::strip_comments(p.code)));
  try {
    const lint::LintReport report = lint::lint_source(p.code);
    line += " lint=" + hex(fnv1a64(lint::to_json({p.name, report}).dump()));
  } catch (const Error& e) {
    line += " lint-error=" + quote(e.what());
  }
  return line;
}

/// One line per mutant of corpus entry `index`: even mutants edit the
/// whole file, odd ones its comment-free code.
std::vector<std::string> mutant_lines(std::size_t index) {
  const drb::CorpusEntry& entry = drb::corpus()[index];
  const std::string bases[2] = {drb::drb_code(entry),
                                drb::resolve_entry(entry).trimmed};
  Rng rng = Rng::from_key("static-golden/" + entry.name);
  std::vector<std::string> lines;
  for (int k = 0; k < kMutantsPerEntry; ++k) {
    const std::string input = mutate(bases[k % 2], rng);
    std::string line = "mutant " + entry.name + "#" + std::to_string(k);
    try {
      const minic::Program prog = minic::parse_program(input);
      line += " ok unit=" + hex(fnv1a64(minic::unit_to_string(*prog.unit)));
      line += " strip=" + hex(strip_hash(prog.strip));
    } catch (const ParseError& e) {
      line += " error=" + quote(e.what()) + " at=" +
              std::to_string(e.line()) + ":" + std::to_string(e.col());
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

enum class Part { Static, Mutants };

/// The golden lines of one part, in file order.
std::vector<std::string> compute(Part part) {
  if (part == Part::Static) {
    return support::parallel_map(4, programs(), static_line);
  }
  std::vector<std::size_t> entries(drb::corpus().size());
  for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = i;
  std::vector<std::vector<std::string>> per_entry =
      support::parallel_map(4, entries, mutant_lines);
  std::vector<std::string> out;
  for (auto& lines : per_entry) {
    for (auto& l : lines) out.push_back(std::move(l));
  }
  return out;
}

const char* part_prefix(Part part) {
  return part == Part::Static ? "static " : "mutant ";
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

TEST(StaticGolden, ReportsStripsAndLintsMatchGolden) {
  expect_matches_golden(Part::Static);
}

TEST(StaticGolden, MutantParsesAndErrorsMatchGolden) {
  expect_matches_golden(Part::Mutants);
}

int regenerate() {
  std::ofstream out(DRBML_GOLDEN_FILE);
  for (Part part : {Part::Static, Part::Mutants}) {
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
