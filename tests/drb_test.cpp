// Corpus validation: every entry must parse, resolve its ground truth,
// render a DRB-style header, and execute cleanly under the interpreter.
// Aggregate tests check corpus composition and detector quality bounds.
#include <gtest/gtest.h>

#include <set>

#include "analysis/race.hpp"
#include "drb/corpus.hpp"
#include "minic/parser.hpp"
#include "runtime/dynamic.hpp"
#include "support/strings.hpp"

namespace drbml::drb {
namespace {

class CorpusEntryTest : public ::testing::TestWithParam<int> {
 protected:
  const CorpusEntry& entry() const {
    return corpus()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(CorpusEntryTest, ParsesWithTheFrontend) {
  const CorpusEntry& e = entry();
  minic::Program p = minic::parse_program(e.body);
  EXPECT_NE(p.unit->find_function("main"), nullptr) << e.name;
}

TEST_P(CorpusEntryTest, GroundTruthResolves) {
  const CorpusEntry& e = entry();
  ResolvedEntry r = resolve_entry(e);
  EXPECT_EQ(r.pairs.size(), e.pairs.size()) << e.name;
  for (const auto& pair : r.pairs) {
    EXPECT_GT(pair.var0.line, 0) << e.name;
    EXPECT_GT(pair.var1.line, 0) << e.name;
    EXPECT_TRUE(pair.var0.op == 'r' || pair.var0.op == 'w') << e.name;
    // The spelling really is at the reported position.
    const auto lines = split_lines(r.trimmed);
    ASSERT_LE(static_cast<std::size_t>(pair.var0.line), lines.size())
        << e.name;
    const std::string& line = lines[static_cast<std::size_t>(pair.var0.line) - 1];
    EXPECT_EQ(line.substr(static_cast<std::size_t>(pair.var0.col) - 1,
                          pair.var0.name.size()),
              pair.var0.name)
        << e.name;
  }
}

TEST_P(CorpusEntryTest, RaceYesHasPairsRaceNoHasNone) {
  const CorpusEntry& e = entry();
  if (e.race) {
    EXPECT_FALSE(e.pairs.empty()) << e.name;
  } else {
    EXPECT_TRUE(e.pairs.empty()) << e.name;
  }
}

TEST_P(CorpusEntryTest, DrbCodeCarriesAnnotations) {
  const CorpusEntry& e = entry();
  const std::string code = drb_code(e);
  EXPECT_NE(code.find(e.name), std::string::npos) << e.name;
  if (e.race) {
    EXPECT_NE(code.find("Data race pair:"), std::string::npos) << e.name;
  } else {
    EXPECT_EQ(code.find("Data race pair:"), std::string::npos) << e.name;
  }
  // Stripping the header gives back the trimmed body.
  ResolvedEntry r = resolve_entry(e);
  EXPECT_EQ(minic::strip_comments(code).trimmed, r.trimmed) << e.name;
}

TEST_P(CorpusEntryTest, ExecutesWithoutFaulting) {
  const CorpusEntry& e = entry();
  runtime::RunResult result = runtime::CompiledProgram(e.body).run({});
  EXPECT_FALSE(result.faulted) << e.name << ": " << result.fault_message;
  EXPECT_EQ(result.exit_code, 0) << e.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEntries, CorpusEntryTest,
    ::testing::Range(0, static_cast<int>(corpus().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = corpus()[static_cast<std::size_t>(info.param)].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ------------------------------------------------------------- aggregates

TEST(Corpus, HasExactly202Entries) {
  CorpusStats s = corpus_stats();
  EXPECT_EQ(s.total, 202);
  EXPECT_EQ(s.race_yes, 102);
  EXPECT_EQ(s.race_no, 100);
}

TEST(Corpus, NamesAreUniqueAndWellFormed) {
  std::set<std::string> names;
  for (const auto& e : corpus()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate: " << e.name;
    EXPECT_EQ(e.name.substr(0, 3), "DRB");
    if (e.race) {
      EXPECT_NE(e.name.find("-yes.c"), std::string::npos) << e.name;
    } else {
      EXPECT_NE(e.name.find("-no.c"), std::string::npos) << e.name;
    }
  }
}

TEST(Corpus, IdsAreSequential) {
  int expected = 1;
  for (const auto& e : corpus()) {
    EXPECT_EQ(e.id, expected++);
  }
}

TEST(Corpus, ExactlyThreeOversizedEntries) {
  int oversized = 0;
  for (const auto& e : corpus()) {
    if (e.pattern == "oversized") ++oversized;
  }
  EXPECT_EQ(oversized, 3);
}

TEST(Corpus, FindEntryWorks) {
  const CorpusEntry& first = corpus().front();
  EXPECT_EQ(find_entry(first.name), &first);
  EXPECT_EQ(find_entry("no-such-entry"), nullptr);
}

TEST(Corpus, LabelsFollowTaxonomy) {
  for (const auto& e : corpus()) {
    ASSERT_FALSE(e.label.empty()) << e.name;
    if (e.race) {
      EXPECT_EQ(e.label[0], 'Y') << e.name;
    } else {
      EXPECT_EQ(e.label[0], 'N') << e.name;
    }
  }
}

// Detector quality floors: the hybrid tool must be clearly better than
// chance, the dynamic side must be close to FP-free, and the static side
// must show both FPs and FNs (the realistic failure modes Table 3 relies
// on). Exact confusion matrices are printed by bench_table3.
TEST(CorpusDetectors, DynamicDetectorHasHighPrecision) {
  runtime::DynamicDetectorOptions opts;
  opts.schedule_seeds = {1, 2};
  runtime::DynamicRaceDetector detector(opts);
  int fp = 0;
  int tp = 0;
  int fn = 0;
  for (const auto& e : corpus()) {
    const bool flagged = detector.analyze_source(e.body).race_detected;
    if (flagged && !e.race) ++fp;
    if (flagged && e.race) ++tp;
    if (!flagged && e.race) ++fn;
  }
  EXPECT_LE(fp, 2) << "dynamic detector should be (nearly) FP-free";
  EXPECT_GE(tp, 85) << "dynamic detector should catch most real races";
}

TEST(CorpusDetectors, StaticDetectorHasRealisticErrors) {
  analysis::StaticRaceDetector detector;
  int fp = 0;
  int fn = 0;
  int tp = 0;
  for (const auto& e : corpus()) {
    const bool flagged = detector.analyze_source(e.body).race_detected;
    if (flagged && !e.race) ++fp;
    if (!flagged && e.race) ++fn;
    if (flagged && e.race) ++tp;
  }
  EXPECT_GE(tp, 80);
  // The evidence-carrying precision layer (thread-id modeling, serial
  // regions, symbolic bounds) discharged most of the classic static FPs;
  // indirect-indexing entries still over-report.
  EXPECT_GE(fp, 1) << "conservative static analysis should over-report";
  EXPECT_GE(fn, 1) << "static analysis should miss interprocedural races";
}

}  // namespace
}  // namespace drbml::drb
