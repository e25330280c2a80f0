// Determinism regression tests for the parallel experiment executor:
// every pipeline must produce bit-identical confusion matrices and
// rendered tables at jobs=1 (the exact serial path) and jobs=8, and
// repeated parallel runs must agree with each other (schedule-dependent
// flakiness shows up as run-to-run drift, not just serial/parallel
// drift).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "drb/corpus.hpp"
#include "eval/experiments.hpp"
#include "llm/persona.hpp"
#include "runtime/dynamic.hpp"
#include "support/parallel.hpp"

namespace drbml::eval {
namespace {

constexpr ExperimentOptions kSerial{/*jobs=*/1};
constexpr ExperimentOptions kParallel{/*jobs=*/8};

void expect_same_rows(const std::vector<DetectionRow>& a,
                      const std::vector<DetectionRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].model, b[i].model) << "row " << i;
    EXPECT_EQ(a[i].prompt, b[i].prompt) << "row " << i;
    EXPECT_EQ(a[i].cm.tp, b[i].cm.tp) << "row " << i;
    EXPECT_EQ(a[i].cm.fp, b[i].cm.fp) << "row " << i;
    EXPECT_EQ(a[i].cm.tn, b[i].cm.tn) << "row " << i;
    EXPECT_EQ(a[i].cm.fn, b[i].cm.fn) << "row " << i;
  }
}

TEST(ParallelDeterminism, Table2SerialAndParallelBitIdentical) {
  const auto serial = table2_rows(kSerial);
  const auto parallel_a = table2_rows(kParallel);
  const auto parallel_b = table2_rows(kParallel);
  expect_same_rows(serial, parallel_a);
  expect_same_rows(parallel_a, parallel_b);
  // The rendered tables (the bench binaries' actual output) must be
  // byte-identical too.
  EXPECT_EQ(bench::detection_table(serial), bench::detection_table(parallel_a));
  EXPECT_EQ(bench::detection_table(parallel_a),
            bench::detection_table(parallel_b));
}

TEST(ParallelDeterminism, Table3SerialAndParallelBitIdentical) {
  const auto serial = table3_rows(kSerial);
  const auto parallel_a = table3_rows(kParallel);
  const auto parallel_b = table3_rows(kParallel);
  expect_same_rows(serial, parallel_a);
  expect_same_rows(parallel_a, parallel_b);
  EXPECT_EQ(bench::detection_table(serial), bench::detection_table(parallel_a));
  EXPECT_EQ(bench::detection_table(parallel_a),
            bench::detection_table(parallel_b));
}

TEST(ParallelDeterminism, ModalDetectionMatchesSerial) {
  auto subset = token_filtered_subset();
  subset.resize(48);  // keep the modal artifact derivations quick
  llm::ChatModel gpt4(llm::gpt4_persona());
  for (const prompts::Modality modality :
       {prompts::Modality::Ast, prompts::Modality::DepGraph}) {
    const ConfusionMatrix serial = run_detection_modal(
        gpt4, prompts::Style::P1, modality, subset, kSerial);
    const ConfusionMatrix parallel = run_detection_modal(
        gpt4, prompts::Style::P1, modality, subset, kParallel);
    EXPECT_EQ(serial.tp, parallel.tp);
    EXPECT_EQ(serial.fp, parallel.fp);
    EXPECT_EQ(serial.tn, parallel.tn);
    EXPECT_EQ(serial.fn, parallel.fn);
  }
}

TEST(ParallelDeterminism, VarIdMatchesSerial) {
  const auto subset = token_filtered_subset();
  llm::ChatModel gpt4(llm::gpt4_persona());
  const ConfusionMatrix serial = run_varid(gpt4, subset, kSerial);
  const ConfusionMatrix parallel = run_varid(gpt4, subset, kParallel);
  EXPECT_EQ(serial.tp, parallel.tp);
  EXPECT_EQ(serial.fp, parallel.fp);
  EXPECT_EQ(serial.tn, parallel.tn);
  EXPECT_EQ(serial.fn, parallel.fn);
}

// The dynamic runtime must be deterministic under the parallel executor:
// dynamic verdicts computed at jobs=1 are byte-identical to jobs=8 (each
// worker compiles and runs its own modules; nothing may leak across
// workers).
TEST(ParallelDeterminism, DynamicVerdictsMatchAcrossJobCounts) {
  const std::vector<drb::CorpusEntry>& entries = drb::corpus();

  const auto verdicts = [&](int jobs) {
    return support::parallel_map(
        jobs, entries, [](const drb::CorpusEntry& e) -> std::string {
          const analysis::RaceReport report =
              runtime::DynamicRaceDetector().analyze_source(e.body);
          std::string fp = report.race_detected ? "race" : "clean";
          for (const auto& p : report.pairs) {
            fp += ";" + p.first.expr_text + "@" +
                  std::to_string(p.first.loc.line) + ":" +
                  std::to_string(p.first.loc.col) + "/" + p.second.expr_text +
                  "@" + std::to_string(p.second.loc.line) + ":" +
                  std::to_string(p.second.loc.col);
          }
          for (const auto& d : report.diagnostics) fp += "|" + d;
          return fp;
        });
  };

  const std::vector<std::string> serial = verdicts(1);
  const std::vector<std::string> parallel = verdicts(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << entries[i].name;
  }
}

TEST(ParallelDeterminism, CrossValidationMatchesSerial) {
  const CvResult serial = run_cv(llm::llama2_persona(), Objective::Detection,
                                 /*finetuned=*/false, 5, 2023, 0, kSerial);
  const CvResult parallel = run_cv(llm::llama2_persona(), Objective::Detection,
                                   /*finetuned=*/false, 5, 2023, 0, kParallel);
  ASSERT_EQ(serial.folds.size(), parallel.folds.size());
  for (std::size_t i = 0; i < serial.folds.size(); ++i) {
    EXPECT_EQ(serial.folds[i].tp, parallel.folds[i].tp) << "fold " << i;
    EXPECT_EQ(serial.folds[i].fp, parallel.folds[i].fp) << "fold " << i;
    EXPECT_EQ(serial.folds[i].tn, parallel.folds[i].tn) << "fold " << i;
    EXPECT_EQ(serial.folds[i].fn, parallel.folds[i].fn) << "fold " << i;
  }
  EXPECT_DOUBLE_EQ(serial.f1.avg, parallel.f1.avg);
  EXPECT_DOUBLE_EQ(serial.f1.sd, parallel.f1.sd);
}

}  // namespace
}  // namespace drbml::eval
