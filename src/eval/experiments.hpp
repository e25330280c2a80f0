// Experiment runners reproducing the paper's evaluation (Tables 2-6).
//
// Every LLM measurement goes through the full pipeline: prompt rendering
// -> simulated chat completion -> natural-language response parsing ->
// metric accumulation, exactly as the paper's harness drives hosted APIs.
//
// Execution model: each runner fans its per-entry work out over a
// fixed-size thread pool (support/parallel.hpp) and folds the per-entry
// (prediction, label) outcomes into the ConfusionMatrix in input order,
// so results are bit-identical to the serial path at any job count.
// Derived per-entry artifacts (token counts, ASTs, dependence graphs,
// static/dynamic race evidence) are memoized in the shared ArtifactCache
// and computed once across all experiments.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dataset/drbml.hpp"
#include "eval/metrics.hpp"
#include "explore/explore.hpp"
#include "eval/parse.hpp"
#include "llm/model.hpp"
#include "prompts/prompts.hpp"
#include "repair/repair.hpp"

namespace drbml::eval {

/// Knobs shared by all experiment runners.
struct ExperimentOptions {
  /// Worker threads for per-entry fan-out. 0 = auto (the DRBML_JOBS
  /// environment variable if set, otherwise hardware concurrency);
  /// 1 = the exact serial path. Any value produces identical results.
  int jobs = 0;
};

/// Per-entry outcome: (predicted positive, ground-truth positive).
using Outcome = std::pair<bool, bool>;

/// Folds outcomes into a confusion matrix in input order.
[[nodiscard]] ConfusionMatrix fold_outcomes(const std::vector<Outcome>& outcomes);

/// The paper's evaluation subset: entries whose trimmed code is within
/// `token_limit` model tokens (Section 3.2: 198 of 201 under 4k).
[[nodiscard]] std::vector<const dataset::Entry*> token_filtered_subset(
    int token_limit = 4000);

// ------------------------------------------------------------- detection

/// Runs prompt-engineering detection (S1) for one model and style over
/// the subset; responses are parsed back from natural language.
[[nodiscard]] ConfusionMatrix run_detection(
    const llm::ChatModel& model, prompts::Style style,
    const std::vector<const dataset::Entry*>& subset,
    const ExperimentOptions& opts = {});

/// The traditional-tool baseline (the paper's Intel Inspector column):
/// a hybrid of a legacy-configured conservative static pass and the
/// dynamic vector-clock detector.
[[nodiscard]] ConfusionMatrix run_traditional_tool(
    const std::vector<const dataset::Entry*>& subset,
    const ExperimentOptions& opts = {});

/// The OpenMP correctness linter as a detector baseline: predicted
/// positive iff the lint run's underlying static race evidence fires.
/// Scored against the same DRB-ML labels as every other Table 3 column.
[[nodiscard]] ConfusionMatrix run_lint_tool(
    const std::vector<const dataset::Entry*>& subset,
    const ExperimentOptions& opts = {});

/// Detection with an auxiliary input modality (paper future work): the
/// prompt carries the code plus a pretty-printed AST, a serialized
/// dependence graph, or the linter's findings.
[[nodiscard]] ConfusionMatrix run_detection_modal(
    const llm::ChatModel& model, prompts::Style style,
    prompts::Modality modality,
    const std::vector<const dataset::Entry*>& subset,
    const ExperimentOptions& opts = {});

// ------------------------------------------------------------- var-id

/// Variable-identification matching (Table 5 semantics): TP only when a
/// reported pair matches a ground-truth pair in names, lines, and ops.
[[nodiscard]] bool varid_matches(const ParsedVarId& parsed,
                                 const dataset::Entry& entry);

[[nodiscard]] ConfusionMatrix run_varid(
    const llm::ChatModel& model,
    const std::vector<const dataset::Entry*>& subset,
    const ExperimentOptions& opts = {});

/// The linter scored under Table 5 (variable identification) semantics:
/// its race pairs are matched against the DRB-ML var_pairs labels with
/// the same name/line/op comparison applied to LLM answers.
[[nodiscard]] ConfusionMatrix run_lint_varid(
    const std::vector<const dataset::Entry*>& subset,
    const ExperimentOptions& opts = {});

// ------------------------------------------------------------- fine-tuning

enum class Objective { Detection, VarId };

struct CvResult {
  Stats recall;
  Stats precision;
  Stats f1;
  std::vector<ConfusionMatrix> folds;
};

/// 5-fold stratified cross validation (Section 3.5). When `finetuned` is
/// true, an adapter is trained on each fold's training split from the
/// DRB-ML prompt-response pairs; otherwise the pretrained persona is
/// evaluated on the same test splits. `synthetic_augmentation` adds that
/// many generated kernels (Section 4.5's proposed remedy) to every
/// training split.
[[nodiscard]] CvResult run_cv(const llm::Persona& persona, Objective objective,
                              bool finetuned, int k = 5,
                              std::uint64_t seed = 2023,
                              int synthetic_augmentation = 0,
                              const ExperimentOptions& opts = {});

// ------------------------------------------------------------- table rows

struct DetectionRow {
  std::string model;
  std::string prompt;
  ConfusionMatrix cm;
};

struct CvRow {
  std::string model;
  Stats recall;
  Stats precision;
  Stats f1;
};

/// Table 2: GPT-3.5-turbo with basic prompts 1 and 2.
[[nodiscard]] std::vector<DetectionRow> table2_rows(
    const ExperimentOptions& opts = {});
/// Table 3: traditional tool + four LLMs x {p1, p2, p3}.
[[nodiscard]] std::vector<DetectionRow> table3_rows(
    const ExperimentOptions& opts = {});
/// Table 4: 5-fold CV, detection, StarChat/Llama2 with and without FT.
[[nodiscard]] std::vector<CvRow> table4_rows(
    const ExperimentOptions& opts = {});
/// Table 5: variable identification, four pretrained LLMs.
[[nodiscard]] std::vector<DetectionRow> table5_rows(
    const ExperimentOptions& opts = {});
/// Table 6: 5-fold CV, variable identification, with and without FT.
[[nodiscard]] std::vector<CvRow> table6_rows(
    const ExperimentOptions& opts = {});

// ------------------------------------------------------------- repair

/// One Table 7 row: verified-repair outcomes for a DRB pattern family.
struct RepairRow {
  std::string family;       // DRB pattern family; "(all)" on the total row
  int entries = 0;          // race-labeled corpus entries in the family
  int fixed = 0;            // entries with an accepted patch
  int verified = 0;         // ... whose output-equivalence gate also ran
  int no_candidate = 0;     // no strategy applied
  int rejected = 0;         // every candidate failed verification
  int errors = 0;           // parse/analysis failures
  int attempts_on_fixed = 0;  // candidates tried across fixed entries

  [[nodiscard]] double fix_rate() const noexcept;
  [[nodiscard]] double verified_rate() const noexcept;
  /// Average candidates applied+verified per successful fix.
  [[nodiscard]] double patches_per_fix() const noexcept;
};

/// Table 7 (repair extension, not in the paper): the verified fix loop
/// over every race-labeled DRB corpus entry, grouped by pattern family
/// and sorted by family name, with an "(all)" total row last. Per-entry
/// repair results are memoized in the ArtifactCache; the fold happens in
/// input order, so rows are bit-identical at any job count.
[[nodiscard]] std::vector<RepairRow> table7_rows(
    const ExperimentOptions& opts = {});

// ------------------------------------------------------------ exploration

/// One exploration-strategy row: the budgeted schedule-exploration loop
/// (explore::explore_source) over every race-labeled DRB corpus entry.
struct ExplorationRow {
  std::string strategy;          // "uniform" | "pct"
  int entries = 0;               // race-labeled corpus entries explored
  int detected = 0;              // entries whose race was found in budget
  int only_here = 0;             // detected by this strategy, missed by the other
  int plateau_stops = 0;         // entries cut early by the coverage plateau
  int witnesses = 0;             // minimized witnesses shipped (== detected)
  int errors = 0;                // parse/analysis failures
  std::uint64_t schedules = 0;   // schedules actually run across entries
  std::uint64_t original_decisions = 0;  // decision count before minimization
  std::uint64_t witness_decisions = 0;   // ... and after

  /// Mean schedules until the first racy one, over detected entries.
  [[nodiscard]] double avg_schedules_to_first_race() const noexcept;

 private:
  friend std::vector<ExplorationRow> exploration_rows(
      const explore::ExploreOptions&, const ExperimentOptions&);
  std::uint64_t first_race_schedules_ = 0;  // sum over detected entries
};

/// Exploration comparison (uniform vs PCT at the same schedule budget,
/// same per-entry seeds) over the race-labeled corpus. Per-entry results
/// are memoized in the ArtifactCache; the fold runs in input order, so
/// rows are bit-identical at any job count.
[[nodiscard]] std::vector<ExplorationRow> exploration_rows(
    const explore::ExploreOptions& base = {},
    const ExperimentOptions& opts = {});

}  // namespace drbml::eval
