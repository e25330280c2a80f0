#include "eval/experiments.hpp"

#include <algorithm>

#include <map>

#include "analysis/depgraph.hpp"
#include "analysis/race.hpp"
#include "dataset/folds.hpp"
#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "eval/artifact_cache.hpp"
#include "llm/finetune.hpp"
#include "llm/tokenizer.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "obs/catalog.hpp"
#include "runtime/dynamic.hpp"
#include "support/parallel.hpp"

namespace drbml::eval {

using dataset::Entry;
using llm::ChatModel;

ConfusionMatrix fold_outcomes(const std::vector<Outcome>& outcomes) {
  ConfusionMatrix cm;
  for (const Outcome& o : outcomes) cm.add(o.first, o.second);
  return cm;
}

std::vector<const Entry*> token_filtered_subset(int token_limit) {
  ArtifactCache& cache = artifact_cache();
  std::vector<const Entry*> out;
  for (const Entry& e : dataset::dataset()) {
    if (cache.token_count(e.trimmed_code) < token_limit) {
      out.push_back(&e);
    }
  }
  return out;
}

ConfusionMatrix run_detection(const ChatModel& model, prompts::Style style,
                              const std::vector<const Entry*>& subset,
                              const ExperimentOptions& opts) {
  return fold_outcomes(
      support::parallel_map(opts.jobs, subset, [&](const Entry* e) {
        const prompts::Chat chat = prompts::detection_chat(style, e->trimmed_code);
        const llm::Reply reply = model.chat(chat);
        const std::optional<bool> verdict = parse_detection(reply.text);
        // Unparseable output counts as a negative prediction (the paper
        // transformed outputs into labels; silence is "no detection").
        return Outcome{verdict.value_or(false), e->data_race == 1};
      }));
}

ConfusionMatrix run_traditional_tool(const std::vector<const Entry*>& subset,
                                     const ExperimentOptions& opts) {
  // Legacy-tool configuration: conservative subscript reasoning, no
  // modelling of locks / depend clauses / ordered regions (capabilities
  // production tools acquired slowly), unioned with the dynamic detector.
  analysis::StaticDetectorOptions legacy;
  legacy.model_locks = false;
  legacy.model_depend_clauses = false;
  legacy.model_ordered = false;
  legacy.depend.conservative_nonaffine = true;

  runtime::DynamicDetectorOptions dyn_opts;
  dyn_opts.schedule_seeds = {1, 2};

  ArtifactCache& cache = artifact_cache();
  return fold_outcomes(
      support::parallel_map(opts.jobs, subset, [&](const Entry* e) {
        bool flagged = false;
        try {
          flagged = cache.static_report(e->trimmed_code, legacy).race_detected;
        } catch (const Error&) {
          flagged = false;
        }
        if (!flagged) {
          // A program the dynamic tool cannot parse or execute yields no
          // observed race: count it as a negative, don't abort the table.
          try {
            flagged =
                cache.dynamic_report(e->trimmed_code, dyn_opts).race_detected;
          } catch (const Error&) {
            flagged = false;
          }
        }
        return Outcome{flagged, e->data_race == 1};
      }));
}

ConfusionMatrix run_lint_tool(const std::vector<const Entry*>& subset,
                              const ExperimentOptions& opts) {
  ArtifactCache& cache = artifact_cache();
  return fold_outcomes(
      support::parallel_map(opts.jobs, subset, [&](const Entry* e) {
        bool flagged = false;
        try {
          flagged = cache.lint_report(e->trimmed_code).race.race_detected;
        } catch (const Error&) {
          flagged = false;  // unparseable: no finding, count as negative
        }
        return Outcome{flagged, e->data_race == 1};
      }));
}

ConfusionMatrix run_detection_modal(
    const ChatModel& model, prompts::Style style, prompts::Modality modality,
    const std::vector<const Entry*>& subset, const ExperimentOptions& opts) {
  ArtifactCache& cache = artifact_cache();
  return fold_outcomes(
      support::parallel_map(opts.jobs, subset, [&](const Entry* e) {
        std::string aux;
        if (modality == prompts::Modality::Ast) {
          aux = cache.ast_text(e->trimmed_code);
        } else if (modality == prompts::Modality::DepGraph) {
          aux = cache.depgraph_text(e->trimmed_code);
        } else if (modality == prompts::Modality::Lint) {
          aux = cache.lint_text(e->trimmed_code);
        } else if (modality == prompts::Modality::Evidence) {
          aux = cache.evidence_text(e->trimmed_code);
        }
        const prompts::Chat chat =
            prompts::modal_detection_chat(style, modality, e->trimmed_code, aux);
        const llm::Reply reply = model.chat(chat);
        return Outcome{parse_detection(reply.text).value_or(false),
                       e->data_race == 1};
      }));
}

namespace {

std::string normalize_spelling(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != ' ' && c != '\t') out.push_back(c);
  }
  return out;
}

bool pair_matches_label(const ParsedPair& pair,
                        const dataset::VarPairLabel& label) {
  if (pair.names.size() != 2 || label.name.size() != 2) return false;
  auto side_match = [&](std::size_t pi, std::size_t li) {
    if (normalize_spelling(pair.names[pi]) !=
        normalize_spelling(label.name[li])) {
      return false;
    }
    if (pi < pair.lines.size() && li < label.line.size() &&
        pair.lines[pi] != label.line[li]) {
      return false;
    }
    if (pi < pair.ops.size() && li < label.operation.size() &&
        pair.ops[pi] != label.operation[li]) {
      return false;
    }
    return true;
  };
  return (side_match(0, 0) && side_match(1, 1)) ||
         (side_match(0, 1) && side_match(1, 0));
}

/// One var-id outcome (shared by run_varid and the CV loop): TP requires
/// correct pair information for a racy program; TN requires a clean "no"
/// without extraneous pair info.
Outcome varid_outcome(const ChatModel& model, const Entry& e) {
  const prompts::Chat chat = prompts::varid_chat(e.trimmed_code);
  const llm::Reply reply = model.chat(chat);
  const ParsedVarId parsed = parse_varid(reply.text);
  if (e.data_race == 1) {
    return Outcome{varid_matches(parsed, e), true};
  }
  const bool clean_no = !parsed.verdict.value_or(true) && parsed.pairs.empty();
  return Outcome{!clean_no, false};
}

}  // namespace

bool varid_matches(const ParsedVarId& parsed, const Entry& entry) {
  for (const auto& pair : parsed.pairs) {
    for (const auto& label : entry.var_pairs) {
      if (pair_matches_label(pair, label)) return true;
    }
  }
  return false;
}

ConfusionMatrix run_varid(const ChatModel& model,
                          const std::vector<const Entry*>& subset,
                          const ExperimentOptions& opts) {
  return fold_outcomes(
      support::parallel_map(opts.jobs, subset, [&](const Entry* e) {
        return varid_outcome(model, *e);
      }));
}

ConfusionMatrix run_lint_varid(const std::vector<const Entry*>& subset,
                               const ExperimentOptions& opts) {
  ArtifactCache& cache = artifact_cache();
  return fold_outcomes(
      support::parallel_map(opts.jobs, subset, [&](const Entry* e) {
        // Shape the linter's race evidence like a parsed LLM answer so
        // the exact Table 5 matching rules apply to both.
        ParsedVarId parsed;
        try {
          const lint::LintReport& report = cache.lint_report(e->trimmed_code);
          parsed.verdict = report.race.race_detected;
          for (const auto& rp : report.race.pairs) {
            ParsedPair pair;
            pair.names = {rp.first.expr_text, rp.second.expr_text};
            pair.lines = {rp.first.loc.line, rp.second.loc.line};
            pair.ops = {std::string(1, rp.first.op),
                        std::string(1, rp.second.op)};
            parsed.pairs.push_back(std::move(pair));
          }
        } catch (const Error&) {
          parsed.verdict = false;
        }
        if (e->data_race == 1) {
          return Outcome{varid_matches(parsed, *e), true};
        }
        const bool clean_no =
            !parsed.verdict.value_or(true) && parsed.pairs.empty();
        return Outcome{!clean_no, false};
      }));
}

CvResult run_cv(const llm::Persona& persona, Objective objective,
                bool finetuned, int k, std::uint64_t seed,
                int synthetic_augmentation, const ExperimentOptions& opts) {
  const std::vector<const Entry*> subset = token_filtered_subset();
  std::vector<bool> labels;
  labels.reserve(subset.size());
  for (const Entry* e : subset) labels.push_back(e->data_race == 1);

  dataset::StratifiedKFold folds(k, seed);
  CvResult result;
  std::vector<double> recalls;
  std::vector<double> precisions;
  std::vector<double> f1s;

  for (const dataset::FoldSplit& fold : folds.split(labels)) {
    ChatModel model(persona);
    if (finetuned) {
      // Build training samples from the DRB-ML prompt-response pairs,
      // parsing labels back out of the responses (the honest path).
      // Training stays serial: sample order is part of the optimizer's
      // deterministic trajectory.
      std::vector<llm::TrainSample> train;
      train.reserve(fold.train_indices.size());
      for (int idx : fold.train_indices) {
        const Entry& e = *subset[static_cast<std::size_t>(idx)];
        const dataset::PromptResponse pr =
            objective == Objective::Detection ? make_detection_pair(e)
                                              : make_varid_pair(e);
        llm::TrainSample sample;
        sample.code = llm::extract_code_from_prompt(pr.prompt);
        sample.label = parse_detection(pr.response).value_or(false);
        train.push_back(std::move(sample));
      }
      if (synthetic_augmentation > 0) {
        drb::SynthConfig synth_config;
        synth_config.count = synthetic_augmentation;
        synth_config.seed = seed + 17;
        for (const drb::SynthEntry& s : drb::synthesize(synth_config)) {
          llm::TrainSample sample;
          sample.code = s.code;
          sample.label = s.race;
          train.push_back(std::move(sample));
        }
      }
      const llm::FinetuneConfig config = persona.key == "starchat"
                                             ? llm::starchat_finetune_config()
                                             : llm::llama2_finetune_config();
      auto adapter = std::make_shared<llm::Adapter>(llm::finetune_detection(
          model, prompts::Style::P1, train, config));
      model.set_adapter(std::move(adapter));
      if (objective == Objective::VarId) {
        model.set_varid_boost(/*fidelity_delta=*/0.04,
                              /*selection_delta=*/0.005);
      }
    }

    // Fan the fold's test entries out over the pool; per-entry outcomes
    // are keyed by content, so evaluation order cannot affect them.
    const ConfusionMatrix cm = fold_outcomes(support::parallel_map(
        opts.jobs, fold.test_indices, [&](const int& idx) {
          const Entry& e = *subset[static_cast<std::size_t>(idx)];
          if (objective == Objective::Detection) {
            const prompts::Chat chat =
                prompts::detection_chat(prompts::Style::P1, e.trimmed_code);
            const llm::Reply reply = model.chat(chat);
            return Outcome{parse_detection(reply.text).value_or(false),
                           e.data_race == 1};
          }
          return varid_outcome(model, e);
        }));
    result.folds.push_back(cm);
    recalls.push_back(cm.recall());
    precisions.push_back(cm.precision());
    f1s.push_back(cm.f1());
  }

  result.recall = Stats::of(recalls);
  result.precision = Stats::of(precisions);
  result.f1 = Stats::of(f1s);
  return result;
}

// ------------------------------------------------------------- table rows

std::vector<DetectionRow> table2_rows(const ExperimentOptions& opts) {
  obs::Span span(obs::kSpanExpRun, "table2");
  const auto subset = token_filtered_subset();
  ChatModel gpt35(llm::gpt35_persona());
  std::vector<DetectionRow> rows;
  rows.push_back({"GPT-3.5-turbo", "BP1",
                  run_detection(gpt35, prompts::Style::BP1, subset, opts)});
  rows.push_back({"GPT-3.5-turbo", "BP2",
                  run_detection(gpt35, prompts::Style::BP2, subset, opts)});
  return rows;
}

std::vector<DetectionRow> table3_rows(const ExperimentOptions& opts) {
  obs::Span span(obs::kSpanExpRun, "table3");
  const auto subset = token_filtered_subset();
  std::vector<DetectionRow> rows;
  rows.push_back({"Ins", "N/A", run_traditional_tool(subset, opts)});
  rows.push_back({"Lint", "N/A", run_lint_tool(subset, opts)});
  for (const llm::Persona& persona : llm::all_personas()) {
    ChatModel model(persona);
    for (prompts::Style style :
         {prompts::Style::P1, prompts::Style::P2, prompts::Style::P3}) {
      rows.push_back({persona.name, prompts::style_name(style),
                      run_detection(model, style, subset, opts)});
    }
  }
  return rows;
}

std::vector<CvRow> table4_rows(const ExperimentOptions& opts) {
  obs::Span span(obs::kSpanExpRun, "table4");
  std::vector<CvRow> rows;
  for (const llm::Persona& persona :
       {llm::starchat_persona(), llm::llama2_persona()}) {
    const CvResult base =
        run_cv(persona, Objective::Detection, false, 5, 2023, 0, opts);
    rows.push_back({persona.name, base.recall, base.precision, base.f1});
    const CvResult ft =
        run_cv(persona, Objective::Detection, true, 5, 2023, 0, opts);
    rows.push_back({persona.name + " (FT)", ft.recall, ft.precision, ft.f1});
  }
  return rows;
}

std::vector<DetectionRow> table5_rows(const ExperimentOptions& opts) {
  obs::Span span(obs::kSpanExpRun, "table5");
  const auto subset = token_filtered_subset();
  std::vector<DetectionRow> rows;
  rows.push_back({"Linter", "N/A", run_lint_varid(subset, opts)});
  for (const llm::Persona& persona : llm::all_personas()) {
    ChatModel model(persona);
    rows.push_back({persona.name, "BP2", run_varid(model, subset, opts)});
  }
  return rows;
}

std::vector<CvRow> table6_rows(const ExperimentOptions& opts) {
  obs::Span span(obs::kSpanExpRun, "table6");
  std::vector<CvRow> rows;
  for (const llm::Persona& persona :
       {llm::starchat_persona(), llm::llama2_persona()}) {
    const CvResult base =
        run_cv(persona, Objective::VarId, false, 5, 2023, 0, opts);
    rows.push_back({persona.name, base.recall, base.precision, base.f1});
    const CvResult ft =
        run_cv(persona, Objective::VarId, true, 5, 2023, 0, opts);
    rows.push_back({persona.name + " (FT)", ft.recall, ft.precision, ft.f1});
  }
  return rows;
}

double RepairRow::fix_rate() const noexcept {
  return entries == 0 ? 0.0 : static_cast<double>(fixed) / entries;
}

double RepairRow::verified_rate() const noexcept {
  return entries == 0 ? 0.0 : static_cast<double>(verified) / entries;
}

double RepairRow::patches_per_fix() const noexcept {
  return fixed == 0 ? 0.0 : static_cast<double>(attempts_on_fixed) / fixed;
}

std::vector<RepairRow> table7_rows(const ExperimentOptions& opts) {
  obs::Span span(obs::kSpanExpRun, "table7");
  std::vector<const drb::CorpusEntry*> racy;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    if (e.race) racy.push_back(&e);
  }

  ArtifactCache& cache = artifact_cache();
  const std::vector<const repair::RepairResult*> results =
      support::parallel_map(opts.jobs, racy, [&](const drb::CorpusEntry* e) {
        return &cache.repair_result(drb::drb_code(*e),
                                    repair::Strategy::Auto);
      });

  // Fold per family in input order; std::map keeps families name-sorted.
  std::map<std::string, RepairRow> by_family;
  RepairRow total;
  total.family = "(all)";
  for (std::size_t i = 0; i < racy.size(); ++i) {
    RepairRow& row = by_family[racy[i]->pattern];
    row.family = racy[i]->pattern;
    const repair::RepairResult& res = *results[i];
    for (RepairRow* r : {&row, &total}) {
      ++r->entries;
      switch (res.status) {
        case repair::RepairStatus::Fixed:
          ++r->fixed;
          if (res.equivalence_checked) ++r->verified;
          r->attempts_on_fixed += res.attempts;
          break;
        case repair::RepairStatus::NoCandidate:
          ++r->no_candidate;
          break;
        case repair::RepairStatus::Rejected:
          ++r->rejected;
          break;
        case repair::RepairStatus::NoRaceDetected:
          // Detector miss on a race-labeled entry: counted as unfixed but
          // not as a candidate-generation failure.
          break;
        case repair::RepairStatus::Error:
          ++r->errors;
          break;
      }
    }
  }

  std::vector<RepairRow> rows;
  rows.reserve(by_family.size() + 1);
  for (auto& [_, row] : by_family) rows.push_back(std::move(row));
  rows.push_back(std::move(total));
  return rows;
}

double ExplorationRow::avg_schedules_to_first_race() const noexcept {
  return detected == 0 ? 0.0
                       : static_cast<double>(first_race_schedules_) / detected;
}

std::vector<ExplorationRow> exploration_rows(
    const explore::ExploreOptions& base, const ExperimentOptions& opts) {
  obs::Span span(obs::kSpanExpRun, "exploration");
  std::vector<const drb::CorpusEntry*> racy;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    if (e.race) racy.push_back(&e);
  }

  ArtifactCache& cache = artifact_cache();
  const runtime::ScheduleStrategy strategies[] = {
      runtime::ScheduleStrategy::Uniform, runtime::ScheduleStrategy::Pct};
  std::vector<ExplorationRow> rows;
  // detected[s][i]: strategy s found entry i's race within budget.
  std::vector<std::vector<bool>> detected;
  for (runtime::ScheduleStrategy strategy : strategies) {
    explore::ExploreOptions eopts = base;
    eopts.strategy = strategy;
    const std::vector<const explore::ExploreResult*> results =
        support::parallel_map(
            opts.jobs, racy,
            [&](const drb::CorpusEntry* e) -> const explore::ExploreResult* {
              try {
                return &cache.explore_result(drb::drb_code(*e), eopts);
              } catch (const Error&) {
                return nullptr;  // unparseable/non-executable entry
              }
            });

    ExplorationRow row;
    row.strategy = runtime::strategy_name(strategy);
    std::vector<bool> found(racy.size(), false);
    for (std::size_t i = 0; i < racy.size(); ++i) {
      ++row.entries;
      const explore::ExploreResult* r = results[i];
      if (r == nullptr) {
        ++row.errors;
        continue;
      }
      row.schedules += static_cast<std::uint64_t>(r->schedules_run);
      if (r->stopped_on_plateau) ++row.plateau_stops;
      if (r->race_detected) {
        found[i] = true;
        ++row.detected;
        row.first_race_schedules_ +=
            static_cast<std::uint64_t>(r->first_race_schedule) + 1;
        row.original_decisions += r->original_decisions;
        row.witness_decisions += r->witness_decisions;
        if (!r->witness.empty()) ++row.witnesses;
      }
    }
    detected.push_back(std::move(found));
    rows.push_back(std::move(row));
  }

  for (std::size_t s = 0; s < rows.size(); ++s) {
    const std::vector<bool>& mine = detected[s];
    const std::vector<bool>& other = detected[1 - s];
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (mine[i] && !other[i]) ++rows[s].only_here;
    }
  }
  return rows;
}

}  // namespace drbml::eval
