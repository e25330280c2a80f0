// Reproduces Figure 1: the end-to-end two-branch pipeline -- DRB-ML
// dataset construction feeding (a) prompt-engineering evaluation of four
// pretrained LLMs and (b) fine-tuning of the open-source ones -- with
// per-stage timing and throughput, run twice: once on the exact serial
// path (jobs=1) and once fanned out over the parallel executor, to report
// the end-to-end wall-clock speedup the pool + artifact cache deliver.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/detector.hpp"
#include "dataset/drbml.hpp"
#include "llm/finetune.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct PipelineRun {
  std::string table;   // rendered per-stage table
  double total_ms = 0;
  std::string results; // stage outputs only (must match across job counts)
};

PipelineRun run_pipeline(const drbml::eval::ExperimentOptions& opts) {
  using namespace drbml;
  PipelineRun run;
  TextTable t({"Stage", "Items", "Time (ms)", "Output"});
  const auto pipeline_start = Clock::now();

  // Stage 1: DRB corpus -> DRB-ML dataset.
  auto t0 = Clock::now();
  const auto& entries = dataset::dataset();
  t.add_row({"1. DRB -> DRB-ML labels + JSON", std::to_string(entries.size()),
             format_double(ms_since(t0), 1), std::to_string(entries.size()) + " JSON entries"});

  // Stage 2: prompt-response pair generation (Listings 8/9).
  t0 = Clock::now();
  int pairs = 0;
  for (const auto& e : entries) {
    pairs += static_cast<int>(dataset::make_detection_pair(e).prompt.size() >
                              0);
    pairs += static_cast<int>(dataset::make_varid_pair(e).prompt.size() > 0);
  }
  t.add_row({"2. prompt-response pairs", std::to_string(pairs),
             format_double(ms_since(t0), 1), "2 sets x " + std::to_string(entries.size())});

  // Stage 3: token filter (16k/8k/4k context accounting).
  t0 = Clock::now();
  const auto subset = eval::token_filtered_subset();
  t.add_row({"3. 4k-token subset filter", std::to_string(subset.size()),
             format_double(ms_since(t0), 1), std::to_string(subset.size()) + " of " + std::to_string(entries.size())});

  // Stage 4: prompting branch (one model x one prompt as representative).
  t0 = Clock::now();
  llm::ChatModel gpt4(llm::gpt4_persona());
  const auto cm = eval::run_detection(gpt4, prompts::Style::P1, subset, opts);
  const std::string s4 = "F1=" + format_double(cm.f1(), 3);
  t.add_row({"4. prompting branch (GPT-4/p1)", std::to_string(cm.total()),
             format_double(ms_since(t0), 1), s4});

  // Stage 5: fine-tuning branch (one fold as representative).
  t0 = Clock::now();
  const auto cv = eval::run_cv(llm::starchat_persona(),
                               eval::Objective::Detection, true, 5, 2023, 0,
                               opts);
  const std::string s5 = "F1=" + format_double(cv.f1.avg, 3);
  t.add_row({"5. fine-tuning branch (SC, 5-fold)",
             std::to_string(static_cast<int>(cv.folds.size())),
             format_double(ms_since(t0), 1), s5});

  // Stage 6: comparison against the traditional tool.
  t0 = Clock::now();
  const auto tool = eval::run_traditional_tool(subset, opts);
  const std::string s6 = "F1=" + format_double(tool.f1(), 3);
  t.add_row({"6. traditional-tool comparison", std::to_string(tool.total()),
             format_double(ms_since(t0), 1), s6});

  run.total_ms = ms_since(pipeline_start);
  run.table = t.render();
  run.results = s4 + "|" + s5 + "|" + s6;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  drbml::bench::init_bench(argc, argv);
  using namespace drbml;
  std::printf("%s", heading("Figure 1 -- end-to-end pipeline stages").c_str());

  const int jobs = support::resolve_jobs(0);
  auto cold = [] {
    eval::artifact_cache().clear();
    llm::clear_feature_cache();
  };

  cold();
  const PipelineRun serial = run_pipeline(eval::ExperimentOptions{/*jobs=*/1});
  cold();
  const PipelineRun parallel = run_pipeline(eval::ExperimentOptions{jobs});

  std::printf("%s", parallel.table.c_str());
  const bool identical = serial.results == parallel.results;
  std::printf(
      "\n[executor] end-to-end: serial %.1f ms | %d jobs %.1f ms | "
      "speedup %.2fx | results %s\n",
      serial.total_ms, jobs, parallel.total_ms,
      parallel.total_ms > 0.0 ? serial.total_ms / parallel.total_ms : 0.0,
      identical ? "identical" : "DIFFER (BUG)");
  std::printf("\nAll stages deterministic; rerunning at any job count "
              "reproduces identical numbers.\n");
  return identical ? 0 : 3;
}
