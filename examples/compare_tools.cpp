// Compares every detector on a slice of the DataRaceBench-style corpus,
// printing an agreement matrix -- the per-program view behind the paper's
// Table 3 comparison study.
//
//   $ ./compare_tools [count]
#include <cstdio>
#include <cstdlib>

#include "core/detector.hpp"
#include "drb/corpus.hpp"

int main(int argc, char** argv) {
  using namespace drbml;
  int count = argc > 1 ? std::atoi(argv[1]) : 12;
  if (count <= 0 || count > static_cast<int>(drb::corpus().size())) {
    count = 12;
  }

  const char* specs[] = {"static", "dynamic", "llm:gpt4:p1", "llm:gpt35:p1"};
  std::vector<std::unique_ptr<core::RaceDetector>> detectors;
  for (const char* spec : specs) detectors.push_back(core::make_detector(spec));

  std::printf("%-40s %-6s", "benchmark", "truth");
  for (const auto& d : detectors) std::printf(" %-12s", d->name().c_str());
  std::printf("\n");

  int agree[4] = {0, 0, 0, 0};
  for (int i = 0; i < count; ++i) {
    const drb::CorpusEntry& e = drb::corpus()[static_cast<std::size_t>(i)];
    std::printf("%-40s %-6s", e.name.c_str(), e.race ? "yes" : "no");
    for (std::size_t d = 0; d < detectors.size(); ++d) {
      const bool flagged = detectors[d]->analyze(e.body).report.race_detected;
      std::printf(" %-12s", flagged ? "race" : "clean");
      if (flagged == e.race) ++agree[d];
    }
    std::printf("\n");
  }

  std::printf("\nagreement with ground truth over %d benchmarks:\n", count);
  for (std::size_t d = 0; d < detectors.size(); ++d) {
    std::printf("  %-12s %d/%d\n", detectors[d]->name().c_str(), agree[d],
                count);
  }
  return 0;
}
