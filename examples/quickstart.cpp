// Quickstart: analyze an OpenMP C snippet for data races with the three
// classical detectors and one simulated LLM.
//
//   $ ./quickstart
//
// The public entry point is drbml::core::make_detector(spec); specs are
// "static", "dynamic", "hybrid", and "llm:<persona>:<prompt>".
#include <cstdio>

#include "core/detector.hpp"

int main() {
  const char* code = R"(#include <stdio.h>
int main()
{
  int i;
  int len = 1000;
  int a[1000];

  for (i = 0; i < len; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < len - 1; i++)
    a[i] = a[i+1] + 1;
  printf("a[500]=%d\n", a[500]);
  return 0;
}
)";

  std::printf("Analyzing the classic anti-dependence kernel:\n%s\n", code);

  for (const char* spec : {"static", "dynamic", "hybrid", "llm:gpt4:bp2"}) {
    auto detector = drbml::core::make_detector(spec);
    const drbml::core::RaceVerdict verdict = detector->analyze(code);
    std::printf("== %-12s -> %s\n", detector->name().c_str(),
                verdict.report.race_detected ? "DATA RACE" : "no race");
    for (const auto& pair : verdict.report.pairs) {
      std::printf("   pair: %s@%d:%d:%c vs. %s@%d:%d:%c\n",
                  pair.first.expr_text.c_str(), pair.first.loc.line,
                  pair.first.loc.col, pair.first.op,
                  pair.second.expr_text.c_str(), pair.second.loc.line,
                  pair.second.loc.col, pair.second.op);
    }
    if (!verdict.model_response.empty()) {
      std::printf("   model said: %s\n", verdict.model_response.c_str());
    }
  }
  return 0;
}
