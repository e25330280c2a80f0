// The introduction's motivating use case: LLMs as a proactive assistant
// that both flags a race and explains it. Runs a user-supplied file (or a
// built-in sample) through the hybrid tool for ground truth and through
// GPT-4 (simulated) for the natural-language explanation with variable
// details.
//
//   $ ./explain_race [file.c]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/detector.hpp"

namespace {

const char* kSample = R"(#include <stdio.h>
int main()
{
  int i;
  int tmp = 0;
  int a[100];

  for (i = 0; i < 100; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < 100; i++) {
    tmp = a[i] + 1;
    a[i] = tmp * 2;
  }
  printf("a[10]=%d\n", a[10]);
  return 0;
}
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace drbml;
  std::string code;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << file.rdbuf();
    code = ss.str();
  } else {
    code = kSample;
  }

  std::printf("--- program ---\n%s\n", code.c_str());

  auto tool = core::make_detector("hybrid");
  const core::RaceVerdict truth = tool->analyze(code);
  std::printf("--- traditional tool (%s) ---\n%s\n", tool->name().c_str(),
              truth.report.race_detected ? "data race detected" : "no race found");
  for (const auto& pair : truth.report.pairs) {
    std::printf("  %s@%d:%d:%c vs. %s@%d:%d:%c\n",
                pair.first.expr_text.c_str(), pair.first.loc.line,
                pair.first.loc.col, pair.first.op,
                pair.second.expr_text.c_str(), pair.second.loc.line,
                pair.second.loc.col, pair.second.op);
  }

  auto assistant = core::make_detector("llm:gpt4:bp2");
  const core::RaceVerdict llm_view = assistant->analyze(code);
  std::printf("\n--- LLM assistant (%s) ---\n%s\n",
              assistant->name().c_str(), llm_view.model_response.c_str());
  std::printf("\nagreement with tool: %s\n",
              llm_view.report.race_detected == truth.report.race_detected
                  ? "YES"
                  : "NO");
  return 0;
}
