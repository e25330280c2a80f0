// Tests for the prompt library (Listings 4-9) and the core detector
// facade.
#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "prompts/prompts.hpp"
#include "support/error.hpp"

namespace drbml {
namespace {

// ------------------------------------------------------------- prompts

TEST(Prompts, TemplatesMatchPaperListings) {
  // Listing 4 opener.
  EXPECT_NE(prompts::basic_prompt_1_template().find(
                "You are an expert in High-Performance Computing."),
            std::string::npos);
  EXPECT_NE(prompts::basic_prompt_1_template().find(
                "either 'yes' for the presence of a data race or 'no'"),
            std::string::npos);
  // Listing 5 JSON keys.
  for (const char* key :
       {"variable_names", "variable_locations", "operation_types"}) {
    EXPECT_NE(prompts::basic_prompt_2_template().find(key),
              std::string::npos);
  }
  // Listing 6 embeds the race definition.
  EXPECT_NE(prompts::tool_emulation_template().find(
                "two or more threads access the same memory location"),
            std::string::npos);
  // Listing 7 splits analysis from the verdict.
  EXPECT_NE(prompts::cot_step1_template().find("Analyze data dependence"),
            std::string::npos);
  EXPECT_EQ(prompts::cot_step2_template().find("{Code_to_analyze}"),
            std::string::npos);
}

TEST(Prompts, RenderSubstitutesPlaceholder) {
  const std::string out =
      prompts::render(prompts::basic_prompt_1_template(), "int main(){}");
  EXPECT_NE(out.find("int main(){}"), std::string::npos);
  EXPECT_EQ(out.find("{Code_to_analyze}"), std::string::npos);
}

TEST(Prompts, DetectionChatShapes) {
  EXPECT_EQ(prompts::detection_chat(prompts::Style::P1, "x").size(), 1u);
  EXPECT_EQ(prompts::detection_chat(prompts::Style::P2, "x").size(), 1u);
  const prompts::Chat cot = prompts::detection_chat(prompts::Style::P3, "x");
  ASSERT_EQ(cot.size(), 2u);
  EXPECT_EQ(cot[0].role, "user");
  EXPECT_NE(cot[0].content.find("x"), std::string::npos);
  // Second turn carries no code (it refers to the prior analysis).
  EXPECT_EQ(cot[1].content.find("int main"), std::string::npos);
}

TEST(Prompts, StyleNames) {
  EXPECT_STREQ(prompts::style_name(prompts::Style::P1), "p1");
  EXPECT_STREQ(prompts::style_name(prompts::Style::BP2), "BP2");
}

TEST(Prompts, FinetunePairsFollowListings) {
  EXPECT_EQ(prompts::finetune_detection_response(true), "yes");
  EXPECT_EQ(prompts::finetune_detection_response(false), "no");
  EXPECT_NE(prompts::finetune_varid_prompt("CODE").find("JSON"),
            std::string::npos);
}

// ------------------------------------------------------------- core

const char* kRacy =
    "int main() {\n"
    "  int a[40];\n"
    "#pragma omp parallel for\n"
    "  for (int i = 0; i < 39; i++) a[i] = a[i+1];\n"
    "  return 0;\n"
    "}\n";

const char* kClean =
    "int main() {\n"
    "  int a[40];\n"
    "#pragma omp parallel for\n"
    "  for (int i = 0; i < 40; i++) a[i] = i;\n"
    "  return 0;\n"
    "}\n";

TEST(CoreDetector, ClassicalDetectorsAgreeOnEasyCases) {
  for (const char* spec : {"static", "dynamic", "hybrid"}) {
    auto detector = core::make_detector(spec);
    EXPECT_TRUE(detector->analyze(kRacy).report.race_detected) << spec;
    EXPECT_FALSE(detector->analyze(kClean).report.race_detected) << spec;
  }
}

TEST(CoreDetector, HybridMergesPairs) {
  auto hybrid = core::make_detector("hybrid");
  const core::RaceVerdict v = hybrid->analyze(kRacy);
  EXPECT_TRUE(v.report.race_detected);
  EXPECT_FALSE(v.report.pairs.empty());
}

TEST(CoreDetector, LlmDetectorReturnsResponseText) {
  auto llm = core::make_detector("llm:gpt4:p1");
  const core::RaceVerdict v = llm->analyze(kRacy);
  EXPECT_FALSE(v.model_response.empty());
}

TEST(CoreDetector, SpecParsing) {
  EXPECT_EQ(core::make_detector("llm:starchat:p3")->name(),
            "llm:starchat:p3");
  EXPECT_EQ(core::make_detector("llm:gpt35")->name(), "llm:gpt35:p1");
  EXPECT_THROW(core::make_detector("nonsense"), Error);
  EXPECT_THROW(core::make_detector("llm:unknown-model"), Error);
  EXPECT_THROW(core::make_detector("llm:gpt4:p9"), Error);
}

TEST(CoreDetector, AvailableDetectorsAllConstruct) {
  for (const std::string& spec : core::available_detectors()) {
    EXPECT_NO_THROW({ auto d = core::make_detector(spec); }) << spec;
  }
}

TEST(CoreDetector, DeterministicVerdicts) {
  auto llm = core::make_detector("llm:llama2:p1");
  const auto a = llm->analyze(kRacy);
  const auto b = llm->analyze(kRacy);
  EXPECT_EQ(a.report.race_detected, b.report.race_detected);
  EXPECT_EQ(a.model_response, b.model_response);
}

}  // namespace
}  // namespace drbml
