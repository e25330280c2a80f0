#include "core/detector.hpp"

#include "eval/artifact_cache.hpp"
#include "eval/parse.hpp"
#include "lint/emit.hpp"
#include "llm/model.hpp"
#include "prompts/prompts.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace drbml::core {

namespace {

class StaticTool final : public RaceDetector {
 public:
  RaceVerdict analyze(const eval::Source& code) const override {
    return {.report = eval::artifact_cache().static_report(code, {})};
  }
  std::string name() const override { return "static"; }
};

class DynamicTool final : public RaceDetector {
 public:
  RaceVerdict analyze(const eval::Source& code) const override {
    return {.report = eval::artifact_cache().dynamic_report(code, {})};
  }
  std::string name() const override { return "dynamic"; }
};

class HybridTool final : public RaceDetector {
 public:
  RaceVerdict analyze(const eval::Source& code) const override {
    eval::ArtifactCache& cache = eval::artifact_cache();
    RaceVerdict v{.report = cache.static_report(code, {})};
    try {
      v.report.merge(cache.dynamic_report(code, {}));
    } catch (const Error& e) {
      v.report.diagnostics.push_back(
          std::string("dynamic detector unavailable: ") + e.what());
    }
    return v;
  }
  std::string name() const override { return "hybrid"; }
};

class ExploreTool final : public RaceDetector {
 public:
  explicit ExploreTool(runtime::ScheduleStrategy strategy) {
    opts_.strategy = strategy;
  }

  RaceVerdict analyze(const eval::Source& code) const override {
    const explore::ExploreResult& result =
        eval::artifact_cache().explore_result(code, opts_);
    RaceVerdict v{.report = result.report};
    v.report.race_detected = result.race_detected;
    if (!result.witness.empty()) {
      v.report.diagnostics.push_back("witness: " + result.witness);
    }
    return v;
  }

  std::string name() const override {
    return std::string("explore:") + runtime::strategy_name(opts_.strategy);
  }

 private:
  explore::ExploreOptions opts_;
};

class LintTool final : public RaceDetector {
 public:
  RaceVerdict analyze(const eval::Source& code) const override {
    const lint::LintReport& report = eval::artifact_cache().lint_report(code);
    RaceVerdict v{.report = report.race};
    // The verdict's notes are the linter's findings, not the static
    // pipeline's own diagnostics.
    v.report.diagnostics.clear();
    for (const auto& d : report.diagnostics) {
      v.report.diagnostics.push_back(lint::to_text_line(d));
    }
    if (report.suppressed > 0) {
      v.report.diagnostics.push_back(
          "lint: " + std::to_string(report.suppressed) +
          " finding(s) suppressed by drbml-lint-suppress comments");
    }
    return v;
  }
  std::string name() const override { return "lint"; }
};

class LlmTool final : public RaceDetector {
 public:
  LlmTool(llm::Persona persona, prompts::Style style)
      : model_(std::move(persona)), style_(style) {}

  RaceVerdict analyze(const eval::Source& code) const override {
    // Ask for pair details with BP2; plain detection otherwise.
    const std::string text(code.text());
    const prompts::Chat chat = style_ == prompts::Style::BP2
                                   ? prompts::varid_chat(text)
                                   : prompts::detection_chat(style_, text);
    const llm::Reply reply = model_.chat(chat);
    RaceVerdict v;
    v.model_response = reply.text;
    if (reply.context_exceeded) {
      v.report.diagnostics.push_back("llm: context window exceeded");
      return v;
    }
    const eval::ParsedVarId parsed = eval::parse_varid(reply.text);
    v.report.race_detected = parsed.verdict.value_or(false);
    for (const auto& pair : parsed.pairs) {
      if (pair.names.size() != 2) continue;
      analysis::RacePair rp;
      rp.first.expr_text = pair.names[0];
      rp.second.expr_text = pair.names[1];
      if (pair.lines.size() == 2) {
        rp.first.loc.line = pair.lines[0];
        rp.second.loc.line = pair.lines[1];
      }
      if (pair.ops.size() == 2) {
        rp.first.op = pair.ops[0].empty() ? 'w' : pair.ops[0][0];
        rp.second.op = pair.ops[1].empty() ? 'r' : pair.ops[1][0];
      }
      rp.note = "reported by " + model_.persona().name;
      v.report.pairs.push_back(std::move(rp));
    }
    return v;
  }

  std::string name() const override {
    return "llm:" + model_.persona().key + ":" +
           prompts::style_name(style_);
  }

 private:
  llm::ChatModel model_;
  prompts::Style style_;
};

llm::Persona persona_by_key(const std::string& key) {
  for (const llm::Persona& p : llm::all_personas()) {
    if (p.key == key) return p;
  }
  throw Error("unknown model persona: " + key);
}

prompts::Style style_by_name(const std::string& name) {
  if (name == "p1" || name == "bp1") return prompts::Style::P1;
  if (name == "p2") return prompts::Style::P2;
  if (name == "p3") return prompts::Style::P3;
  if (name == "bp2" || name == "varid") return prompts::Style::BP2;
  throw Error("unknown prompt style: " + name);
}

}  // namespace

std::unique_ptr<RaceDetector> make_detector(const std::string& spec) {
  if (spec == "static") return std::make_unique<StaticTool>();
  if (spec == "dynamic") return std::make_unique<DynamicTool>();
  if (spec == "hybrid") return std::make_unique<HybridTool>();
  if (spec == "lint") return std::make_unique<LintTool>();
  if (spec == "explore") {
    return std::make_unique<ExploreTool>(runtime::ScheduleStrategy::Pct);
  }
  if (starts_with(spec, "explore:")) {
    return std::make_unique<ExploreTool>(
        runtime::parse_strategy(spec.substr(8)));
  }
  if (starts_with(spec, "llm:")) {
    const std::vector<std::string> parts = split(spec, ':');
    const std::string key = parts.size() > 1 ? parts[1] : "gpt4";
    const prompts::Style style =
        parts.size() > 2 ? style_by_name(parts[2]) : prompts::Style::P1;
    return std::make_unique<LlmTool>(persona_by_key(key), style);
  }
  throw Error("unknown detector spec: " + spec +
              " (try: static, dynamic, hybrid, lint, explore, llm:gpt4:p1)");
}

std::vector<std::string> available_detectors() {
  std::vector<std::string> out = {"static",  "dynamic",
                                  "hybrid",  "lint",
                                  "explore", "explore:uniform",
                                  "explore:pct"};
  for (const llm::Persona& p : llm::all_personas()) {
    for (const char* style : {"p1", "p2", "p3", "bp2"}) {
      out.push_back("llm:" + p.key + ":" + style);
    }
  }
  return out;
}

}  // namespace drbml::core
