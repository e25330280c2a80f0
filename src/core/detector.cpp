#include "core/detector.hpp"

#include "analysis/race.hpp"
#include "eval/parse.hpp"
#include "explore/explore.hpp"
#include "lint/lint.hpp"
#include "llm/model.hpp"
#include "obs/catalog.hpp"
#include "prompts/prompts.hpp"
#include "runtime/dynamic.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace drbml::core {

namespace {

class StaticTool final : public RaceDetector {
 public:
  RaceVerdict analyze(const std::string& code) const override {
    analysis::StaticRaceDetector detector;
    analysis::RaceReport report = detector.analyze_source(code);
    RaceVerdict v;
    v.race = report.race_detected;
    v.pairs = std::move(report.pairs);
    v.discharged = std::move(report.discharged);
    v.diagnostics = std::move(report.diagnostics);
    return v;
  }
  std::string name() const override { return "static"; }
};

class DynamicTool final : public RaceDetector {
 public:
  RaceVerdict analyze(const std::string& code) const override {
    runtime::DynamicRaceDetector detector;
    analysis::RaceReport report = detector.analyze_source(code);
    RaceVerdict v;
    v.race = report.race_detected;
    v.pairs = std::move(report.pairs);
    v.diagnostics = std::move(report.diagnostics);
    return v;
  }
  std::string name() const override { return "dynamic"; }
};

class HybridTool final : public RaceDetector {
 public:
  RaceVerdict analyze(const std::string& code) const override {
    StaticTool st;
    RaceVerdict v = st.analyze(code);
    DynamicTool dy;
    RaceVerdict d = dy.analyze(code);
    v.race = v.race || d.race;
    for (auto& p : d.pairs) {
      bool dup = false;
      for (const auto& q : v.pairs) {
        if (q == p) {
          dup = true;
          break;
        }
      }
      if (!dup) v.pairs.push_back(std::move(p));
    }
    for (auto& diag : d.diagnostics) v.diagnostics.push_back(std::move(diag));
    return v;
  }
  std::string name() const override { return "hybrid"; }
};

class ExploreTool final : public RaceDetector {
 public:
  explicit ExploreTool(runtime::ScheduleStrategy strategy)
      : strategy_(strategy) {}

  RaceVerdict analyze(const std::string& code) const override {
    explore::ExploreOptions opts;
    opts.strategy = strategy_;
    const explore::ExploreResult result = explore::explore_source(code, opts);
    RaceVerdict v;
    v.race = result.race_detected;
    v.pairs = result.report.pairs;
    v.diagnostics = result.report.diagnostics;
    if (!result.witness.empty()) {
      v.diagnostics.push_back("witness: " + result.witness);
    }
    return v;
  }

  std::string name() const override {
    return std::string("explore:") + runtime::strategy_name(strategy_);
  }

 private:
  runtime::ScheduleStrategy strategy_;
};

class LintTool final : public RaceDetector {
 public:
  RaceVerdict analyze(const std::string& code) const override {
    const lint::LintReport report = linter_.lint_source(code);
    RaceVerdict v;
    v.race = report.race.race_detected;
    v.pairs = report.race.pairs;
    v.discharged = report.race.discharged;
    for (const auto& d : report.diagnostics) {
      v.diagnostics.push_back(lint::to_text_line(d));
    }
    if (report.suppressed > 0) {
      v.diagnostics.push_back("lint: " + std::to_string(report.suppressed) +
                              " finding(s) suppressed by "
                              "drbml-lint-suppress comments");
    }
    return v;
  }
  std::string name() const override { return "lint"; }

 private:
  lint::Linter linter_;
};

class LlmTool final : public RaceDetector {
 public:
  LlmTool(llm::Persona persona, prompts::Style style)
      : model_(std::move(persona)), style_(style) {}

  RaceVerdict analyze(const std::string& code) const override {
    // Ask for pair details with BP2; plain detection otherwise.
    const prompts::Chat chat = style_ == prompts::Style::BP2
                                   ? prompts::varid_chat(code)
                                   : prompts::detection_chat(style_, code);
    const llm::Reply reply = model_.chat(chat);
    RaceVerdict v;
    v.model_response = reply.text;
    if (reply.context_exceeded) {
      v.diagnostics.push_back("llm: context window exceeded");
      return v;
    }
    const eval::ParsedVarId parsed = eval::parse_varid(reply.text);
    v.race = parsed.verdict.value_or(false);
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
      v.pairs.push_back(std::move(rp));
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

std::vector<RaceVerdict> RaceDetector::analyze_batch(
    const std::vector<std::string>& sources) const {
  static obs::Counter& entries = obs::metrics().counter(obs::kDetectEntries);
  entries.add(sources.size());
  const std::string spec = name();
  obs::Span batch_span(obs::kSpanDetectBatch, spec);
  return support::parallel_map(jobs_, sources, [this, &spec](const std::string& code) {
    obs::Span span(obs::kSpanDetectEntry, spec);
    return analyze(code);
  });
}

std::unique_ptr<RaceDetector> make_detector(const DetectorSpec& spec) {
  std::unique_ptr<RaceDetector> detector = make_detector(spec.spec);
  detector->set_jobs(spec.jobs);
  return detector;
}

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
