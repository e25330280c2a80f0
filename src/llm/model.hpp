// The simulated chat model.
//
// ChatModel turns a prompt chat into a natural-language reply the way a
// hosted LLM endpoint would: it re-extracts the code from the prompt,
// checks its context window, forms a verdict from its noisy evidence view
// (persona rates + optional fine-tuned adapter), and verbalizes the result
// with persona-dependent formatting discipline. Everything is
// deterministic given (persona, prompt style, code).
//
// Concurrency contract: the const methods (chat, decide, persona) are
// data-race-free and may be called from many threads at once. They touch
// no mutable members -- per-call state (tokenizers, PRNGs seeded from
// stable keys) lives on the stack, the adapter is held by shared_ptr to
// const, and the only shared state is the exactly-once feature cache
// behind cached_features. The non-const mutators (set_adapter,
// set_varid_boost) are configuration-time only: call them before the
// model is shared across threads, never concurrently with chat/decide.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "llm/features.hpp"
#include "llm/persona.hpp"
#include "prompts/prompts.hpp"

namespace drbml::llm {

class Adapter;  // finetune.hpp

struct Reply {
  std::string text;
  int prompt_tokens = 0;
  bool context_exceeded = false;
};

struct Verdict {
  bool yes = false;
  double p_yes = 0.5;        // post-adapter probability
  bool uncertain = false;    // evidence was inconsistent
};

/// Feature cache: extraction runs two static analyses, so results are
/// memoized by content hash across all models and experiments.
[[nodiscard]] const ProgramFeatures& cached_features(const std::string& code);

/// Drops the feature cache (benchmark cold-start fairness). Only safe
/// while no thread is inside cached_features or holding its references.
void clear_feature_cache();

/// Recovers the code block embedded in a rendered prompt.
[[nodiscard]] std::string extract_code_from_prompt(const std::string& prompt);

class ChatModel {
 public:
  explicit ChatModel(Persona persona) : persona_(std::move(persona)) {}

  /// Full chat completion. Multi-turn chats (P3) are processed turn by
  /// turn; the returned reply is the final assistant message.
  [[nodiscard]] Reply chat(const prompts::Chat& chat) const;

  /// Direct decision API (used by the evaluation harness and trainer).
  [[nodiscard]] Verdict decide(prompts::Style style,
                               const std::string& code) const;

  /// Decision with an auxiliary input modality (paper future work). An
  /// explicit dependence graph removes the model's uncertainty on
  /// non-affine programs and sharpens its confidence; an AST gives a
  /// smaller sharpening only.
  [[nodiscard]] Verdict decide(prompts::Style style, const std::string& code,
                               prompts::Modality modality) const;

  [[nodiscard]] const Persona& persona() const noexcept { return persona_; }

  /// Installs a fine-tuned adapter (detection head delta).
  void set_adapter(std::shared_ptr<const Adapter> adapter) {
    adapter_ = std::move(adapter);
  }

  /// Fine-tuning side effects on structured output quality (Section 4.3).
  void set_varid_boost(double fidelity_delta, double selection_delta) {
    persona_.format_fidelity =
        std::min(0.98, persona_.format_fidelity + fidelity_delta);
    persona_.pair_selection =
        std::min(0.95, persona_.pair_selection + selection_delta);
    persona_.spurious_pairs = std::max(0.02, persona_.spurious_pairs * 0.8);
  }

 private:
  [[nodiscard]] std::string render_detection_reply(const Verdict& v,
                                                   std::uint64_t seed) const;
  [[nodiscard]] std::string render_varid_reply(const Verdict& v,
                                               const ProgramFeatures& f,
                                               const std::string& code,
                                               std::uint64_t seed) const;

  Persona persona_;
  std::shared_ptr<const Adapter> adapter_;
};

}  // namespace drbml::llm
