// The paper's prompt library (Listings 3-9) and the chat-turn model.
//
// Strategies evaluated in Section 4.1:
//   p1 -- Listing 4: succinct detection prompt (basic prompt 1 / BP1)
//   p2 -- Listing 6: tool-emulation prompt with an explicit definition
//   p3 -- Listing 7: two-turn chain-of-thought (dependence analysis first)
// plus BP2 (Listing 5, multi-task JSON prompt) and the fine-tuning
// templates of Listings 8/9.
#pragma once

#include <string>
#include <vector>

namespace drbml::prompts {

/// One chat message. `role` follows the OpenAI convention
/// ("system"/"user"/"assistant").
struct Message {
  std::string role;
  std::string content;
};

using Chat = std::vector<Message>;

enum class Style {
  BP1,  // Listing 4
  BP2,  // Listing 5 (multi-task, JSON output)
  P1,   // == BP1 in the paper's evaluation
  P2,   // Listing 6
  P3,   // Listing 7, chain-of-thought (two turns)
};

[[nodiscard]] const char* style_name(Style s) noexcept;

/// Input modalities (paper Section 5 future work): the code alone, or the
/// code augmented with an auxiliary structured representation.
enum class Modality {
  Text,      // code only (the paper's evaluated setting)
  Ast,       // + pretty-printed abstract syntax tree
  DepGraph,  // + serialized data-dependence graph
  Lint,      // + OpenMP correctness linter findings (src/lint)
  Evidence,  // + the static detector's evidence chains (src/analysis)
};

/// Renders the full chat for a detection query over `code`. P3 yields two
/// user turns (the harness feeds the first reply back before the second).
[[nodiscard]] Chat detection_chat(Style style, const std::string& code);

/// Detection chat with an auxiliary modality appended. `aux` is the
/// serialized AST or dependence graph produced by the caller.
[[nodiscard]] Chat modal_detection_chat(Style style, Modality modality,
                                        const std::string& code,
                                        const std::string& aux);

/// Section markers used to embed auxiliary representations in prompts.
inline constexpr const char* kAstMarker = "=== Abstract syntax tree ===";
inline constexpr const char* kDepGraphMarker =
    "=== Data dependence graph ===";
inline constexpr const char* kLintMarker =
    "=== Static analysis findings ===";
inline constexpr const char* kEvidenceMarker =
    "=== Static race evidence ===";

/// Listing 5 / BP2: detection plus structured variable identification.
[[nodiscard]] Chat varid_chat(const std::string& code);

/// Listing 8: fine-tuning prompt for detection (response is "yes"/"no").
[[nodiscard]] std::string finetune_detection_prompt(const std::string& code);
[[nodiscard]] std::string finetune_detection_response(bool race);

/// Listing 9: fine-tuning prompt for variable identification; the
/// response is assembled by the dataset builder from the labels.
[[nodiscard]] std::string finetune_varid_prompt(const std::string& code);

/// Substitutes `{Code_to_analyze}` in a template.
[[nodiscard]] std::string render(const std::string& templ,
                                 const std::string& code);

// Raw template text (exposed for tests and documentation).
[[nodiscard]] const std::string& basic_prompt_1_template();
[[nodiscard]] const std::string& basic_prompt_2_template();
[[nodiscard]] const std::string& tool_emulation_template();   // Listing 6
[[nodiscard]] const std::string& cot_step1_template();        // Listing 7a
[[nodiscard]] const std::string& cot_step2_template();        // Listing 7b

}  // namespace drbml::prompts
