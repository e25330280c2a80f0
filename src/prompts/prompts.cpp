#include "prompts/prompts.hpp"

#include "support/strings.hpp"

namespace drbml::prompts {

namespace {
constexpr const char* kPlaceholder = "{Code_to_analyze}";
}

const char* style_name(Style s) noexcept {
  switch (s) {
    case Style::BP1: return "BP1";
    case Style::BP2: return "BP2";
    case Style::P1: return "p1";
    case Style::P2: return "p2";
    case Style::P3: return "p3";
  }
  return "?";
}

const std::string& basic_prompt_1_template() {
  static const std::string t =
      "You are an expert in High-Performance Computing. Examine the code "
      "presented to you and ascertain if it contains any data races.\n"
      "Begin with a concise response: either 'yes' for the presence of a "
      "data race or 'no' if absent.\n"
      "\n"
      "{Code_to_analyze}\n";
  return t;
}

const std::string& basic_prompt_2_template() {
  static const std::string t =
      "You are an expert in High-Performance Computing. Examine the code "
      "presented to you and ascertain if it contains any data races.\n"
      "Begin with a concise response: either 'yes' for the presence of a "
      "data race or 'no' if absent.\n"
      "Detail each occurrence of a data race by specifying the variable "
      "pairs involved, using the JSON format outlined below:\n"
      "\"variable_names\": Names of each pair of variables involved in a "
      "data race.\n"
      "\"variable_locations\": line numbers of the paired variables within "
      "the code.\n"
      "\"operation_types\": Corresponding operations, either 'write' or "
      "'read'.\n"
      "\n"
      "{Code_to_analyze}\n";
  return t;
}

const std::string& tool_emulation_template() {
  static const std::string t =
      "You are an expert in High-Performance Computing (HPC).\n"
      "Examine the provided code to identify any data races based on data "
      "dependence analysis.\n"
      "For clarity, a data race occurs when two or more threads access the "
      "same memory location simultaneously in a conflicting manner, without "
      "sufficient synchronization, with at least one of these accesses "
      "involving a write operation. It's crucial to analyze data dependence "
      "before determining potential data races.\n"
      "Begin with a concise response: either 'yes' for the presence of a "
      "data race or 'no' if absent.\n"
      "\n"
      "{Code_to_analyze}\n";
  return t;
}

const std::string& cot_step1_template() {
  static const std::string t =
      "You are an expert in High-Performance Computing (HPC).\n"
      "Analyze data dependence in the given code.\n"
      "\n"
      "{Code_to_analyze}\n";
  return t;
}

const std::string& cot_step2_template() {
  static const std::string t =
      "A data race occurs when two or more threads access the same memory "
      "location simultaneously in a conflicting manner, without sufficient "
      "synchronization, with at least one of these accesses involving a "
      "write operation. Identify any data races based on the given data "
      "dependence information.\n"
      "Begin with a concise response: either 'yes' for the presence of a "
      "data race or 'no' if absent.\n";
  return t;
}

std::string render(const std::string& templ, const std::string& code) {
  return replace_all(templ, kPlaceholder, code);
}

Chat detection_chat(Style style, const std::string& code) {
  switch (style) {
    case Style::BP1:
    case Style::P1:
      return {{"user", render(basic_prompt_1_template(), code)}};
    case Style::BP2:
      return {{"user", render(basic_prompt_2_template(), code)}};
    case Style::P2:
      return {{"user", render(tool_emulation_template(), code)}};
    case Style::P3:
      return {{"user", render(cot_step1_template(), code)},
              {"user", cot_step2_template()}};
  }
  return {};
}

Chat modal_detection_chat(Style style, Modality modality,
                          const std::string& code, const std::string& aux) {
  Chat chat = detection_chat(style, code);
  if (modality == Modality::Text || chat.empty()) return chat;
  const char* marker = modality == Modality::Ast        ? kAstMarker
                       : modality == Modality::Lint     ? kLintMarker
                       : modality == Modality::Evidence ? kEvidenceMarker
                                                        : kDepGraphMarker;
  chat.front().content += "\n";
  chat.front().content += marker;
  chat.front().content += "\n";
  chat.front().content += aux;
  return chat;
}

Chat varid_chat(const std::string& code) {
  return {{"user", render(basic_prompt_2_template(), code)}};
}

std::string finetune_detection_prompt(const std::string& code) {
  return render(basic_prompt_1_template(), code);
}

std::string finetune_detection_response(bool race) {
  return race ? "yes" : "no";
}

std::string finetune_varid_prompt(const std::string& code) {
  return render(basic_prompt_2_template(), code);
}

}  // namespace drbml::prompts
