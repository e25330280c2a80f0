// Lexer for the Mini-C subset with OpenMP pragma support.
//
// `#include` lines are skipped (the corpus only uses the hosted headers the
// interpreter models as builtins). `#pragma` lines become single Pragma
// tokens whose text is parsed by the OpenMP clause parser. Line
// continuations (backslash-newline) inside pragmas are honoured.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "minic/token.hpp"

namespace drbml::minic {

/// Tokenizes the whole input. Throws ParseError on malformed input.
/// Token texts are views into `source`, which must outlive the tokens.
[[nodiscard]] std::vector<Token> lex(std::string_view source);

/// True if `word` is one of the Mini-C keywords.
[[nodiscard]] bool is_keyword_word(std::string_view word) noexcept;

/// `text` with each backslash-newline continuation joined into one space.
[[nodiscard]] std::string join_continuations(std::string_view text);

/// A token as messages print it: its text, except that a char literal
/// shows its decoded character in quotes and a pragma its text with the
/// continuations joined.
[[nodiscard]] std::string display_text(const Token& t);

}  // namespace drbml::minic
