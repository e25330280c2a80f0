// Token model for the Mini-C lexer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "minic/source.hpp"

namespace drbml::minic {

enum class TokenKind : std::uint8_t {
  End,
  Identifier,
  Keyword,
  IntLiteral,
  FloatLiteral,
  StringLiteral,
  CharLiteral,
  Punct,    // operators and punctuation, text holds the spelling
  Pragma,   // a full `#pragma ...` line; text holds the rest after `pragma`
};

/// The code of a punctuator or keyword, assigned once by the lexer so the
/// parser compares small integers instead of spellings. Every other token
/// carries Tok::None.
enum class Tok : std::uint8_t {
  None,
  // Punctuators.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Semi, Comma, Dot, Question, Colon, Arrow, Ellipsis,
  Plus, Minus, Star, Slash, Percent,
  Amp, Pipe, Caret, Tilde, Bang,
  Shl, Shr, AmpAmp, PipePipe, PlusPlus, MinusMinus,
  Lt, Gt, Le, Ge, EqEq, Ne,
  Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign,
  AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign,
  // Keywords.
  KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble, KwSigned,
  KwUnsigned, KwConst, KwStatic, KwStruct, KwIf, KwElse, KwFor, KwWhile,
  KwDo, KwReturn, KwBreak, KwContinue, KwSizeof, KwExtern, KwBool,
  KwVolatile,
};

struct Token {
  TokenKind kind = TokenKind::End;
  Tok code = Tok::None;
  /// The spelling: a view into the lexed source. A pragma's text keeps
  /// its backslash-newline continuations; a char literal's is its source
  /// spelling. display_text() gives the form error messages print.
  std::string_view text;
  SourceLoc loc;          // position of the first character
  std::int64_t int_value = 0;
  double float_value = 0.0;
  std::string string_value;  // decoded string literal contents

  [[nodiscard]] bool is(TokenKind k) const noexcept { return kind == k; }
  [[nodiscard]] bool is(Tok c) const noexcept { return code == c; }
  [[nodiscard]] bool is_punct(const char* spelling) const noexcept {
    return kind == TokenKind::Punct && text == spelling;
  }
  [[nodiscard]] bool is_keyword(const char* kw) const noexcept {
    return kind == TokenKind::Keyword && text == kw;
  }
  [[nodiscard]] bool is_ident(const char* name) const noexcept {
    return kind == TokenKind::Identifier && text == name;
  }
};

}  // namespace drbml::minic
