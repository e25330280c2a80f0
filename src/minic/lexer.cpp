#include "minic/lexer.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "support/error.hpp"

namespace drbml::minic {

namespace {

// Character classes of the "C" locale, which the program never changes:
// <cctype>'s isspace, isdigit, isxdigit, isalpha and isalnum without a
// library call per byte.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}
constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }
constexpr bool is_xdigit(char c) noexcept {
  return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}
constexpr bool is_word_start(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
constexpr bool is_word_char(char c) noexcept {
  return is_word_start(c) || is_digit(c);
}

/// The keyword code of `w`, or Tok::None for an identifier.
Tok keyword_code(std::string_view w) noexcept {
  switch (w.size()) {
    case 2:
      if (w == "if") return Tok::KwIf;
      if (w == "do") return Tok::KwDo;
      break;
    case 3:
      if (w == "int") return Tok::KwInt;
      if (w == "for") return Tok::KwFor;
      break;
    case 4:
      if (w == "void") return Tok::KwVoid;
      if (w == "char") return Tok::KwChar;
      if (w == "long") return Tok::KwLong;
      if (w == "else") return Tok::KwElse;
      if (w == "bool") return Tok::KwBool;
      break;
    case 5:
      if (w == "short") return Tok::KwShort;
      if (w == "float") return Tok::KwFloat;
      if (w == "const") return Tok::KwConst;
      if (w == "while") return Tok::KwWhile;
      if (w == "break") return Tok::KwBreak;
      break;
    case 6:
      if (w == "double") return Tok::KwDouble;
      if (w == "signed") return Tok::KwSigned;
      if (w == "static") return Tok::KwStatic;
      if (w == "struct") return Tok::KwStruct;
      if (w == "return") return Tok::KwReturn;
      if (w == "sizeof") return Tok::KwSizeof;
      if (w == "extern") return Tok::KwExtern;
      break;
    case 8:
      if (w == "unsigned") return Tok::KwUnsigned;
      if (w == "continue") return Tok::KwContinue;
      if (w == "volatile") return Tok::KwVolatile;
      break;
    default:
      break;
  }
  return Tok::None;
}

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    // Mini-C code averages three to four bytes a token.
    out.reserve(src_.size() / 3 + 2);
    for (;;) {
      skip_space_and_directives(out);
      if (eof()) break;
      next_token(out.emplace_back());
    }
    out.emplace_back().loc = loc();
    return out;
  }

 private:
  [[nodiscard]] bool eof() const noexcept { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const noexcept {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  /// Consumes one byte, which may be a newline. At the end of the input
  /// it reads the NUL that terminates a std::string source and steps past
  /// it; only an escape at the very end does that, and fails right after.
  char advance() noexcept {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return c;
  }
  [[nodiscard]] SourceLoc loc() const noexcept {
    return {line_, static_cast<int>(pos_ - line_start_) + 1};
  }

  [[noreturn]] void fail(const std::string& msg) const {
    const SourceLoc at = loc();
    throw ParseError(msg, at.line, at.col);
  }

  void skip_space_and_directives(std::vector<Token>& out) {
    for (;;) {
      while (!eof() && is_space(src_[pos_])) advance();
      if (eof()) return;
      const char c = src_[pos_];
      // Comments.
      if (c == '/' && peek(1) == '/') {
        while (!eof() && src_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        pos_ += 2;
        while (!eof() && !(src_[pos_] == '*' && peek(1) == '/')) advance();
        if (eof()) fail("unterminated block comment");
        pos_ += 2;
        continue;
      }
      // Preprocessor lines.
      if (c == '#') {
        directive(out);
        continue;
      }
      return;
    }
  }

  /// A `#` line, continuations included. `# pragma ...` becomes a token;
  /// `#include`/`#define` are ignored (the corpus only includes hosted
  /// headers).
  void directive(std::vector<Token>& out) {
    const SourceLoc start = loc();
    ++pos_;  // '#'
    const std::size_t body = pos_;
    while (!eof()) {
      if (src_[pos_] == '\\' && peek(1) == '\n') {
        advance();
        advance();
        continue;
      }
      if (src_[pos_] == '\n') break;
      ++pos_;
    }
    const std::string_view text = src_.substr(body, pos_ - body);
    std::size_t i = 0;
    for (;;) {
      if (i < text.size() && is_space(text[i])) {
        ++i;
      } else if (i + 1 < text.size() && text[i] == '\\' &&
                 text[i + 1] == '\n') {
        i += 2;
      } else {
        break;
      }
    }
    if (text.substr(i, 6) == "pragma") {
      Token& t = out.emplace_back();
      t.kind = TokenKind::Pragma;
      t.text = text.substr(i + 6);
      t.loc = start;
    }
  }

  void next_token(Token& t) {
    t.loc = loc();
    const char c = src_[pos_];
    if (is_word_start(c)) return lex_word(t);
    if (is_digit(c) || (c == '.' && is_digit(peek(1)))) return lex_number(t);
    if (c == '"') return lex_string(t);
    if (c == '\'') return lex_char(t);
    lex_punct(t);
  }

  void lex_word(Token& t) {
    const std::size_t start = pos_;
    while (!eof() && is_word_char(src_[pos_])) ++pos_;
    t.text = src_.substr(start, pos_ - start);
    t.code = keyword_code(t.text);
    t.kind = t.code == Tok::None ? TokenKind::Identifier : TokenKind::Keyword;
  }

  void lex_number(Token& t) {
    const std::size_t start = pos_;
    bool is_float = false;
    bool is_hex = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      is_hex = true;
      pos_ += 2;
      while (!eof() && is_xdigit(src_[pos_])) ++pos_;
    } else {
      while (!eof() && (is_digit(src_[pos_]) || src_[pos_] == '.')) {
        if (src_[pos_] == '.') is_float = true;
        ++pos_;
      }
      if (peek() == 'e' || peek() == 'E') {
        is_float = true;
        ++pos_;
        if (peek() == '+' || peek() == '-') ++pos_;
        while (!eof() && is_digit(src_[pos_])) ++pos_;
      }
    }
    const std::string_view spelling = src_.substr(start, pos_ - start);
    // Suffixes (u, l, f) are consumed and ignored.
    for (char c = peek(); c == 'u' || c == 'U' || c == 'l' || c == 'L' ||
                          c == 'f' || c == 'F';
         c = peek()) {
      if (c == 'f' || c == 'F') is_float = true;
      ++pos_;
    }

    t.text = spelling;
    if (is_float) {
      t.kind = TokenKind::FloatLiteral;
      t.float_value = to_double(spelling);
    } else {
      t.kind = TokenKind::IntLiteral;
      if (is_hex) {
        if (spelling.size() <= 2) fail("hex literal without digits");
        t.int_value = static_cast<std::int64_t>(
            to_integer<std::uint64_t>(spelling.substr(2), 16, spelling));
      } else {
        t.int_value = to_integer<std::int64_t>(spelling, 10, spelling);
      }
    }
  }

  // The conversions accept exactly what std::stoll, std::stoull and
  // std::stod accept on the spellings lex_number collects, and fail with
  // the same two messages.
  [[noreturn]] void fail_malformed(std::string_view spelling) const {
    fail("malformed numeric literal '" + std::string(spelling) + "'");
  }
  [[noreturn]] void fail_out_of_range(std::string_view spelling) const {
    fail("numeric literal out of range: '" + std::string(spelling) + "'");
  }

  template <class Int>
  Int to_integer(std::string_view digits, int base,
                 std::string_view spelling) const {
    Int value = 0;
    const auto [end, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), value, base);
    if (ec == std::errc::result_out_of_range) fail_out_of_range(spelling);
    if (ec != std::errc()) fail_malformed(spelling);
    return value;
  }

  double to_double(std::string_view spelling) const {
    // strtod wants a terminated string: copy the spelling to the stack
    // (the heap only for a spelling longer than any sane literal).
    char buf[64];
    std::string long_spelling;
    const char* s = buf;
    if (spelling.size() < sizeof(buf)) {
      std::memcpy(buf, spelling.data(), spelling.size());
      buf[spelling.size()] = '\0';
    } else {
      long_spelling.assign(spelling);
      s = long_spelling.c_str();
    }
    const int saved_errno = errno;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(s, &end);
    const bool out_of_range = errno == ERANGE;
    if (errno == 0) errno = saved_errno;
    if (end == s) fail_malformed(spelling);
    if (out_of_range) fail_out_of_range(spelling);
    return value;
  }

  char decode_escape() {
    const char e = advance();
    switch (e) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case '0': return '\0';
      case '\\': return '\\';
      case '\'': return '\'';
      case '"': return '"';
      default: fail(std::string("unknown escape \\") + e);
    }
  }

  void lex_string(Token& t) {
    const std::size_t start = pos_;
    advance();  // opening quote
    while (!eof() && src_[pos_] != '"') {
      if (src_[pos_] == '\n') fail("newline in string literal");
      const char c = advance();
      t.string_value.push_back(c == '\\' ? decode_escape() : c);
    }
    if (eof()) fail("unterminated string literal");
    advance();
    t.kind = TokenKind::StringLiteral;
    t.text = src_.substr(start, pos_ - start);
  }

  void lex_char(Token& t) {
    const std::size_t start = pos_;
    advance();  // opening quote
    if (eof()) fail("unterminated char literal");
    char value = 0;
    if (src_[pos_] == '\\') {
      advance();
      value = decode_escape();
    } else {
      value = advance();
    }
    if (eof() || src_[pos_] != '\'') fail("unterminated char literal");
    advance();
    t.kind = TokenKind::CharLiteral;
    t.text = src_.substr(start, pos_ - start);
    t.int_value = value;
  }

  void lex_punct(Token& t) {
    const char c = src_[pos_];
    const char c1 = peek(1);
    const char c2 = peek(2);
    // Longest match first: every two- and three-byte punctuator extends a
    // one-byte one.
    auto pick = [&](Tok code, std::size_t len) {
      t.kind = TokenKind::Punct;
      t.code = code;
      t.text = src_.substr(pos_, len);
      pos_ += len;
    };
    switch (c) {
      case '(': return pick(Tok::LParen, 1);
      case ')': return pick(Tok::RParen, 1);
      case '{': return pick(Tok::LBrace, 1);
      case '}': return pick(Tok::RBrace, 1);
      case '[': return pick(Tok::LBracket, 1);
      case ']': return pick(Tok::RBracket, 1);
      case ';': return pick(Tok::Semi, 1);
      case ',': return pick(Tok::Comma, 1);
      case '?': return pick(Tok::Question, 1);
      case ':': return pick(Tok::Colon, 1);
      case '~': return pick(Tok::Tilde, 1);
      case '.':
        if (c1 == '.' && c2 == '.') return pick(Tok::Ellipsis, 3);
        return pick(Tok::Dot, 1);
      case '<':
        if (c1 == '<') {
          return c2 == '=' ? pick(Tok::ShlAssign, 3) : pick(Tok::Shl, 2);
        }
        if (c1 == '=') return pick(Tok::Le, 2);
        return pick(Tok::Lt, 1);
      case '>':
        if (c1 == '>') {
          return c2 == '=' ? pick(Tok::ShrAssign, 3) : pick(Tok::Shr, 2);
        }
        if (c1 == '=') return pick(Tok::Ge, 2);
        return pick(Tok::Gt, 1);
      case '=':
        return c1 == '=' ? pick(Tok::EqEq, 2) : pick(Tok::Assign, 1);
      case '!':
        return c1 == '=' ? pick(Tok::Ne, 2) : pick(Tok::Bang, 1);
      case '&':
        if (c1 == '&') return pick(Tok::AmpAmp, 2);
        if (c1 == '=') return pick(Tok::AmpAssign, 2);
        return pick(Tok::Amp, 1);
      case '|':
        if (c1 == '|') return pick(Tok::PipePipe, 2);
        if (c1 == '=') return pick(Tok::PipeAssign, 2);
        return pick(Tok::Pipe, 1);
      case '+':
        if (c1 == '+') return pick(Tok::PlusPlus, 2);
        if (c1 == '=') return pick(Tok::PlusAssign, 2);
        return pick(Tok::Plus, 1);
      case '-':
        if (c1 == '-') return pick(Tok::MinusMinus, 2);
        if (c1 == '=') return pick(Tok::MinusAssign, 2);
        if (c1 == '>') return pick(Tok::Arrow, 2);
        return pick(Tok::Minus, 1);
      case '*':
        return c1 == '=' ? pick(Tok::StarAssign, 2) : pick(Tok::Star, 1);
      case '/':
        return c1 == '=' ? pick(Tok::SlashAssign, 2) : pick(Tok::Slash, 1);
      case '%':
        return c1 == '=' ? pick(Tok::PercentAssign, 2)
                         : pick(Tok::Percent, 1);
      case '^':
        return c1 == '=' ? pick(Tok::CaretAssign, 2) : pick(Tok::Caret, 1);
      default:
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;  // offset of the current line's first byte
  int line_ = 1;
};

}  // namespace

bool is_keyword_word(std::string_view word) noexcept {
  return keyword_code(word) != Tok::None;
}

std::vector<Token> lex(std::string_view source) {
  return Lexer(source).run();
}

std::string join_continuations(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size() && text[i + 1] == '\n') {
      out.push_back(' ');
      ++i;
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

std::string display_text(const Token& t) {
  switch (t.kind) {
    case TokenKind::CharLiteral:
      return std::string("'") + static_cast<char>(t.int_value) + "'";
    case TokenKind::Pragma:
      return join_continuations(t.text);
    default:
      return std::string(t.text);
  }
}

}  // namespace drbml::minic
