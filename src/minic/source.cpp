#include "minic/source.hpp"

#include <algorithm>

namespace drbml::minic {

int StripResult::to_trimmed_line(int original_line) const noexcept {
  if (original_line < 1 ||
      original_line > static_cast<int>(line_map.size())) {
    return 0;
  }
  return line_map[static_cast<std::size_t>(original_line) - 1];
}

namespace {

/// <cctype>'s isspace in the "C" locale, which the program never changes.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

}  // namespace

StripResult strip_comments(std::string_view source) {
  // One pass: each comment byte is written as a space (a newline inside a
  // block comment stays a newline), so kept code keeps its columns. At each
  // line's end the line is cut back to its last non-space byte, or dropped
  // (line_map 0) if nothing but space and comments is left.
  StripResult result;
  std::string& out = result.trimmed;
  out.reserve(source.size());
  const auto newlines = std::count(source.begin(), source.end(), '\n');
  result.line_map.reserve(static_cast<std::size_t>(newlines) + 1);
  int next_line = 1;
  std::size_t line_start = 0;  // where the current line begins in `out`
  std::size_t kept_end = 0;    // just past its last non-space byte
  const auto end_line = [&] {
    if (kept_end > line_start) {
      out.resize(kept_end);
      out.push_back('\n');
      result.line_map.push_back(next_line++);
    } else {
      out.resize(line_start);
      result.line_map.push_back(0);
    }
    line_start = kept_end = out.size();
  };
  const auto put = [&](char c) {
    if (c == '\n') {
      end_line();
      return;
    }
    out.push_back(c);
    if (!is_space(c)) kept_end = out.size();
  };

  enum class State { Code, Slash, Line, Block, BlockStar, Str, StrEsc, Chr, ChrEsc };
  State st = State::Code;
  for (char c : source) {
    switch (st) {
      case State::Code:
        if (c == '/') {
          st = State::Slash;
        } else {
          if (c == '"') st = State::Str;
          if (c == '\'') st = State::Chr;
          put(c);
        }
        break;
      case State::Slash:
        if (c == '/') {
          put(' ');
          put(' ');
          st = State::Line;
        } else if (c == '*') {
          put(' ');
          put(' ');
          st = State::Block;
        } else {
          put('/');
          put(c);
          if (c == '"') st = State::Str;
          else if (c == '\'') st = State::Chr;
          else st = State::Code;
        }
        break;
      case State::Line:
        if (c == '\n') {
          put('\n');
          st = State::Code;
        } else {
          put(' ');
        }
        break;
      case State::Block:
        if (c == '*') st = State::BlockStar;
        put(c == '\n' ? '\n' : ' ');
        break;
      case State::BlockStar:
        if (c == '/') {
          st = State::Code;
        } else if (c != '*') {
          st = State::Block;
        }
        put(c == '\n' ? '\n' : ' ');
        break;
      case State::Str:
        put(c);
        if (c == '\\') st = State::StrEsc;
        else if (c == '"') st = State::Code;
        break;
      case State::StrEsc:
        put(c);
        st = State::Str;
        break;
      case State::Chr:
        put(c);
        if (c == '\\') st = State::ChrEsc;
        else if (c == '\'') st = State::Code;
        break;
      case State::ChrEsc:
        put(c);
        st = State::Chr;
        break;
    }
  }
  if (st == State::Slash) put('/');
  // A last line without its newline is a line too.
  if (!source.empty() && source.back() != '\n') end_line();
  return result;
}

std::vector<std::string> extract_comments(std::string_view src) {
  std::vector<std::string> comments;
  enum class State { Code, Slash, Line, Block, BlockStar, Str, StrEsc, Chr, ChrEsc };
  State st = State::Code;
  std::string current;
  for (char c : src) {
    switch (st) {
      case State::Code:
        if (c == '/') st = State::Slash;
        else if (c == '"') st = State::Str;
        else if (c == '\'') st = State::Chr;
        break;
      case State::Slash:
        if (c == '/') {
          st = State::Line;
          current.clear();
        } else if (c == '*') {
          st = State::Block;
          current.clear();
        } else if (c == '"') {
          st = State::Str;
        } else if (c == '\'') {
          st = State::Chr;
        } else if (c != '/') {
          st = State::Code;
        }
        break;
      case State::Line:
        if (c == '\n') {
          comments.push_back(current);
          st = State::Code;
        } else {
          current.push_back(c);
        }
        break;
      case State::Block:
        if (c == '*') st = State::BlockStar;
        else current.push_back(c);
        break;
      case State::BlockStar:
        if (c == '/') {
          comments.push_back(current);
          st = State::Code;
        } else if (c == '*') {
          current.push_back('*');
        } else {
          current.push_back('*');
          current.push_back(c);
          st = State::Block;
        }
        break;
      case State::Str:
        if (c == '\\') st = State::StrEsc;
        else if (c == '"') st = State::Code;
        break;
      case State::StrEsc: st = State::Str; break;
      case State::Chr:
        if (c == '\\') st = State::ChrEsc;
        else if (c == '\'') st = State::Code;
        break;
      case State::ChrEsc: st = State::Chr; break;
    }
  }
  if (st == State::Line) comments.push_back(current);
  return comments;
}

}  // namespace drbml::minic
