#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/hash.hpp"

namespace drbml::json {

std::size_t Object::position(std::string_view key) const noexcept {
  if (index_.empty()) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i].first == key) return i;
    }
    return members_.size();
  }
  const std::size_t mask = index_.size() - 1;
  for (std::size_t h = fnv1a64(key) & mask;; h = (h + 1) & mask) {
    const std::uint32_t e = index_[h];
    if (e == 0) return members_.size();
    if (members_[e - 1].first == key) return e - 1;
  }
}

void Object::index_member(std::size_t i) {
  const std::size_t mask = index_.size() - 1;
  std::size_t h = fnv1a64(members_[i].first) & mask;
  while (index_[h] != 0) h = (h + 1) & mask;
  index_[h] = static_cast<std::uint32_t>(i + 1);
}

void Object::rehash(std::size_t slots) {
  index_.assign(slots, 0);
  for (std::size_t i = 0; i < members_.size(); ++i) index_member(i);
}

void Object::set(std::string key, Value value) {
  if (const std::size_t i = position(key); i < members_.size()) {
    members_[i].second = std::move(value);
    return;
  }
  members_.emplace_back(std::move(key), std::move(value));
  if (index_.empty()) {
    if (members_.size() > kScan) rehash(4 * kScan);
  } else if (2 * members_.size() > index_.size()) {
    rehash(2 * index_.size());  // at most half full
  } else {
    index_member(members_.size() - 1);
  }
}

bool Object::contains(std::string_view key) const noexcept {
  return find(key) != nullptr;
}

const Value& Object::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw JsonError("missing key: " + std::string(key));
}

const Value* Object::find(std::string_view key) const noexcept {
  const std::size_t i = position(key);
  return i < members_.size() ? &members_[i].second : nullptr;
}

Value* Object::find(std::string_view key) noexcept {
  const std::size_t i = position(key);
  return i < members_.size() ? &members_[i].second : nullptr;
}

void Value::copy_from(const Value& other) {
  type_ = other.type_;
  bool_ = other.bool_;
  int_ = other.int_;
  double_ = other.double_;
  string_ = other.string_;
  array_ = other.array_;
  object_ = other.object_ ? std::make_unique<Object>(*other.object_) : nullptr;
}

bool Value::as_bool() const {
  if (!is_bool()) throw JsonError("not a bool");
  return bool_;
}

std::int64_t Value::as_int() const {
  if (is_int()) return int_;
  throw JsonError("not an integer");
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(int_);
  if (is_double()) return double_;
  throw JsonError("not a number");
}

const std::string& Value::as_string() const {
  if (!is_string()) throw JsonError("not a string");
  return string_;
}

const Array& Value::as_array() const {
  if (!is_array()) throw JsonError("not an array");
  return array_;
}

Array& Value::as_array() {
  if (!is_array()) throw JsonError("not an array");
  return array_;
}

const Object& Value::as_object() const {
  if (!is_object() || !object_) throw JsonError("not an object");
  return *object_;
}

Object& Value::as_object() {
  if (!is_object() || !object_) throw JsonError("not an object");
  return *object_;
}

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

namespace {

void append_int(std::string& out, std::int64_t i) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
}

}  // namespace

Writer& Writer::open(char bracket) {
  separate();
  out_.push_back(bracket);
  need_comma_ = false;
  return *this;
}

Writer& Writer::close(char bracket) {
  out_.push_back(bracket);
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  separate();
  out_.push_back('"');
  append_escaped(out_, k);
  out_ += "\":";
  need_comma_ = false;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  separate();
  out_.push_back('"');
  append_escaped(out_, s);
  out_.push_back('"');
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(std::int64_t i) {
  separate();
  append_int(out_, i);
  need_comma_ = true;
  return *this;
}

void Value::dump_impl(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent) * depth, ' ')
                 : std::string();
  const std::string pad_in =
      indent > 0
          ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ')
          : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  const char* kv_sep = indent > 0 ? ": " : ":";

  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: append_int(out, int_); break;
    case Type::Double: {
      if (std::isfinite(double_)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        out += buf;
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      break;
    }
    case Type::String:
      out.push_back('"');
      append_escaped(out, string_);
      out.push_back('"');
      break;
    case Type::Array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad_in;
        array_[i].dump_impl(out, indent, depth + 1);
        if (i + 1 != array_.size()) out.push_back(',');
        out += nl;
      }
      out += pad;
      out.push_back(']');
      break;
    }
    case Type::Object: {
      if (!object_ || object_->empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      out += nl;
      std::size_t i = 0;
      for (const auto& [k, v] : *object_) {
        out += pad_in;
        out.push_back('"');
        append_escaped(out, k);
        out.push_back('"');
        out += kv_sep;
        v.dump_impl(out, indent, depth + 1);
        if (++i != object_->size()) out.push_back(',');
        out += nl;
      }
      out += pad;
      out.push_back('}');
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_impl(out, 0, 0);
  return out;
}

std::string Value::dump_pretty() const {
  std::string out;
  dump_impl(out, 2, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonError("json: " + msg + " at offset " + std::to_string(pos_));
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  char get() {
    char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() noexcept {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote or backslash in one piece.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
        ++end;
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (get() == '"') break;
      const char e = get();  // after a backslash
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = get();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // Encode as UTF-8 (basic multilingual plane only; surrogate
          // pairs in dataset text never occur).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    bool is_double = false;
    while (!eof()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-" || tok == "+") fail("invalid number");
    if (!is_double) {
      std::int64_t iv = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Value(iv);
    }
    double dv = 0.0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), dv);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      fail("invalid number");
    }
    return Value(dv);
  }

  /// Counts one more level of nesting for the container that starts at
  /// the current byte; fails at that byte past kMaxDepth.
  void enter() {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
  }

  Value parse_array() {
    enter();
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      get();
    } else {
      for (;;) {
        arr.push_back(parse_value());
        skip_ws();
        char c = get();
        if (c == ']') break;
        if (c != ',') fail("expected ',' or ']'");
      }
    }
    --depth_;
    return Value(std::move(arr));
  }

  Value parse_object() {
    enter();
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      get();
    } else {
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        obj.set(std::move(key), parse_value());
        skip_ws();
        char c = get();
        if (c == '}') break;
        if (c != ',') fail("expected ',' or '}'");
      }
    }
    --depth_;
    return Value(std::move(obj));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace drbml::json
