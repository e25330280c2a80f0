// Minimal JSON document model, parser, and serializers.
//
// Objects preserve insertion order so emitted DRB-ML files match the key
// order of the paper's Table 1 schema. Numbers distinguish integers from
// doubles to round-trip dataset labels exactly. Writer streams compact
// JSON without building a Value tree; it and Value::dump escape strings
// with one routine, append_escaped.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace drbml::json {

class Value;

using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;

/// Order-preserving object. Lookup is linear while the object is small,
/// as DRB-ML objects and serve requests are; past kScan members a hash
/// index over the keys takes over, so that parsing an object of N keys
/// costs O(N), not O(N^2) key compares.
class Object {
 public:
  Object() = default;

  /// Inserts, or overwrites the value of a key already present, which
  /// keeps its first position.
  void set(std::string key, Value value);

  [[nodiscard]] bool contains(std::string_view key) const noexcept;

  /// Throws JsonError if absent.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Returns nullptr if absent.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  [[nodiscard]] Value* find(std::string_view key) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }

  [[nodiscard]] auto begin() const noexcept { return members_.begin(); }
  [[nodiscard]] auto end() const noexcept { return members_.end(); }
  /// Iteration may change values, never keys (the index holds them).
  [[nodiscard]] auto begin() noexcept { return members_.begin(); }
  [[nodiscard]] auto end() noexcept { return members_.end(); }

 private:
  /// Members up to which lookups scan instead of using the index.
  static constexpr std::size_t kScan = 8;

  /// The position of `key` in members_, or members_.size() when absent.
  [[nodiscard]] std::size_t position(std::string_view key) const noexcept;
  void index_member(std::size_t i);
  void rehash(std::size_t slots);

  std::vector<Member> members_;
  /// Open addressing over members_: position + 1, 0 for an empty slot.
  /// Empty until the object passes kScan members.
  std::vector<std::uint32_t> index_;
};

enum class Type { Null, Bool, Int, Double, String, Array, Object };

/// A JSON value (tagged union).
class Value {
 public:
  Value() : type_(Type::Null) {}
  Value(std::nullptr_t) : type_(Type::Null) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(int i) : type_(Type::Int), int_(i) {}
  Value(std::int64_t i) : type_(Type::Int), int_(i) {}
  Value(double d) : type_(Type::Double), double_(d) {}
  Value(const char* s) : type_(Type::String), string_(s) {}
  Value(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Value(std::string_view s) : type_(Type::String), string_(s) {}
  Value(Array a) : type_(Type::Array), array_(std::move(a)) {}
  Value(Object o)
      : type_(Type::Object), object_(std::make_unique<Object>(std::move(o))) {}

  Value(const Value& other) { copy_from(other); }
  Value& operator=(const Value& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;
  ~Value() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_int() const noexcept { return type_ == Type::Int; }
  [[nodiscard]] bool is_double() const noexcept { return type_ == Type::Double; }
  [[nodiscard]] bool is_number() const noexcept {
    return is_int() || is_double();
  }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::Object; }

  /// Accessors throw JsonError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;  // accepts Int too
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Serializes compactly (no whitespace).
  [[nodiscard]] std::string dump() const;

  /// Serializes with 2-space indentation.
  [[nodiscard]] std::string dump_pretty() const;

 private:
  void copy_from(const Value& other);
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  std::unique_ptr<Object> object_;
};

/// Arrays and objects nested deeper than this fail to parse. The parser
/// recurses once per level; without a bound, one request line of nested
/// brackets overflowed an 8 MiB stack at about 23,000 levels in a Release
/// build and at about 2,250 under ASan+UBSan. The deepest document the
/// repository reads, a DRB-ML record, nests four levels deep; a serve
/// request nests one.
inline constexpr int kMaxDepth = 256;

/// Parses a JSON document. Throws JsonError on malformed input, naming
/// the byte offset where parsing stopped, and on nesting deeper than
/// kMaxDepth.
[[nodiscard]] Value parse(std::string_view text);

/// Appends `s` to `out` with JSON string escapes (without quotes). Each
/// run of bytes that needs no escape is appended in one piece.
void append_escaped(std::string& out, std::string_view s);

/// Escapes a string for embedding in JSON output (without quotes).
[[nodiscard]] std::string escape(std::string_view s);

/// Streams compact JSON -- the bytes Value::dump would write for the same
/// document -- onto the end of a string, with no Value tree in between.
/// The caller pairs every begin_* with its end_* and puts key() before
/// each member's value; the writer places the commas and colons.
class Writer {
 public:
  explicit Writer(std::string& out) noexcept : out_(out) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b);
  Writer& value(std::int64_t i);
  Writer& value(int i) { return value(static_cast<std::int64_t>(i)); }

 private:
  /// Writes the comma that separates this value or key from the last.
  void separate() {
    if (need_comma_) out_.push_back(',');
  }
  Writer& open(char bracket);
  Writer& close(char bracket);

  std::string& out_;
  bool need_comma_ = false;
};

}  // namespace drbml::json
