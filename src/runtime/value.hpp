// Runtime values for the Mini-C interpreter.
#pragma once

#include <cstdint>
#include <string>

namespace drbml::runtime {

/// A pointer value: object id + element offset.
struct ObjRef {
  int object = -1;
  std::int64_t offset = 0;

  [[nodiscard]] bool valid() const noexcept { return object >= 0; }
  friend bool operator==(const ObjRef&, const ObjRef&) = default;
};

/// A dynamically typed scalar: integer, floating, or pointer.
///
/// Sixteen bytes: the first word holds the kind and, for pointers, the
/// object id; the second holds the integer, the double, or the pointer's
/// element offset. The payload is a union read only through the
/// kind-checked accessors below.
class Value {
 public:
  enum class Kind : std::int32_t { Int, Double, Ptr };

  Value() = default;
  static Value of_int(std::int64_t v) {
    Value x;
    x.i_ = v;
    return x;
  }
  static Value of_double(double v) {
    Value x;
    x.kind_ = Kind::Double;
    x.d_ = v;
    return x;
  }
  static Value of_ptr(ObjRef p) {
    Value x;
    x.kind_ = Kind::Ptr;
    x.object_ = p.object;
    x.i_ = p.offset;
    return x;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_ptr() const noexcept { return kind_ == Kind::Ptr; }

  /// Numeric coercions follow C semantics (truncation / promotion).
  [[nodiscard]] std::int64_t as_int() const noexcept {
    switch (kind_) {
      case Kind::Int: return i_;
      case Kind::Double: return static_cast<std::int64_t>(d_);
      case Kind::Ptr: return object_ >= 0 ? 1 : 0;
    }
    return 0;
  }
  [[nodiscard]] double as_double() const noexcept {
    switch (kind_) {
      case Kind::Int: return static_cast<double>(i_);
      case Kind::Double: return d_;
      case Kind::Ptr: return object_ >= 0 ? 1.0 : 0.0;
    }
    return 0.0;
  }
  [[nodiscard]] ObjRef as_ptr() const noexcept {
    return kind_ == Kind::Ptr ? ObjRef{object_, i_} : ObjRef{};
  }
  [[nodiscard]] bool truthy() const noexcept {
    switch (kind_) {
      case Kind::Int: return i_ != 0;
      case Kind::Double: return d_ != 0.0;
      case Kind::Ptr: return object_ >= 0;
    }
    return false;
  }

  [[nodiscard]] std::string to_string() const {
    switch (kind_) {
      case Kind::Int: return std::to_string(i_);
      case Kind::Double: return std::to_string(d_);
      case Kind::Ptr:
        return object_ >= 0 ? "&obj" + std::to_string(object_) + "[" +
                                  std::to_string(i_) + "]"
                            : "nullptr";
    }
    return "?";
  }

 private:
  Kind kind_ = Kind::Int;
  std::int32_t object_ = -1;  // Ptr only
  union {
    std::int64_t i_ = 0;  // Int; Ptr: element offset
    double d_;            // Double
  };
};

static_assert(sizeof(Value) == 16, "Value must stay two words");

}  // namespace drbml::runtime
