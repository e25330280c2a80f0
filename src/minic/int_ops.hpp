// Mini-C's 64-bit integer operators. The dynamic runtime and the static
// detector's constant folders (consteval, affine) all evaluate `+ - * / %
// << >>` and unary `-` on 64-bit integers through these functions, so the
// detectors agree on every value and no operand makes the host trap or
// hit undefined behaviour:
//   - `+`, `-`, `*` and unary `-` wrap in two's complement;
//   - shift counts are taken mod 64 (as the x86-64 shift instructions do),
//     and `>>` is arithmetic;
//   - `/` and `%` report a zero divisor, and INT64_MIN / -1 (or % -1),
//     whose quotient is not representable, instead of computing it.
#pragma once

#include <cstdint>
#include <limits>

namespace drbml::minic {

[[nodiscard]] constexpr std::int64_t int_add(std::int64_t a,
                                             std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] constexpr std::int64_t int_sub(std::int64_t a,
                                             std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] constexpr std::int64_t int_mul(std::int64_t a,
                                             std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] constexpr std::int64_t int_neg(std::int64_t a) noexcept {
  return int_sub(0, a);
}

[[nodiscard]] constexpr std::int64_t int_shl(std::int64_t a,
                                             std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                   << (static_cast<std::uint64_t>(b) & 63U));
}

[[nodiscard]] constexpr std::int64_t int_shr(std::int64_t a,
                                             std::int64_t b) noexcept {
  return a >> (static_cast<std::uint64_t>(b) & 63U);
}

/// Outcome of `/` or `%`: the value, or why there is none.
struct IntQuotient {
  enum class Status { Ok, ZeroDivisor, NotRepresentable };
  std::int64_t value = 0;
  Status status = Status::Ok;

  [[nodiscard]] constexpr bool ok() const noexcept {
    return status == Status::Ok;
  }
};

[[nodiscard]] constexpr IntQuotient int_div(std::int64_t a,
                                            std::int64_t b) noexcept {
  if (b == 0) return {0, IntQuotient::Status::ZeroDivisor};
  if (b == -1 && a == std::numeric_limits<std::int64_t>::min()) {
    return {0, IntQuotient::Status::NotRepresentable};
  }
  return {a / b, IntQuotient::Status::Ok};
}

[[nodiscard]] constexpr IntQuotient int_mod(std::int64_t a,
                                            std::int64_t b) noexcept {
  if (b == 0) return {0, IntQuotient::Status::ZeroDivisor};
  if (b == -1 && a == std::numeric_limits<std::int64_t>::min()) {
    return {0, IntQuotient::Status::NotRepresentable};
  }
  return {a % b, IntQuotient::Status::Ok};
}

}  // namespace drbml::minic
