// Vector clocks for happens-before race detection.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace drbml::runtime {

/// A vector clock over logical thread ids. Grows on demand; missing
/// entries read as zero. The first kInline entries live in the object, so
/// the clocks of a run's first threads never touch the heap; entries past
/// them live in a vector, whose capacity a copy-assignment reuses.
///
/// Invariant: inline entries at or past size() are zero, and `rest_`
/// holds exactly the entries from kInline up to size().
class VectorClock {
 public:
  static constexpr std::size_t kInline = 16;

  [[nodiscard]] std::uint32_t get(int tid) const noexcept {
    if (tid < 0) return 0;
    const auto i = static_cast<std::size_t>(tid);
    if (i < kInline) return inline_[i];
    return i < size_ ? rest_[i - kInline] : 0;
  }

  void set(int tid, std::uint32_t v) {
    ensure(tid);
    at(static_cast<std::size_t>(tid)) = v;
  }

  void tick(int tid) {
    ensure(tid);
    ++at(static_cast<std::size_t>(tid));
  }

  /// Pointwise maximum (join).
  void join(const VectorClock& o) {
    if (o.size_ > size_) resize(o.size_);
    const std::size_t head = std::min(o.size_, kInline);
    for (std::size_t i = 0; i < head; ++i) {
      inline_[i] = std::max(inline_[i], o.inline_[i]);
    }
    for (std::size_t i = 0; i < o.rest_.size(); ++i) {
      rest_[i] = std::max(rest_[i], o.rest_[i]);
    }
  }

  /// True if this clock happens-before-or-equals `o` (pointwise <=).
  [[nodiscard]] bool leq(const VectorClock& o) const noexcept {
    const std::size_t head = std::min(size_, kInline);
    for (std::size_t i = 0; i < head; ++i) {
      if (inline_[i] > o.inline_[i]) return false;
    }
    for (std::size_t i = 0; i < rest_.size(); ++i) {
      if (rest_[i] > o.get(static_cast<int>(kInline + i))) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Back to the empty clock, keeping the capacity of the entries past
  /// kInline.
  void clear() noexcept {
    std::fill(inline_, inline_ + kInline, 0u);
    rest_.clear();
    size_ = 0;
  }

 private:
  [[nodiscard]] std::uint32_t& at(std::size_t i) {
    return i < kInline ? inline_[i] : rest_[i - kInline];
  }

  void ensure(int tid) {
    if (tid >= 0 && static_cast<std::size_t>(tid) >= size_) {
      resize(static_cast<std::size_t>(tid) + 1);
    }
  }

  void resize(std::size_t n) {
    if (n > kInline) rest_.resize(n - kInline, 0);
    size_ = n;
  }

  std::uint32_t inline_[kInline] = {};
  std::size_t size_ = 0;
  std::vector<std::uint32_t> rest_;
};

/// An epoch: one thread's scalar clock value (FastTrack's compact form for
/// the common last-write case).
struct Epoch {
  int tid = -1;
  std::uint32_t clock = 0;

  [[nodiscard]] bool valid() const noexcept { return tid >= 0; }
  /// True if the epoch happens-before the clock `c`.
  [[nodiscard]] bool before(const VectorClock& c) const noexcept {
    return !valid() || clock <= c.get(tid);
  }
};

}  // namespace drbml::runtime
