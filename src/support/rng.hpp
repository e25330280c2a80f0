// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in drbml (model-persona noise, interleaving
// schedules, fold shuffles, dropout masks) flows through Rng instances seeded
// from stable string keys, so experiments are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace drbml {

/// xoshiro256** seeded via SplitMix64. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Seeds from a string key, e.g. "table3/gpt4/p1/DRB001".
  static Rng from_key(std::string_view key) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept;

  /// Uniform in [0, n). n must be > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Standard normal via Box-Muller.
  [[nodiscard]] double normal() noexcept;

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double p) noexcept;

  /// Fisher-Yates shuffle of a vector, a span or any other indexable
  /// range with size().
  template <typename Range>
  void shuffle(Range&& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace drbml
