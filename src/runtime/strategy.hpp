// Scheduling strategies pluggable into CoopScheduler.
//
// PctDecider implements the PCT algorithm (Burckhardt et al., "A
// Randomized Scheduler with Probabilistic Guarantees of Finding Bugs",
// ASPLOS 2010): every worker gets a distinct random priority, the highest
// -priority runnable worker always runs, and d-1 priority-change points
// sampled over the expected step count demote whoever is running when
// they fire. A bug of depth d is found with probability at least
// 1/(n * k^(d-1)) per schedule, independent of how unlikely the ordering
// is under uniform random scheduling.
//
// ReplayDecider re-executes a recorded RegionTrace. A full trace replays
// the original schedule bit-identically; an arbitrary subsequence (as
// produced by the witness minimizer) still yields a well-defined
// deterministic schedule, with a lowest-index fallback wherever the trace
// has no instruction.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/sched.hpp"
#include "support/rng.hpp"

namespace drbml::runtime {

class PctDecider : public SchedDecider {
 public:
  /// `depth`: PCT bug depth d (d-1 change points per region).
  /// `expected_steps`: estimate k of the region's step count; change
  /// points are sampled uniformly from [1, k].
  PctDecider(std::uint64_t seed, int depth, std::uint64_t expected_steps);

  void begin(int workers) override;
  bool should_preempt(std::uint64_t step, int current,
                      const std::vector<int>& ready_peers) override;
  /// The next unfired change point: until then priorities only move at
  /// switches, so a "no" stays a "no".
  [[nodiscard]] std::uint64_t quiet_until(std::uint64_t step) const override;
  int pick(const std::vector<int>& ready, int current, std::uint64_t step,
           bool forced) override;
  [[nodiscard]] bool filter_spinners() const override { return true; }

  /// Current priority of a worker (tests/debugging).
  [[nodiscard]] int priority(int worker) const {
    return priorities_[static_cast<std::size_t>(worker)];
  }

 private:
  Rng rng_;
  int depth_;
  std::uint64_t expected_steps_;
  std::vector<int> priorities_;
  std::vector<std::uint64_t> change_points_;  // ascending
  std::size_t fired_ = 0;
};

class ReplayDecider : public SchedDecider {
 public:
  explicit ReplayDecider(RegionTrace trace) : trace_(std::move(trace)) {}

  void begin(int workers) override;
  bool should_preempt(std::uint64_t step, int current,
                      const std::vector<int>& ready_peers) override;
  /// The step of the next trace entry: only a voluntary entry at exactly
  /// the current step can preempt.
  [[nodiscard]] std::uint64_t quiet_until(std::uint64_t step) const override;
  int pick(const std::vector<int>& ready, int current, std::uint64_t step,
           bool forced) override;

  /// Entries consumed so far (tests/debugging).
  [[nodiscard]] std::size_t consumed() const { return pos_; }

 private:
  /// Drops entries that can no longer fire (their step is in the past).
  void skip_stale(std::uint64_t step);

  RegionTrace trace_;
  std::size_t pos_ = 0;
};

}  // namespace drbml::runtime
