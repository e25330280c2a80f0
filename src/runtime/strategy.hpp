// Scheduling policies for CoopScheduler, one SchedDecider each, re-seeded
// per team by Deciders. UniformDecider is the seeded uniform random walk:
// preempt at every preempt_every-th yield point, hand the token to a
// uniformly random ready peer.
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

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "runtime/sched.hpp"
#include "support/rng.hpp"

namespace drbml::runtime {

struct RunOptions;

/// How parallel regions are scheduled: the seeded uniform random walk,
/// PCT priority schedules, or replay of a recorded ScheduleTrace.
enum class ScheduleStrategy { Uniform, Pct, Replay };

/// "uniform", "pct" or "replay".
[[nodiscard]] const char* strategy_name(ScheduleStrategy s);

/// Parses "uniform"/"pct", the strategies selectable by name (replay
/// needs a recorded trace); throws Error otherwise.
[[nodiscard]] ScheduleStrategy parse_strategy(std::string_view name);

class UniformDecider : public SchedDecider {
 public:
  /// `preempt_every`: preempt at every this-many-th yield point (values
  /// below 1 mean 1).
  UniformDecider(std::uint64_t seed, int preempt_every);

  bool should_preempt(std::uint64_t step, int current,
                      const std::vector<int>& ready_peers) override;
  /// The step of the next preempt_every-th yield point.
  [[nodiscard]] std::uint64_t quiet_until(std::uint64_t step) const override;
  /// A blocked step is no yield point. It draws once from the RNG, a pick
  /// it discards, which the walk's later picks depend on.
  void blocked(const std::vector<int>& ready_peers) override;
  /// A uniformly random ready worker; the initial grant goes to the
  /// lowest index without a draw.
  int pick(const std::vector<int>& ready, int current, std::uint64_t step,
           bool forced) override;

 private:
  /// Yield points up to `step`: the steps not spent blocked.
  [[nodiscard]] std::uint64_t yields(std::uint64_t step) const {
    return step - blocked_;
  }

  Rng rng_;
  std::uint64_t preempt_every_;
  std::uint64_t blocked_ = 0;
};

class PctDecider : public SchedDecider {
 public:
  /// `depth`: PCT bug depth d (d-1 change points per region).
  /// `expected_steps`: estimate k of the region's step count; change
  /// points are sampled uniformly from [1, k].
  PctDecider(std::uint64_t seed, int depth, std::uint64_t expected_steps);

  /// Starts over as PctDecider(seed, depth, expected_steps) would, keeping
  /// the capacity of its buffers.
  void reset(std::uint64_t seed, int depth, std::uint64_t expected_steps);

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
  Rng rng_{0};
  int depth_ = 1;
  std::uint64_t expected_steps_ = 1;
  std::vector<int> priorities_;
  std::vector<std::uint64_t> change_points_;  // ascending
  std::size_t fired_ = 0;
};

class ReplayDecider : public SchedDecider {
 public:
  /// Replays nothing: every pick is the lowest-index fallback.
  ReplayDecider() = default;
  /// `trace` is not owned and must outlive the decider's teams.
  explicit ReplayDecider(const RegionTrace& trace) : trace_(&trace) {}
  ReplayDecider(RegionTrace&&) = delete;

  /// Replays `trace` from its start (null: no entries, so every pick is
  /// the lowest-index fallback).
  void reset(const RegionTrace* trace) {
    trace_ = trace;
    pos_ = 0;
  }

  void begin(int workers) override;
  bool should_preempt(std::uint64_t step, int current,
                      const std::vector<int>& ready_peers) override;
  /// The step of the next trace entry: only a voluntary entry at exactly
  /// the current step can preempt.
  [[nodiscard]] std::uint64_t quiet_until(std::uint64_t step) const override;
  int pick(const std::vector<int>& ready, int current, std::uint64_t step,
           bool forced) override;

 private:
  /// Drops entries that can no longer fire (their step is in the past).
  void skip_stale(std::uint64_t step);
  [[nodiscard]] std::size_t entries() const noexcept {
    return trace_ != nullptr ? trace_->size() : 0;
  }
  [[nodiscard]] const ScheduleDecision& entry(std::size_t i) const {
    return (*trace_)[i];
  }

  const RegionTrace* trace_ = nullptr;
  std::size_t pos_ = 0;
};

/// One decider of each strategy, re-seeded for every team, so that the
/// teams of a run and the runs of a program reuse them.
class Deciders {
 public:
  /// The decider for the team of a run's `region_index`-th parallel region
  /// (0-based, in dynamic order), seeded from the run's seed and the index.
  /// Valid until the next call.
  [[nodiscard]] SchedDecider& for_region(const RunOptions& opts,
                                         std::size_t region_index);

 private:
  UniformDecider uniform_{0, 1};
  PctDecider pct_{0, 1, 1};
  ReplayDecider replay_;
};

}  // namespace drbml::runtime
