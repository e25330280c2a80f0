// Scheduling policies for CoopScheduler, one SchedDecider each, built per
// team by make_decider. UniformDecider is the seeded uniform random walk:
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
#include <memory>
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

/// The decider for the team of a run's `region_index`-th parallel region
/// (0-based, in dynamic order), seeded from the run's seed and the index.
[[nodiscard]] std::unique_ptr<SchedDecider> make_decider(
    const RunOptions& opts, std::size_t region_index);

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

 private:
  /// Drops entries that can no longer fire (their step is in the past).
  void skip_stale(std::uint64_t step);

  RegionTrace trace_;
  std::size_t pos_ = 0;
};

}  // namespace drbml::runtime
