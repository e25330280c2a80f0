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
//
// repeats_run is the repeat rule: it says, from the options of two runs
// and the teams the first one forked, whether the second would exactly
// repeat the first, so that the explorer and the dynamic detector skip
// runs whose outcome they already have (docs/INTERNALS.md, "Repeated
// schedules").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
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

/// Largest team a parallel region forks: the runtime clamps a region's
/// thread count to [1, kMaxTeamSize].
inline constexpr int kMaxTeamSize = 16;

/// What one parallel region's team amounted to in a run: its size and the
/// steps its scheduler took (up to the abort when the team faulted). A run
/// records one per region it entered, in dynamic region order
/// (CompiledProgram::regions).
struct TeamRecord {
  int workers = 0;
  std::uint64_t steps = 0;

  friend bool operator==(const TeamRecord&, const TeamRecord&) = default;
};

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

/// The plan PctDecider draws for one team, in fixed arrays.
struct PctPlan {
  /// Change points a plan holds at most (PCT depth 8). repeats_run treats
  /// runs of a greater depth as repeating nothing.
  static constexpr int kMaxChangePoints = 7;

  /// The plan of the team of `workers` workers in region `region_index` of
  /// a PCT run with this seed, depth (at most kMaxChangePoints + 1) and
  /// expected steps: what the run's decider draws when the team begins.
  [[nodiscard]] static PctPlan draw(std::uint64_t run_seed,
                                    std::size_t region_index, int depth,
                                    std::uint64_t expected_steps,
                                    int workers);

  /// Whether a team under this plan and one under `other` (of as many
  /// workers and change points) get the same answers from their deciders
  /// over `steps` steps: equal priorities, and equal change points up to
  /// `steps`, since no query of such a team comes at a later step.
  [[nodiscard]] bool agrees_with(const PctPlan& other,
                                 std::uint64_t steps) const;

  int workers = 0;  // 0: not drawn
  int change_count = 0;
  std::array<int, kMaxTeamSize> priorities{};
  std::array<std::uint64_t, kMaxChangePoints> change_points{};  // ascending
};

/// The PCT plans of one run's teams, drawn when repeats_run first asks for
/// them and kept until the next reset, so that a run compared with many
/// others draws each plan once.
class PctPlans {
 public:
  /// Forgets every plan; later ones are drawn for a run under `opts`.
  void reset(const RunOptions& opts);

  /// The plan of the team of `workers` workers in region `region_index`.
  /// Valid until the next call.
  [[nodiscard]] const PctPlan& plan(std::size_t region_index, int workers) {
    if (region_index < by_region_.size() &&
        by_region_[region_index].workers == workers) {
      return by_region_[region_index];
    }
    return draw(region_index, workers);
  }

 private:
  const PctPlan& draw(std::size_t region_index, int workers);

  std::uint64_t seed_ = 0;
  int depth_ = 1;
  std::uint64_t expected_steps_ = 1;
  std::vector<PctPlan> by_region_;
};

/// The repeat rule: whether a run under `b` would exactly repeat a
/// finished run under `a` whose regions' teams were `a_regions` -- the same
/// decisions, steps, coverage, report, output, exit code and fault.
/// `a_plans` and `b_plans` must have been reset with `a` and `b`; they
/// keep the plans the rule draws.
///
/// The two runs must agree on the options that shape a run's prefix
/// (PrefixSnapshot), the strategy, the PCT depth and the expected steps.
/// Then a run that forked no team took no schedule decision and repeats
/// under any seed. Otherwise only PCT runs repeat: for every region of
/// `a`, `b`'s decider must draw the same priorities for a team of that
/// size and the same change points up to the team's steps. Uniform walks
/// and replays draw or read their picks as they go, so they never repeat
/// a run that forked a team. Capture flags only decide what a result
/// records, and are not compared.
[[nodiscard]] bool repeats_run(const RunOptions& a,
                               std::span<const TeamRecord> a_regions,
                               PctPlans& a_plans, const RunOptions& b,
                               PctPlans& b_plans);

}  // namespace drbml::runtime
