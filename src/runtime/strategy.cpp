#include "runtime/strategy.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "runtime/interp.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace drbml::runtime {

const char* strategy_name(ScheduleStrategy s) {
  switch (s) {
    case ScheduleStrategy::Uniform: return "uniform";
    case ScheduleStrategy::Pct: return "pct";
    case ScheduleStrategy::Replay: return "replay";
  }
  return "?";
}

ScheduleStrategy parse_strategy(std::string_view name) {
  if (name == "uniform") return ScheduleStrategy::Uniform;
  if (name == "pct") return ScheduleStrategy::Pct;
  throw Error("unknown exploration strategy '" + std::string(name) +
              "' (expected uniform|pct)");
}

SchedDecider& Deciders::for_region(const RunOptions& opts,
                                   std::size_t region_index) {
  const std::uint64_t region_seed =
      mix64(opts.seed * 0x9e3779b97f4a7c15ULL + region_index + 1);
  switch (opts.strategy) {
    case ScheduleStrategy::Uniform:
      uniform_ = UniformDecider(region_seed, opts.preempt_every);
      return uniform_;
    case ScheduleStrategy::Pct:
      pct_.reset(mix64(region_seed ^ 0x7063742d73656564ULL), opts.pct_depth,
                 opts.pct_expected_steps);
      return pct_;
    case ScheduleStrategy::Replay:
      break;
  }
  replay_.reset(opts.replay != nullptr &&
                        region_index < opts.replay->regions.size()
                    ? &opts.replay->regions[region_index]
                    : nullptr);
  return replay_;
}

UniformDecider::UniformDecider(std::uint64_t seed, int preempt_every)
    : rng_(seed),
      preempt_every_(static_cast<std::uint64_t>(std::max(preempt_every, 1))) {}

bool UniformDecider::should_preempt(std::uint64_t step, int current,
                                    const std::vector<int>& ready_peers) {
  (void)current;
  (void)ready_peers;
  return yields(step) % preempt_every_ == 0;
}

std::uint64_t UniformDecider::quiet_until(std::uint64_t step) const {
  // Until the next blocked step, every step is a yield point.
  return step + preempt_every_ - yields(step) % preempt_every_;
}

void UniformDecider::blocked(const std::vector<int>& ready_peers) {
  ++blocked_;
  (void)rng_.below(ready_peers.size());
}

int UniformDecider::pick(const std::vector<int>& ready, int current,
                         std::uint64_t step, bool forced) {
  (void)step;
  (void)forced;
  if (current < 0) return ready.front();
  return ready[rng_.below(ready.size())];
}

PctDecider::PctDecider(std::uint64_t seed, int depth,
                       std::uint64_t expected_steps) {
  reset(seed, depth, expected_steps);
}

void PctDecider::reset(std::uint64_t seed, int depth,
                       std::uint64_t expected_steps) {
  rng_ = Rng(seed);
  depth_ = depth < 1 ? 1 : depth;
  expected_steps_ = expected_steps < 1 ? 1 : expected_steps;
  priorities_.clear();
  change_points_.clear();
  fired_ = 0;
}

void PctDecider::begin(int workers) {
  // Distinct base priorities d .. d+n-1, randomly permuted. Change-point
  // demotions use values below d, so a demoted worker ranks under every
  // base priority.
  priorities_.resize(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    priorities_[static_cast<std::size_t>(i)] = depth_ + i;
  }
  rng_.shuffle(priorities_);
  change_points_.clear();
  for (int i = 0; i + 1 < depth_; ++i) {
    change_points_.push_back(
        static_cast<std::uint64_t>(rng_.below(expected_steps_)) + 1);
  }
  std::sort(change_points_.begin(), change_points_.end());
  fired_ = 0;
}

bool PctDecider::should_preempt(std::uint64_t step, int current,
                                const std::vector<int>& ready_peers) {
  bool demoted = false;
  while (fired_ < change_points_.size() && change_points_[fired_] <= step) {
    // Demote the running worker below every base priority; each firing
    // uses a fresh, strictly smaller value so priorities stay distinct.
    priorities_[static_cast<std::size_t>(current)] =
        -1 - static_cast<int>(fired_);
    ++fired_;
    demoted = true;
  }
  if (ready_peers.empty()) return false;
  int best = priorities_[static_cast<std::size_t>(ready_peers.front())];
  for (int w : ready_peers) {
    best = std::max(best, priorities_[static_cast<std::size_t>(w)]);
  }
  return demoted || best > priorities_[static_cast<std::size_t>(current)];
}

std::uint64_t PctDecider::quiet_until(std::uint64_t step) const {
  // should_preempt(step) fired every change point <= step.
  (void)step;
  return fired_ < change_points_.size()
             ? change_points_[fired_]
             : std::numeric_limits<std::uint64_t>::max();
}

int PctDecider::pick(const std::vector<int>& ready, int current,
                     std::uint64_t step, bool forced) {
  (void)current;
  (void)step;
  (void)forced;
  int chosen = ready.front();
  for (int w : ready) {
    if (priorities_[static_cast<std::size_t>(w)] >
        priorities_[static_cast<std::size_t>(chosen)]) {
      chosen = w;
    }
  }
  return chosen;
}

void ReplayDecider::begin(int workers) {
  (void)workers;
  pos_ = 0;
}

void ReplayDecider::skip_stale(std::uint64_t step) {
  while (pos_ < entries() && entry(pos_).step < step) ++pos_;
}

bool ReplayDecider::should_preempt(std::uint64_t step, int current,
                                   const std::vector<int>& ready_peers) {
  (void)current;
  (void)ready_peers;
  skip_stale(step);
  return pos_ < entries() && !entry(pos_).forced && entry(pos_).step == step;
}

std::uint64_t ReplayDecider::quiet_until(std::uint64_t step) const {
  // should_preempt(step) skipped the stale entries, so entry(pos_) (if
  // any) is at `step` or later.
  return pos_ < entries() ? std::max(step + 1, entry(pos_).step)
                          : std::numeric_limits<std::uint64_t>::max();
}

int ReplayDecider::pick(const std::vector<int>& ready, int current,
                        std::uint64_t step, bool forced) {
  (void)current;
  skip_stale(step);
  // Deterministic fallback when the trace has no instruction here: the
  // lowest-index runnable worker. Minimized traces rely on this being a
  // total function of (program, remaining trace).
  const int fallback = ready.front();
  if (pos_ < entries() && entry(pos_).step == step &&
      entry(pos_).forced == forced) {
    const int target = entry(pos_).target;
    ++pos_;
    if (std::find(ready.begin(), ready.end(), target) != ready.end()) {
      return target;
    }
    return fallback;
  }
  return fallback;
}

}  // namespace drbml::runtime
