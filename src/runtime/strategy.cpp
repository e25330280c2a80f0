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

namespace {

/// The seed of the `strategy` decider (Uniform or Pct) for the team of a
/// run's `region_index`-th parallel region, from the run's seed.
std::uint64_t region_seed(ScheduleStrategy strategy, std::uint64_t run_seed,
                          std::size_t region_index) {
  const std::uint64_t seed =
      mix64(run_seed * 0x9e3779b97f4a7c15ULL + region_index + 1);
  return strategy == ScheduleStrategy::Pct
             ? mix64(seed ^ 0x7063742d73656564ULL)  // "pct-seed"
             : seed;
}

/// PCT's draws for one team, which PctDecider and PctPlan both take from
/// here: the base priorities d .. d+n-1 (n = priorities.size()) randomly
/// permuted, then the d-1 change points (change_points.size()) uniform in
/// [1, expected_steps], ascending. Change-point demotions use values
/// below d, so a demoted worker ranks under every base priority.
void draw_pct_plan(Rng& rng, int depth, std::uint64_t expected_steps,
                   std::span<int> priorities,
                   std::span<std::uint64_t> change_points) {
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    priorities[i] = depth + static_cast<int>(i);
  }
  rng.shuffle(priorities);
  for (std::uint64_t& c : change_points) c = rng.below(expected_steps) + 1;
  std::sort(change_points.begin(), change_points.end());
}

}  // namespace

SchedDecider& Deciders::for_region(const RunOptions& opts,
                                   std::size_t region_index) {
  const std::uint64_t seed =
      region_seed(opts.strategy, opts.seed, region_index);
  switch (opts.strategy) {
    case ScheduleStrategy::Uniform:
      uniform_ = UniformDecider(seed, opts.preempt_every);
      return uniform_;
    case ScheduleStrategy::Pct:
      pct_.reset(seed, opts.pct_depth, opts.pct_expected_steps);
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
  priorities_.resize(static_cast<std::size_t>(workers));
  change_points_.resize(static_cast<std::size_t>(depth_ - 1));
  draw_pct_plan(rng_, depth_, expected_steps_, priorities_, change_points_);
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

PctPlan PctPlan::draw(std::uint64_t run_seed, std::size_t region_index,
                      int depth, std::uint64_t expected_steps, int workers) {
  // PctDecider's own seed, clamps and draws.
  Rng rng(region_seed(ScheduleStrategy::Pct, run_seed, region_index));
  PctPlan plan;
  plan.workers = workers;
  plan.change_count = std::max(depth, 1) - 1;
  draw_pct_plan(
      rng, std::max(depth, 1), std::max<std::uint64_t>(expected_steps, 1),
      std::span(plan.priorities).first(static_cast<std::size_t>(workers)),
      std::span(plan.change_points)
          .first(static_cast<std::size_t>(plan.change_count)));
  return plan;
}

bool PctPlan::agrees_with(const PctPlan& other, std::uint64_t steps) const {
  if (!std::equal(priorities.begin(), priorities.begin() + workers,
                  other.priorities.begin())) {
    return false;
  }
  // Both lists ascend: they agree up to `steps` when they agree entry by
  // entry until both pass it.
  for (int i = 0; i < change_count; ++i) {
    const std::uint64_t mine = change_points[static_cast<std::size_t>(i)];
    const std::uint64_t theirs =
        other.change_points[static_cast<std::size_t>(i)];
    if (mine > steps && theirs > steps) break;
    if (mine != theirs) return false;
  }
  return true;
}

void PctPlans::reset(const RunOptions& opts) {
  seed_ = opts.seed;
  depth_ = opts.pct_depth;
  expected_steps_ = opts.pct_expected_steps;
  by_region_.clear();
}

const PctPlan& PctPlans::draw(std::size_t region_index, int workers) {
  if (by_region_.size() <= region_index) by_region_.resize(region_index + 1);
  PctPlan& plan = by_region_[region_index];
  plan = PctPlan::draw(seed_, region_index, depth_, expected_steps_, workers);
  return plan;
}

bool repeats_run(const RunOptions& a, std::span<const TeamRecord> a_regions,
                 PctPlans& a_plans, const RunOptions& b, PctPlans& b_plans) {
  if (!same_prefix_options(a, b) || a.strategy != b.strategy ||
      a.pct_depth != b.pct_depth ||
      a.pct_expected_steps != b.pct_expected_steps) {
    return false;
  }
  if (a_regions.empty()) return true;  // no decision taken
  if (a.strategy != ScheduleStrategy::Pct ||
      a.pct_depth - 1 > PctPlan::kMaxChangePoints) {
    return false;
  }
  // By induction over the regions: equal answers in regions before r give
  // equal runs up to region r, so r's team has a_regions[r]'s size there
  // too, and takes its steps when its answers are equal as well.
  for (std::size_t r = 0; r < a_regions.size(); ++r) {
    const TeamRecord& team = a_regions[r];
    if (!a_plans.plan(r, team.workers)
             .agrees_with(b_plans.plan(r, team.workers), team.steps)) {
      return false;
    }
  }
  return true;
}

}  // namespace drbml::runtime
