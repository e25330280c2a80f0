// Witness minimization: ddmin over a racy schedule's decision trace.
//
// Replay of an arbitrary subsequence of a recorded trace is a total,
// deterministic function (ReplayDecider falls back to the lowest-index
// runnable worker wherever the trace has no instruction), so classic
// delta debugging applies directly: drop decision chunks, keep the subset
// whenever the race still reproduces. The result is by construction a
// subsequence of the original trace.
#pragma once

#include <functional>

#include "runtime/sched.hpp"

namespace drbml::explore {

struct MinimizeResult {
  runtime::ScheduleTrace trace;
  int replays = 0;  // predicate evaluations spent
  /// Whether `still_races` was called with `trace` and returned true. When
  /// false, `trace` is the original: ddmin accepted no candidate.
  bool replayed = false;
};

/// ddmin over the decisions of `original`. `still_races` must replay a
/// candidate trace and report whether the race reproduces; it is called
/// at most `max_replays` times (the search stops early at the budget and
/// returns the best trace found so far).
[[nodiscard]] MinimizeResult minimize_trace(
    const runtime::ScheduleTrace& original,
    const std::function<bool(const runtime::ScheduleTrace&)>& still_races,
    int max_replays);

}  // namespace drbml::explore
