#include "explore/minimize.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace drbml::explore {

namespace {

/// A decision addressed by (region, index-within-region); minimization
/// works on the flat list but rebuilds per-region traces for replay.
struct Slot {
  std::size_t region;
  std::size_t index;
};

runtime::ScheduleTrace rebuild(const runtime::ScheduleTrace& original,
                               const std::vector<Slot>& kept) {
  runtime::ScheduleTrace t;
  t.regions.resize(original.regions.size());
  for (const Slot& s : kept) {
    t.regions[s.region].push_back(original.regions[s.region][s.index]);
  }
  return t;
}

}  // namespace

MinimizeResult minimize_trace(
    const runtime::ScheduleTrace& original,
    const std::function<bool(const runtime::ScheduleTrace&)>& still_races,
    int max_replays) {
  std::vector<Slot> items;
  for (std::size_t r = 0; r < original.regions.size(); ++r) {
    for (std::size_t i = 0; i < original.regions[r].size(); ++i) {
      items.push_back({r, i});
    }
  }

  MinimizeResult result;
  auto races = [&](const std::vector<Slot>& kept) {
    ++result.replays;
    return still_races(rebuild(original, kept));
  };

  // Races that reproduce under the pure fallback schedule need no
  // decisions at all; ddmin alone can only get down to one item.
  if (!items.empty() && result.replays < max_replays && races({})) {
    items.clear();
    result.replayed = true;
  }

  std::size_t granularity = 2;
  while (items.size() >= 2 && result.replays < max_replays) {
    const std::size_t chunk =
        std::max<std::size_t>(1, items.size() / granularity);
    bool reduced = false;
    for (std::size_t start = 0;
         start < items.size() && result.replays < max_replays;
         start += chunk) {
      // Try the complement of items[start, start+chunk).
      std::vector<Slot> candidate;
      candidate.reserve(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(items[i]);
      }
      if (candidate.size() == items.size()) continue;
      if (races(candidate)) {
        items = std::move(candidate);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        result.replayed = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= items.size()) break;
      granularity = std::min(items.size(), granularity * 2);
    }
  }

  result.trace = rebuild(original, items);
  return result;
}

}  // namespace drbml::explore
