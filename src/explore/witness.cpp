#include "explore/witness.hpp"

#include <climits>
#include <cstdint>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace drbml::explore {

namespace {

constexpr std::string_view kMagic = "drbml-witness-v1";

std::uint64_t parse_u64(std::string_view s, const char* what) {
  if (s.empty()) throw Error(std::string("witness: empty ") + what);
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      throw Error(std::string("witness: malformed ") + what + " '" +
                  std::string(s) + "'");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      throw Error(std::string("witness: overflowing ") + what);
    }
    v = v * 10 + digit;
  }
  return v;
}

/// parse_u64, then rejects values outside [lo, hi].
int parse_int(std::string_view s, const char* what, int lo, int hi) {
  const std::uint64_t v = parse_u64(s, what);
  if (v < static_cast<std::uint64_t>(lo) ||
      v > static_cast<std::uint64_t>(hi)) {
    throw Error(std::string("witness: ") + what + " out of range: " +
                std::string(s));
  }
  return static_cast<int>(v);
}

}  // namespace

std::string encode_witness(const Witness& w) {
  std::string out(kMagic);
  out += ";threads=" + std::to_string(w.num_threads);
  out += ";preempt=" + std::to_string(w.preempt_every);
  out += ";limit=" + std::to_string(w.step_limit);
  for (const auto& region : w.trace.regions) {
    out += ";region=";
    bool first = true;
    for (const auto& d : region) {
      if (!first) out += ',';
      first = false;
      out += d.forced ? 'f' : 'v';
      out += std::to_string(d.step);
      out += ':';
      out += std::to_string(d.target);
    }
  }
  return out;
}

Witness decode_witness(std::string_view text) {
  const std::vector<std::string> fields =
      split(trim(text), ';');
  if (fields.empty() || fields.front() != kMagic) {
    throw Error("witness: missing '" + std::string(kMagic) + "' header");
  }
  Witness w;
  bool saw_threads = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string& field = fields[i];
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw Error("witness: field without '=': '" + field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "threads") {
      w.num_threads = parse_int(value, "threads", 1, 16);
      saw_threads = true;
    } else if (key == "preempt") {
      w.preempt_every = parse_int(value, "preempt", 1, INT_MAX);
    } else if (key == "limit") {
      // Every witness this tool writes carries the default limit; a larger
      // one would let the string alone set how long a replay runs.
      w.step_limit = parse_u64(value, "limit");
      if (w.step_limit > runtime::RunOptions{}.step_limit) {
        throw Error("witness: limit out of range");
      }
    } else if (key == "region") {
      runtime::RegionTrace region;
      if (!value.empty()) {
        for (const std::string& item : split(value, ',')) {
          if (item.size() < 2 || (item[0] != 'f' && item[0] != 'v')) {
            throw Error("witness: malformed decision '" + item + "'");
          }
          const std::size_t colon = item.find(':');
          if (colon == std::string::npos || colon + 1 >= item.size()) {
            throw Error("witness: malformed decision '" + item + "'");
          }
          runtime::ScheduleDecision d;
          d.forced = item[0] == 'f';
          d.step = parse_u64(
              std::string_view(item).substr(1, colon - 1), "step");
          d.target = parse_int(std::string_view(item).substr(colon + 1),
                               "target", 0, INT_MAX);
          region.push_back(d);
        }
      }
      w.trace.regions.push_back(std::move(region));
    } else {
      throw Error("witness: unknown field '" + key + "'");
    }
  }
  if (!saw_threads) throw Error("witness: missing threads field");
  return w;
}

runtime::RunOptions witness_run_options(const Witness& w,
                                        const runtime::RunOptions& base) {
  runtime::RunOptions run = base;
  run.num_threads = w.num_threads;
  run.preempt_every = w.preempt_every;
  run.step_limit = w.step_limit;
  run.strategy = runtime::ScheduleStrategy::Replay;
  run.replay = &w.trace;
  run.capture_trace = false;
  return run;
}

}  // namespace drbml::explore
