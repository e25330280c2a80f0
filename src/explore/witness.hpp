// Compact textual encoding of a race witness: the run options that shape
// a schedule plus the recorded decision trace. A witness string is the
// replayable artifact the exploration engine ships with every reported
// race; `drbml explore --replay` turns it back into a bit-identical run.
#pragma once

#include <string>
#include <string_view>

#include "runtime/interp.hpp"
#include "runtime/sched.hpp"

namespace drbml::explore {

/// A replayable schedule witness. `trace` is typically the minimized
/// decision subsequence, but any trace (including a full recording)
/// round-trips through the codec.
struct Witness {
  int num_threads = 4;
  int preempt_every = 7;
  std::uint64_t step_limit = 2'000'000;
  runtime::ScheduleTrace trace;

  friend bool operator==(const Witness& a, const Witness& b) {
    return a.num_threads == b.num_threads &&
           a.preempt_every == b.preempt_every &&
           a.step_limit == b.step_limit && a.trace == b.trace;
  }
};

/// Encodes as a single line:
///   drbml-witness-v1;threads=4;preempt=7;limit=2000000;region=f0:1,v17:2;region=
/// Regions appear in dynamic region order; `f`/`v` mark forced/voluntary
/// decisions, followed by `<step>:<target>`.
[[nodiscard]] std::string encode_witness(const Witness& w);

/// Parses an encoded witness. Throws support's Error on malformed input.
[[nodiscard]] Witness decode_witness(std::string_view text);

/// RunOptions that replay this witness over `base` (strategy, replay
/// trace pointer, thread count and limits are overridden; the rest, such
/// as `module` and `collect_coverage`, is kept from `base`). The returned
/// options point into `w.trace`, so `w` must outlive the run.
[[nodiscard]] runtime::RunOptions witness_run_options(
    const Witness& w, const runtime::RunOptions& base);

}  // namespace drbml::explore
