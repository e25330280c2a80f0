// pct-campaign: long PCT schedule exploration, one explore_source call per
// operation. Closed loop on one thread (the fibers run on the calling
// thread). The plateau cut is off, so every race-free program runs the
// whole budget and coverage tracking cannot change the amount of work.
#include <exception>
#include <unordered_map>

#include "bench.hpp"
#include "explore/explore.hpp"
#include "explore/witness.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

// Few racy kernels keep the median inside the race-free population, which
// runs the whole budget, instead of on its border with racy programs,
// which stop at the first race. With 1000 kernels the six corpus programs
// that take 10-20 ms are half a percent of the operations, so the p99
// falls among the larger race-free programs rather than on their border.
constexpr int kSynthKernels = 1000;
constexpr double kRaceFraction = 0.15;
// Latency samples kept per input; each input recurs about every 1.7 s.
constexpr std::size_t kSamplesPerInput = 32;

drbml::explore::ExploreOptions campaign_options() {
  drbml::explore::ExploreOptions opts;
  opts.strategy = drbml::explore::Strategy::Pct;
  opts.max_schedules = 24;
  opts.plateau_window = 0;
  opts.minimize = true;
  return opts;
}

}  // namespace

Report run_pct_campaign(const Config& cfg) {
  Report report;
  std::vector<Input> inputs = corpus_inputs();
  if (cfg.tiny) inputs.resize(16);
  for (Input& in : synth_inputs(cfg.tiny ? 16 : kSynthKernels, cfg.seed,
                                kRaceFraction)) {
    inputs.push_back(std::move(in));
  }
  shuffle(inputs, cfg.seed);
  report.meta.set("inputs", json::Value(static_cast<std::int64_t>(inputs.size())));
  report.meta.set("inputs_digest", json::Value(std::to_string(digest(inputs))));

  const drbml::explore::ExploreOptions opts = campaign_options();
  const int tid = drbml::obs::thread_id();

  // Warm-up: one untimed pass; a set-up-only run reports its operations.
  for (const Input& in : inputs) {
    ++report.attempted;
    try {
      (void)drbml::explore::explore_source(in.code, opts);
    } catch (const std::exception&) {
      ++report.failed;
    }
  }
  Windows windows(cfg);
  std::vector<Reservoir> latency(inputs.size(), Reservoir(kSamplesPerInput));
  finish_setup(report, cfg);
  if (cfg.setup_only) return report;
  report.attempted = 0;
  report.failed = 0;

  SpanLog log;
  CounterDeltas counters;
  Calibration calibration;  // untraced runs
  std::unordered_map<std::size_t, std::string> witnesses;  // input -> witness
  double traced_steps = 0, traced_original = 0, traced_witness = 0;
  std::int64_t next_op = 0;
  std::size_t pos = 0;
  for (Windows::Window& window : windows.all()) {
    const Slice& slice = window.slice;
    if (slice.traced) {
      log.begin_traced_slice();
      counters.open();
    }
    const std::uint64_t start = now_ns();
    const std::uint64_t stop = start + slice.ns;
    std::uint64_t now = start;
    std::uint64_t ops = 0;
    std::uint64_t burst_ns = 0;
    while (now < stop) {
      const std::size_t idx = pos++ % inputs.size();
      const Input& in = inputs[idx];
      ++report.attempted;
      ++ops;
      const std::uint64_t t0 = now_ns();
      drbml::explore::ExploreResult r;
      try {
        r = drbml::explore::explore_source(in.code, opts);
      } catch (const std::exception&) {
        ++report.failed;
        now = now_ns();
        continue;
      }
      now = now_ns();
      report.verdict(r.race_detected == in.race, in);
      if (slice.traced) {
        log.add("op", t0, now, tid, next_op++);
        for (const auto& s : r.schedules) traced_steps += static_cast<double>(s.steps);
        traced_original += static_cast<double>(r.original_decisions);
        traced_witness += static_cast<double>(r.witness_decisions);
      } else {
        latency[idx].record(t0, now);
      }
      if (r.race_detected) {
        const auto [it, fresh] = witnesses.emplace(idx, r.witness);
        report.check(fresh || it->second == r.witness,
                     "witness changed between runs of " + in.name);
      }
      if (!cfg.trace) burst_ns += calibration.maybe_burst();
    }
    window.ops = ops;
    window.ns = now - start - burst_ns;
    if (slice.traced) {
      counters.close();
      log.end_traced_slice();
    }
  }

  // Untimed: every witness must decode, replay, and still race.
  for (const auto& [idx, text] : witnesses) {
    const Input& in = inputs[idx];
    try {
      const drbml::explore::Witness w = drbml::explore::decode_witness(text);
      report.check(drbml::explore::replay_witness(in.code, w).report.race_detected,
                   "witness of " + in.name + " no longer races on replay");
    } catch (const std::exception& e) {
      report.check(false, "witness of " + in.name + ": " + e.what());
    }
  }
  report.meta.set("witnesses_replayed",
                  json::Value(static_cast<std::int64_t>(witnesses.size())));

  if (!cfg.trace) {
    end_to_end(report, windows, per_input_timings(latency), calibration);
    return report;
  }
  const Ledger ledger = build_ledger(
      log.spans(), {{"explore.entry", "explore.self_ms"},
                    {"explore.schedule", "runtime.run_ms"},
                    {"vm.compile", "runtime.compile_ms"},
                    {"explore.minimize", "explore.minimize_ms"}});
  std::map<std::string, double> v = layer_values(ledger, counters, windows);
  const double ops = static_cast<double>(ledger.ops);
  v["explore.entry_ms"] = ledger.total_ms_per_op("op");
  v["explore.witness_shrink"] =
      traced_original > 0 ? traced_witness / traced_original : 0.0;
  v["runtime.steps"] = ops > 0 ? traced_steps / ops : 0.0;
  v["runtime.ns_per_step"] =
      traced_steps > 0 ? v["runtime.run_ms"] * 1e6 * ops / traced_steps : 0.0;
  finish_traced(report, cfg, log, ledger, v);
  return report;
}

}  // namespace perfbench
