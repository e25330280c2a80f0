// static-sweep: what `drbml analyze --detector static` runs, split into
// its three public calls so each layer is timed. Closed loop on one
// thread, no cache; inputs are the corpus plus seeded synthetic kernels.
#include <exception>

#include "analysis/race.hpp"
#include "analysis/resolve.hpp"
#include "bench.hpp"
#include "minic/parser.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr int kSynthKernels = 1600;
// Latency samples kept per input; each input recurs about 8 times a
// second.
constexpr std::size_t kSamplesPerInput = 32;
// Untimed passes before the timed phase. One pass took about 0.1 s, and
// on a shared host its set-up times varied by a quarter within a run;
// four average over more of the host's second-to-second swings.
constexpr int kWarmupPasses = 4;

}  // namespace

Report run_static_sweep(const Config& cfg) {
  Report report;
  std::vector<Input> inputs = corpus_inputs();
  if (cfg.tiny) inputs.resize(24);
  for (Input& in : synth_inputs(cfg.tiny ? 24 : kSynthKernels, cfg.seed, 0.5)) {
    inputs.push_back(std::move(in));
  }
  shuffle(inputs, cfg.seed);
  report.meta.set("inputs", json::Value(static_cast<std::int64_t>(inputs.size())));
  report.meta.set("inputs_digest", json::Value(std::to_string(digest(inputs))));

  const drbml::analysis::StaticRaceDetector detector;
  const int tid = drbml::obs::thread_id();
  SpanLog log;
  std::int64_t next_op = 0;

  // One operation: parse, resolve, analyze, then free the AST, as
  // analyze_source does before it returns. Spans are recorded when traced;
  // the AST teardown is covered by no layer span.
  struct Outcome {
    bool race;
    std::uint64_t start, end;
  };
  const auto analyze = [&](const Input& in, bool traced) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t t1 = 0, t2 = 0, t3 = 0;
    bool race = false;
    {
      drbml::minic::Program prog = drbml::minic::parse_program(in.code);
      t1 = now_ns();
      [[maybe_unused]] const drbml::analysis::Resolution res =
          drbml::analysis::resolve(*prog.unit);
      t2 = now_ns();
      race = detector.analyze_unit(*prog.unit).race_detected;
      t3 = now_ns();
    }
    const std::uint64_t t4 = now_ns();
    if (traced) {
      const std::int64_t op = next_op++;
      log.add("op", t0, t4, tid, op);
      log.add("parse", t0, t1, tid, op);
      log.add("resolve", t1, t2, tid, op);
      log.add("analyze", t2, t3, tid, op);
    }
    return Outcome{race, t0, t4};
  };

  // Warm-up: untimed passes; a set-up-only run reports their operations.
  for (int pass = 0; pass < kWarmupPasses; ++pass) {
    for (const Input& in : inputs) {
      ++report.attempted;
      try {
        (void)analyze(in, false);
      } catch (const std::exception&) {
        ++report.failed;
      }
    }
  }
  Windows windows(cfg);
  std::vector<Reservoir> latency(inputs.size(), Reservoir(kSamplesPerInput));
  finish_setup(report, cfg);
  if (cfg.setup_only) return report;
  report.attempted = 0;
  report.failed = 0;

  CounterDeltas counters;
  Calibration calibration;  // untraced runs
  double traced_kib = 0;
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
      try {
        const Outcome o = analyze(in, slice.traced);
        now = o.end;
        report.verdict(o.race == in.race, in);
        if (slice.traced) {
          traced_kib += static_cast<double>(in.code.size()) / 1024.0;
        } else {
          latency[idx].record(o.start, o.end);
        }
      } catch (const std::exception&) {
        ++report.failed;
        now = now_ns();
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

  if (!cfg.trace) {
    end_to_end(report, windows, per_input_timings(latency), calibration);
    return report;
  }
  const Ledger ledger = build_ledger(
      log.spans(), {{"parse", "minic.parse_ms"},
                    {"resolve", "analysis.resolve_ms"},
                    {"analyze", "analysis.static_ms"}});
  std::map<std::string, double> v = layer_values(ledger, counters, windows);
  const auto parse = ledger.self_ns.find("minic.parse_ms");
  v["minic.kb_per_s"] = parse != ledger.self_ns.end() && parse->second > 0
                            ? traced_kib / (parse->second / 1e9)
                            : 0.0;
  finish_traced(report, cfg, log, ledger, v);
  return report;
}

}  // namespace perfbench
