#include <algorithm>
#include <cmath>
#include <fstream>

#include "bench.hpp"
#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {
const std::uint64_t g_main_entry_ns = drbml::obs::now_wall_ns();
}  // namespace

std::vector<Input> corpus_inputs() {
  std::vector<Input> out;
  for (const drbml::drb::CorpusEntry& e : drbml::drb::corpus()) {
    out.push_back(Input{e.name, drbml::drb::drb_code(e), e.race, true});
  }
  return out;
}

std::vector<Input> synth_inputs(int count, std::uint64_t seed,
                                double race_fraction) {
  drbml::drb::SynthConfig cfg;
  cfg.count = count;
  cfg.seed = seed;
  cfg.race_fraction = race_fraction;
  std::vector<Input> out;
  for (drbml::drb::SynthEntry& e : drbml::drb::synthesize(cfg)) {
    out.push_back(Input{std::move(e.name), std::move(e.code), e.race, false});
  }
  return out;
}

void shuffle(std::vector<Input>& inputs, std::uint64_t seed) {
  drbml::Rng rng(drbml::hash_combine(seed, 0x5bd1e995ULL));
  for (std::size_t i = inputs.size(); i > 1; --i) {
    std::swap(inputs[i - 1], inputs[rng.below(i)]);
  }
}

std::uint64_t digest(const std::vector<Input>& inputs) {
  std::uint64_t h = 0;
  for (const Input& in : inputs) {
    h = drbml::hash_combine(h, drbml::fnv1a64(in.name));
    h = drbml::hash_combine(h, drbml::fnv1a64(in.code));
  }
  return h;
}

std::uint64_t now_ns() { return drbml::obs::now_wall_ns(); }

Windows::Windows(const Config& cfg) {
  const int n = cfg.trace ? 10 : 1;
  const auto total_ns = static_cast<std::uint64_t>(cfg.seconds * 1e9);
  for (int i = 0; i < n; ++i) {
    windows_.push_back(Window{
        Slice{cfg.trace && i % 2 == 1, total_ns / static_cast<std::uint64_t>(n)}, 0, 0});
  }
}

double Windows::ops_per_s(bool traced) const {
  std::uint64_t ops = 0, ns = 0;
  for (const Window& w : windows_) {
    if (w.slice.traced != traced) continue;
    ops += w.ops;
    ns += w.ns;
  }
  return ns == 0 ? 0.0 : static_cast<double>(ops) * 1e9 / static_cast<double>(ns);
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, values.size());
  return values[idx - 1];
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

namespace {

/// p50 and p99 of `values`, with the number of values above the p99.
Timings percentiles(std::vector<double> values) {
  Timings out;
  out.p50_ms = percentile(values, 50);
  out.p99_ms = percentile(values, 99);
  out.samples = values.size();
  out.beyond_p99 = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), out.p99_ms));
  return out;
}

}  // namespace

Timings per_input_timings(const std::vector<Reservoir>& inputs) {
  std::vector<double> typical;
  double pass_ms = 0;
  for (const Reservoir& r : inputs) {
    if (r.seen() == 0) continue;
    typical.push_back(interquartile_mean(r.values()));
    pass_ms += typical.back();
  }
  Timings out = percentiles(typical);
  out.ops_per_s = pass_ms > 0 ? static_cast<double>(out.samples) * 1e3 / pass_ms : 0.0;
  return out;
}

Timings round_timings(std::vector<double> latencies_ms, double ops_per_s) {
  Timings out = percentiles(std::move(latencies_ms));
  out.ops_per_s = ops_per_s;
  return out;
}

Timings over_rounds(const std::vector<Timings>& rounds) {
  std::vector<double> ops, p50, p99;
  Timings out;
  for (const Timings& r : rounds) {
    ops.push_back(r.ops_per_s);
    p50.push_back(r.p50_ms);
    p99.push_back(r.p99_ms);
    out.samples += r.samples;
    out.beyond_p99 = ops.size() == 1 ? r.beyond_p99 : std::min(out.beyond_p99, r.beyond_p99);
  }
  out.ops_per_s = interquartile_mean(std::move(ops));
  out.p50_ms = interquartile_mean(std::move(p50));
  out.p99_ms = interquartile_mean(std::move(p99));
  return out;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the parent's memory that was resident between fork and exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
    }
  }
  return 0.0;
}

void Report::metric(const std::string& name, double value, const char* unit) {
  json::Object m;
  m.set("value", json::Value(value));
  m.set("unit", json::Value(unit));
  metrics.set(name, json::Value(std::move(m)));
}

void Report::check(bool ok, const std::string& what) {
  if (!ok && check_failures.size() < 20) check_failures.push_back(what);
}

void end_to_end(Report& report, const Windows& windows, const Timings& timings,
                const Calibration& calibration) {
  const double speed = calibration.speed();
  report.check(speed > 0, "no calibration unit ran in the timed phase");
  report.metric("ops_per_s", speed > 0 ? timings.ops_per_s / speed : 0.0, "1/s");
  report.metric("latency_p50_ms", timings.p50_ms * speed, "ms");
  report.metric("latency_p99_ms", timings.p99_ms * speed, "ms");
  report.metric("setup_s", report.setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  json::Object raw;
  raw.set("ops_per_s", json::Value(timings.ops_per_s));
  raw.set("latency_p50_ms", json::Value(timings.p50_ms));
  raw.set("latency_p99_ms", json::Value(timings.p99_ms));
  report.meta.set("raw", json::Value(std::move(raw)));
  report.meta.set("host_speed", json::Value(speed));
  report.meta.set("calibration_units",
                  json::Value(static_cast<std::int64_t>(calibration.units())));
  report.meta.set("calibration_checksum",
                  json::Value(std::to_string(calibration.checksum())));
  report.meta.set("mean_ops_per_s", json::Value(windows.ops_per_s(false)));
  report.meta.set("latency_samples",
                  json::Value(static_cast<std::int64_t>(timings.samples)));
  report.meta.set("beyond_p99", json::Value(static_cast<std::int64_t>(timings.beyond_p99)));
}

namespace {

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> out;
  for (const drbml::obs::MetricDesc* d : drbml::obs::metric_catalog()) {
    if (d->kind == drbml::obs::MetricKind::Counter) {
      out[d->name] = drbml::obs::metrics().counter(*d).value();
    }
  }
  return out;
}

}  // namespace

void CounterDeltas::open() { at_open_ = counter_values(); }

void CounterDeltas::close() {
  for (const auto& [name, value] : counter_values()) {
    sum_[name] += static_cast<double>(value - at_open_[name]);
  }
}

double CounterDeltas::get(const std::string& name) const {
  const auto it = sum_.find(name);
  return it == sum_.end() ? 0.0 : it->second;
}

double CounterDeltas::sum_matching(const std::string& prefix,
                                   const std::string& suffix) const {
  double total = 0;
  for (auto it = sum_.lower_bound(prefix);
       it != sum_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string& name = it->first;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second;
    }
  }
  return total;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"minic.parse_ms", "ms/op"},
      {"minic.kb_per_s", "KiB/s"},
      {"analysis.resolve_ms", "ms/op"},
      {"analysis.static_ms", "ms/op"},
      {"analysis.candidate_pairs", "count/op"},
      {"analysis.discharge_ratio", "ratio"},
      {"explore.entry_ms", "ms/op"},
      {"explore.self_ms", "ms/op"},
      {"explore.schedules", "count/op"},
      {"explore.coverage_per_schedule", "count"},
      {"explore.minimize_ms", "ms/op"},
      {"explore.minimize_replays", "count/op"},
      {"explore.witness_shrink", "ratio"},
      {"runtime.run_ms", "ms/op"},
      {"runtime.compile_ms", "ms/op"},
      {"runtime.steps", "count/op"},
      {"runtime.ns_per_step", "ns"},
      {"runtime.fallback_sites", "count/op"},
      {"serve.admit_ms", "ms/op"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.execute_p50_ms", "ms"},
      {"serve.execute_p99_ms", "ms"},
      {"serve.execute_self_ms", "ms/op"},
      {"serve.respond_ms", "ms/op"},
      {"serve.rejected", "count"},
      {"eval.cache.hit_ratio", "ratio"},
      {"eval.compute.static_ms", "ms/op"},
      {"eval.compute.dynamic_ms", "ms/op"},
      {"eval.compute.lint_ms", "ms/op"},
      {"eval.compute.explore_ms", "ms/op"},
      {"eval.compute.repair_ms", "ms/op"},
      {"eval.cache.evictions", "count/op"},
      {"eval.cache.reclaimed", "count/op"},
      {"eval.cache.resident_mb", "MB"},
      {"repair.verify_ms", "ms/op"},
      {"repair.accept_ratio", "ratio"},
      {"lint.run_ms", "ms/op"},
      {"unattributed_ms", "ms/op"},
      {"trace_overhead", "ratio"},
  };
  return kMetrics;
}

void per_layer(Report& report, const std::map<std::string, double>& values) {
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = values.find(m.name);
    report.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

std::map<std::string, double> layer_values(const Ledger& ledger,
                                           const CounterDeltas& counters,
                                           const Windows& windows) {
  std::map<std::string, double> v;
  for (const auto& [layer, ns] : ledger.self_ns) v[layer] = ledger.self_ms_per_op(layer);
  const double per_op = ledger.ops > 0 ? 1.0 / static_cast<double>(ledger.ops) : 0.0;
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  const double candidates = counters.get("analysis.candidate_pairs");
  v["analysis.candidate_pairs"] = candidates * per_op;
  v["analysis.discharge_ratio"] =
      ratio(counters.sum_matching("analysis.discharged."), candidates);
  const double schedules = counters.get("explore.schedules");
  v["explore.schedules"] = schedules * per_op;
  v["explore.coverage_per_schedule"] =
      ratio(counters.get("explore.coverage.new"), schedules);
  v["explore.minimize_replays"] = counters.get("explore.minimize.replays") * per_op;
  v["runtime.fallback_sites"] = counters.get("vm.fallback_sites") * per_op;
  const double probes = counters.sum_matching("cache.", ".probe");
  v["eval.cache.hit_ratio"] =
      ratio(probes - counters.sum_matching("cache.", ".compute"), probes);
  v["eval.cache.evictions"] = counters.get("cache.evict.count") * per_op;
  v["eval.cache.reclaimed"] = counters.get("cache.reclaimed") * per_op;
  v["repair.accept_ratio"] =
      ratio(counters.get("repair.accepted"), counters.get("repair.candidates"));
  v["serve.rejected"] = counters.get("serve.responses.error");
  v["unattributed_ms"] = ledger.unattributed_ns / 1e6 * per_op;
  v["trace_overhead"] =
      1.0 - ratio(windows.ops_per_s(true), windows.ops_per_s(false));
  return v;
}

void finish_traced(Report& report, const Config& cfg, const SpanLog& log,
                   const Ledger& ledger,
                   const std::map<std::string, double>& values) {
  per_layer(report, values);
  report.meta.set("traced_ops", json::Value(static_cast<std::int64_t>(ledger.ops)));
  report.meta.set("orphan_spans",
                  json::Value(static_cast<std::int64_t>(ledger.orphans)));
  if (!cfg.trace_out.empty()) {
    report.check(log.write_chrome_json(cfg.trace_out),
                 "cannot write trace file " + cfg.trace_out);
  }
}

void finish_setup(Report& report, const Config& cfg) {
  const std::uint64_t start = cfg.spawn_ns != 0 ? cfg.spawn_ns : g_main_entry_ns;
  const double raw_s = static_cast<double>(now_ns() - start) / 1e9;
  // 200 ms of bursts: about ten timed units.
  Calibration calibration;
  calibration.bursts_for(200'000'000);
  report.setup_s = raw_s * calibration.speed();
  report.meta.set("raw_setup_s", json::Value(raw_s));
  report.meta.set("setup_host_speed", json::Value(calibration.speed()));
}

}  // namespace perfbench
