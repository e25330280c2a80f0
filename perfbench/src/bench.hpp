// Shared pieces of the repository benchmark: run configuration, seeded
// inputs, measuring slices, latency statistics and the result record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "spans.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace json = drbml::json;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: alternate untraced and traced slices and report the
  /// per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Stop after set-up and report only its duration.
  bool setup_only = false;
  /// Small inputs, for the benchmark's self-test.
  bool tiny = false;
  /// CLOCK_MONOTONIC time (ns) at which the parent launched this process;
  /// 0 measures set-up from the benchmark's static initialisation.
  std::uint64_t spawn_ns = 0;
  /// Where a traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// One benchmark input: a program with its ground-truth race label.
struct Input {
  std::string name;
  std::string code;
  bool race = false;
  bool corpus = false;  // from the DataRaceBench-derived corpus
};

/// The DataRaceBench-derived corpus, in registration order.
[[nodiscard]] std::vector<Input> corpus_inputs();
/// Seeded synthetic kernels with labels known by construction.
[[nodiscard]] std::vector<Input> synth_inputs(int count, std::uint64_t seed,
                                              double race_fraction);
void shuffle(std::vector<Input>& inputs, std::uint64_t seed);
/// Order-sensitive hash of names and sources, so a result records which
/// inputs it measured.
[[nodiscard]] std::uint64_t digest(const std::vector<Input>& inputs);

/// Nanoseconds on the clock the program's obs spans use.
[[nodiscard]] std::uint64_t now_ns();

/// A measuring slice of the timed phase. An untraced run is one slice; a
/// traced run alternates ten untraced and traced slices so both see the
/// same drift, and their throughput ratio is the tracing overhead.
struct Slice {
  bool traced = false;
  std::uint64_t ns = 0;
};

/// Nearest-rank percentile (p in [0, 100]) of `values`; sorts in place.
[[nodiscard]] double percentile(std::vector<double>& values, double p);
/// Mean of the values between the first and the third quartile: it
/// averages over a host that drifts between speeds, as a mean does, but a
/// few stalled repetitions cannot move it.
[[nodiscard]] double interquartile_mean(std::vector<double> values);
/// Peak resident set of this process image, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// What one run of a workload measured and checked.
struct Report {
  double setup_s = 0;
  std::uint64_t attempted = 0;
  /// Operations that threw, got an error response, or gave a synthetic
  /// kernel the wrong verdict (its label is known by construction).
  std::uint64_t failed = 0;
  /// Wrong verdicts on corpus programs. The corpus has documented misses
  /// at every detector, so these are counted apart from `failed`, which
  /// stays 0 on a correct program whatever the throughput.
  std::uint64_t corpus_misses = 0;
  /// Output checks that failed; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  json::Object metrics;
  json::Object meta;

  void metric(const std::string& name, double value, const char* unit);
  void check(bool ok, const std::string& what);
  /// Counts a verdict that disagrees with the input's label.
  void verdict(bool matches, const Input& in) {
    if (!matches) ++(in.corpus ? corpus_misses : failed);
  }
};

/// A uniform sample of at most `capacity` latencies (reservoir sampling),
/// in storage allocated and touched up front, so the benchmark's own
/// memory is the same whatever the throughput and run length.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : values_ms_(capacity, 0.0f) {}

  void record(std::uint64_t start_ns, std::uint64_t end_ns) {
    const float ms = static_cast<float>(end_ns - start_ns) / 1e6f;
    if (++seen_ <= values_ms_.size()) {
      values_ms_[stored_++] = ms;
      return;
    }
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t j = (rng_ >> 11) % seen_;
    if (j < values_ms_.size()) values_ms_[j] = ms;
  }
  [[nodiscard]] std::vector<double> values() const {
    return std::vector<double>(values_ms_.begin(), values_ms_.begin() + stored_);
  }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

 private:
  std::vector<float> values_ms_;
  std::size_t stored_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

/// The slices of the timed phase and the operations each completed.
class Windows {
 public:
  struct Window {
    Slice slice;
    std::uint64_t ops = 0;
    std::uint64_t ns = 0;
  };

  explicit Windows(const Config& cfg);

  [[nodiscard]] std::vector<Window>& all() { return windows_; }
  [[nodiscard]] const std::vector<Window>& all() const { return windows_; }
  /// Throughput pooled over the traced or the untraced windows.
  [[nodiscard]] double ops_per_s(bool traced) const;

 private:
  std::vector<Window> windows_;
};

/// Host-speed calibration. A shared host runs the benchmark at speeds
/// that change by up to 2x within minutes as other tenants come and go,
/// which no run length averages out: on a 4-vCPU VM, ten consecutive
/// 30-second runs of pct-campaign's unchanged code read 556 to 1050
/// ops/s. So each run also times a fixed unit of the benchmark's own
/// work, in bursts between its operations, and reports its end-to-end
/// timings at the reference speed, the one at which a unit takes 10 ms:
/// raw throughput divided by speed(), raw times multiplied by it. The
/// unit never changes, so a program change moves the reported timings as
/// much as the raw ones. The raw timings go to the meta line.
class Calibration {
 public:
  Calibration();

  /// Runs a burst: one unit to warm the caches, then one timed unit.
  /// Returns the ns it took.
  std::uint64_t burst();
  /// Runs a burst when 300 ms have passed since the last one ended;
  /// returns the ns it took, or 0.
  std::uint64_t maybe_burst();
  /// Runs bursts back to back for `ns`.
  void bursts_for(std::uint64_t ns);
  /// Nominal unit time over the interquartile mean of the timed units:
  /// above 1 on a host faster than the reference; 0 before any burst.
  [[nodiscard]] double speed() const;
  [[nodiscard]] std::size_t units() const { return unit_ns_.size(); }
  /// Folds every unit's result, so none of the work can be elided.
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  std::uint64_t unit();

  std::vector<std::string> keys_;
  std::unique_ptr<std::byte[]> arena_;
  std::regex pattern_;
  std::vector<double> unit_ns_;
  std::uint64_t last_end_ = 0;
  std::uint64_t checksum_ = 0;
};

/// The end-to-end timings of an untraced run, raw (before calibration).
struct Timings {
  double ops_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  /// Samples behind the percentiles, and the fewest beyond a p99.
  std::size_t samples = 0;
  std::size_t beyond_p99 = 0;
};

/// The sweeps run their inputs round-robin, so each input recurs; its
/// time is the interquartile mean of its repetitions. The percentiles
/// are taken over the inputs, and `ops_per_s` is the rate of a pass over
/// the inputs at those times: the input count over the sum of their times.
[[nodiscard]] Timings per_input_timings(const std::vector<Reservoir>& inputs);

/// The timings of one round of requests: their throughput and the
/// percentiles of their latencies.
[[nodiscard]] Timings round_timings(std::vector<double> latencies_ms,
                                    double ops_per_s);

/// The interquartile means, over rounds that each did the same work, of
/// the throughput and of each latency percentile (serve-fleet).
[[nodiscard]] Timings over_rounds(const std::vector<Timings>& rounds);

/// Catalog counters (obs::metric_catalog()) summed over the windows
/// between open() and close(): layer counts come from public state only.
class CounterDeltas {
 public:
  void open();
  void close();
  [[nodiscard]] double get(const std::string& name) const;
  /// Sum over every counter named `prefix`...`suffix`.
  [[nodiscard]] double sum_matching(const std::string& prefix,
                                    const std::string& suffix = "") const;

 private:
  std::map<std::string, std::uint64_t> at_open_;
  std::map<std::string, double> sum_;
};

/// The per-layer metrics of a traced run, as (name, unit). Every traced
/// run prints all of them; a layer a workload does not use reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

/// Emits every layer metric from `values` (missing names read 0).
void per_layer(Report& report, const std::map<std::string, double>& values);

/// Layer values every traced workload shares: self time per layer and
/// operation, counter-derived counts and ratios, unattributed time and
/// the tracing overhead.
[[nodiscard]] std::map<std::string, double> layer_values(
    const Ledger& ledger, const CounterDeltas& counters, const Windows& windows);

/// Emits the per-layer metrics and writes the span file of a traced run.
void finish_traced(Report& report, const Config& cfg, const SpanLog& log,
                   const Ledger& ledger,
                   const std::map<std::string, double>& values);

/// Fills the end-to-end metrics of an untraced run: the given raw timings
/// at the reference speed of `calibration`, set-up time from the report,
/// and the peak resident set. The raw timings, the speed and the plain
/// throughput over the whole timed phase go to the meta line.
void end_to_end(Report& report, const Windows& windows, const Timings& timings,
                const Calibration& calibration);

[[nodiscard]] Report run_static_sweep(const Config& cfg);
[[nodiscard]] Report run_pct_campaign(const Config& cfg);
[[nodiscard]] Report run_serve_fleet(const Config& cfg);

/// Ends set-up: its time is from process launch (or main entry) to now,
/// reported at the reference speed of calibration bursts run right
/// after it (not counted in it); the raw time and speed go to the meta
/// line.
void finish_setup(Report& report, const Config& cfg);

}  // namespace perfbench
