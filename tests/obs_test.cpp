// Observability layer tests: span nesting across pool threads, byte-
// stable metrics snapshots across job counts, Chrome trace JSON shape,
// the allocation-free disabled mode, and the artifact-cache snapshot
// persistence (including the cache.corrupt structured warning).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "drb/corpus.hpp"
#include "eval/artifact_cache.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"

// Global allocation counter for the disabled-mode test. Counting is
// overhead-free enough to leave on for the whole binary. GCC flags
// free() on new-ed pointers without seeing that this replacement new is
// malloc-backed, so the mismatch warning is a false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// otherwise they come from the runtime's allocator -- a sanitizer's under
// ASan -- and are handed back to the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace drbml;

/// Every test starts from a clean slate: sinks off, trace buffer empty,
/// metric values zeroed (the aggregate obs_suite ctest entry runs all
/// tests in one process).
void reset_obs() {
  obs::tracer().set_enabled(false);
  obs::tracer().clear();
  obs::metrics().set_enabled(false);
  obs::metrics().reset();
}

TEST(ObsMetrics, CatalogPreRegisteredAndSorted) {
  const auto descs = obs::metrics().descriptors();
  ASSERT_EQ(descs.size(), obs::metric_catalog().size());
  for (std::size_t i = 1; i < descs.size(); ++i) {
    EXPECT_LT(std::string(descs[i - 1]->name), std::string(descs[i]->name));
  }
  // Snapshots cover the full stable catalog even when nothing ran.
  reset_obs();
  const std::string text = obs::metrics().to_text();
  for (const obs::MetricDesc* d : obs::metric_catalog()) {
    if (d->stable) {
      EXPECT_NE(text.find(d->name), std::string::npos) << d->name;
    } else {
      EXPECT_EQ(text.find(d->name), std::string::npos) << d->name;
    }
  }
}

TEST(ObsMetrics, CountersGaugesHistograms) {
  reset_obs();
  obs::Counter& c = obs::metrics().counter(obs::kCacheCorrupt);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  obs::Histogram& h = obs::metrics().histogram(obs::kSchedStepsPerReplay);
  h.observe(0);    // bucket 0 (<= 0)
  h.observe(1);    // bucket 1 (<= 1)
  h.observe(2);    // bucket 2 (<= 3)
  h.observe(3);    // bucket 2
  h.observe(150);  // bucket 8 (<= 255)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 156u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(8), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_bound(8), 255u);
  reset_obs();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsMetrics, TimersAreUnstableAndExcludedByDefault) {
  reset_obs();
  obs::Timer& t = obs::metrics().timer(obs::kStageStaticTime);
  t.record(1000, 900);
  EXPECT_EQ(obs::metrics().to_text().find("stage.static.time"),
            std::string::npos);
  const std::string full = obs::metrics().to_text(/*include_unstable=*/true);
  EXPECT_NE(full.find("stage.static.time count 1 wall_ns 1000 cpu_ns 900"),
            std::string::npos);
}

TEST(ObsMetrics, JsonSnapshotParsesAndIsStableOnly) {
  reset_obs();
  obs::metrics().counter(obs::kLintRuns).add(7);
  const json::Value doc = json::parse(obs::metrics().to_json());
  const json::Object& root = doc.as_object();
  EXPECT_EQ(root.at("schema").as_string(), "drbml-metrics-v1");
  EXPECT_TRUE(root.at("deterministic").as_bool());
  const json::Object& metrics = root.at("metrics").as_object();
  EXPECT_EQ(metrics.at("lint.runs").as_object().at("value").as_int(), 7);
  EXPECT_FALSE(metrics.contains("stage.static.time"));
}

TEST(ObsSpan, NestsAcrossWorkerThreads) {
  reset_obs();
  obs::tracer().set_enabled(true);
  {
    obs::Span outer(obs::kSpanExpRun, "outer");
    const std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
    support::parallel_map(4, items, [](int i) {
      obs::Span inner(obs::kSpanExploreEntry);
      obs::Span innermost(obs::kSpanInterpReplay);
      return i;
    });
  }
  const std::vector<obs::TraceEvent> events = obs::tracer().snapshot();
  ASSERT_EQ(events.size(), 17u);  // 1 outer + 8 * 2 inner
  std::set<int> tids;
  int outer_count = 0;
  for (const obs::TraceEvent& e : events) {
    tids.insert(e.tid);
    if (std::string(e.name) == "exp.run") {
      ++outer_count;
      EXPECT_EQ(e.detail, "outer");
      // The outer span encloses every inner span in time.
      for (const obs::TraceEvent& o : events) {
        EXPECT_GE(o.start_ns, e.start_ns);
        EXPECT_LE(o.start_ns + o.dur_ns, e.start_ns + e.dur_ns);
      }
    }
  }
  EXPECT_EQ(outer_count, 1);
  EXPECT_GT(tids.size(), 1u);  // work actually landed on pool threads
  reset_obs();
}

TEST(ObsTracer, ChromeTraceJsonShape) {
  reset_obs();
  obs::tracer().set_enabled(true);
  {
    obs::Span span(obs::kSpanLintRun, "detail with \"quotes\"");
  }
  { obs::Span span(obs::kSpanRepairVerify); }
  const json::Value doc = json::parse(obs::tracer().to_json());
  const json::Object& root = doc.as_object();
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");
  const json::Array& events = root.at("traceEvents").as_array();
  int complete = 0;
  int meta = 0;
  for (const json::Value& v : events) {
    const json::Object& e = v.as_object();
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_TRUE(e.contains("name"));
    EXPECT_TRUE(e.contains("cat"));
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_EQ(e.at("pid").as_int(), 1);
    EXPECT_TRUE(e.at("tid").is_int());
  }
  EXPECT_EQ(complete, 2);
  EXPECT_GE(meta, 1);
  reset_obs();
}

TEST(ObsTracer, WriteProducesLoadableFile) {
  reset_obs();
  obs::tracer().set_enabled(true);
  { obs::Span span(obs::kSpanExpRun, "table0"); }
  const std::string path = testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::tracer().write(path));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  EXPECT_NO_THROW(json::parse(text));
  std::filesystem::remove(path);
  reset_obs();
}

TEST(ObsSpan, DisabledModeIsAllocationFree) {
  reset_obs();
  // Touch everything once so lazy singletons/statics are constructed.
  obs::metrics().counter(obs::kLintRuns).add();
  static_cast<void>(obs::thread_id());
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    obs::Span span(obs::kSpanLintRun, "some detail");
    obs::metrics().counter(obs::kLintRuns).add();
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);
}

TEST(ObsFlags, ConsumeObsFlagsStripsOnlyItsFlags) {
  // Enabling writes files at exit; point them into the test temp dir.
  const std::string trace = testing::TempDir() + "obs_flags_trace.json";
  const std::string metrics = testing::TempDir() + "obs_flags_metrics.json";
  std::vector<std::string> args{"--jobs",  "4",    "--trace", trace,
                                "a.c",     "--metrics", metrics};
  obs::consume_obs_flags(args);
  EXPECT_EQ(args, (std::vector<std::string>{"--jobs", "4", "a.c"}));
  EXPECT_TRUE(obs::tracer().enabled());
  EXPECT_TRUE(obs::metrics().enabled());
  reset_obs();
}

// ---------------------------------------------------------- determinism

/// Drives a miniature version of the `drbml stats` pipeline over a slice
/// of the corpus at the given job count and returns the deterministic
/// metrics snapshot.
std::string pipeline_snapshot(int jobs) {
  obs::metrics().reset();
  eval::ArtifactCache& cache = eval::artifact_cache();
  cache.clear();
  std::vector<const drb::CorpusEntry*> entries;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    entries.push_back(&e);
    if (entries.size() == 24) break;
  }
  support::parallel_map(jobs, entries, [&](const drb::CorpusEntry* e) {
    const std::string code = drb::drb_code(*e);
    cache.token_count(code);
    cache.static_report(code, {}).race_detected;
    try {
      cache.dynamic_report(code, {});
    } catch (const Error&) {
    }
    try {
      cache.lint_report(code);
    } catch (const Error&) {
    }
    return 0;
  });
  std::string text = obs::metrics().to_text();
  std::string json = obs::metrics().to_json();
  cache.clear();
  return text + json;
}

TEST(ObsDeterminism, SnapshotsByteStableAcrossJobCounts) {
  reset_obs();
  const std::string serial = pipeline_snapshot(1);
  const std::string parallel = pipeline_snapshot(8);
  EXPECT_EQ(serial, parallel);
  // And the work actually happened: probes and computes are non-zero.
  EXPECT_NE(serial.find("cache.static.probe 24"), std::string::npos) << serial;
  EXPECT_NE(serial.find("cache.static.compute 24"), std::string::npos);
  reset_obs();
}

// ------------------------------------------------------ cache snapshots

TEST(CacheSnapshot, RoundTripSeedsWithoutRecompute) {
  reset_obs();
  eval::ArtifactCache& cache = eval::artifact_cache();
  cache.clear();
  const std::string code = drb::drb_code(drb::corpus().front());
  const int tokens = cache.token_count(code);
  const std::string ast = cache.ast_text(code);
  const std::string dep = cache.depgraph_text(code);

  const std::string path = testing::TempDir() + "obs_cache_snapshot.txt";
  ASSERT_TRUE(cache.save_snapshot(path));
  EXPECT_EQ(obs::metrics().counter(obs::kCacheSnapshotSaved).value(), 3u);

  cache.clear();
  obs::metrics().reset();
  EXPECT_EQ(cache.load_snapshot(path), 3u);
  EXPECT_EQ(obs::metrics().counter(obs::kCacheSnapshotLoaded).value(), 3u);
  EXPECT_EQ(obs::metrics().counter(obs::kCacheCorrupt).value(), 0u);

  // Seeded entries are hits: values match, no compute runs.
  EXPECT_EQ(cache.token_count(code), tokens);
  EXPECT_EQ(cache.ast_text(code), ast);
  EXPECT_EQ(cache.depgraph_text(code), dep);
  EXPECT_EQ(obs::metrics().counter(obs::kCacheTokensCompute).value(), 0u);
  EXPECT_EQ(obs::metrics().counter(obs::kCacheAstCompute).value(), 0u);
  EXPECT_EQ(obs::metrics().counter(obs::kCacheDepgraphCompute).value(), 0u);

  std::filesystem::remove(path);
  cache.clear();
  reset_obs();
}

TEST(CacheSnapshot, CorruptFileIsCountedAndTreatedAsMiss) {
  reset_obs();
  eval::ArtifactCache& cache = eval::artifact_cache();
  cache.clear();
  const std::string path = testing::TempDir() + "obs_cache_corrupt.txt";

  const auto expect_rejected = [&](const std::string& contents,
                                   std::uint64_t expected_corrupt) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    out.close();
    EXPECT_EQ(cache.load_snapshot(path), 0u) << contents;
    EXPECT_EQ(obs::metrics().counter(obs::kCacheCorrupt).value(),
              expected_corrupt)
        << contents;
    EXPECT_EQ(cache.size(), 0u) << contents;
  };

  expect_rejected("not a snapshot\n", 1);
  expect_rejected("drbml-cache v1\nX 0123456789abcdef 3\n", 2);
  expect_rejected("drbml-cache v1\nT zzzz\n", 3);
  // Truncated payload: promises 10 bytes, delivers 2.
  expect_rejected("drbml-cache v1\nA 0123456789abcdef 10\nab\n", 4);
  // A corrupt tail must not seed the valid head records.
  expect_rejected(
      "drbml-cache v1\nT 0123456789abcdef 42\nA 0123456789abcdef 10\nab\n", 5);

  // Missing file counts too.
  std::filesystem::remove(path);
  EXPECT_EQ(cache.load_snapshot(path), 0u);
  EXPECT_EQ(obs::metrics().counter(obs::kCacheCorrupt).value(), 6u);
  reset_obs();
}

// ----------------------------------------------------------- once-map

TEST(OnceMap, SeedAndForEach) {
  support::OnceMap<std::string> map;
  EXPECT_TRUE(map.seed(1, "one"));
  EXPECT_FALSE(map.seed(1, "other"));  // first seed wins
  int computes = 0;
  EXPECT_EQ(map.get_or_compute(1,
                               [&] {
                                 ++computes;
                                 return std::string("computed");
                               }),
            "one");
  EXPECT_EQ(computes, 0);
  map.get_or_compute(2, [] { return std::string("two"); });
  std::set<std::pair<std::uint64_t, std::string>> seen;
  map.for_each([&](std::uint64_t key, const std::string& v) {
    seen.insert({key, v});
  });
  EXPECT_EQ(seen, (std::set<std::pair<std::uint64_t, std::string>>{
                      {1, "one"}, {2, "two"}}));
}

}  // namespace
