// Serve-daemon suite: TaskPool scheduling + backpressure, the NDJSON
// protocol (per-verb round trips, structured rejection of malformed
// requests), analyze as core::make_detector's report for every non-LLM
// spec and the hybrid merge, a mixed workload over a socketpair and its
// warm-cache hit rate and throughput, admission control under
// saturation, deadline expiry, priority ordering, cross-jobs byte
// identity, graceful-shutdown drain (including the cache-snapshot
// flush), and the ArtifactCache LRU byte budget with deferred
// reclamation.
//
// Worker-blocking idiom: `respond` callbacks run on the worker thread
// after the verb executes, so a callback that parks on a latch pins that
// worker deterministically -- letting tests fill the bounded queue, age
// a queued deadline past expiry, or stack up priorities before any of
// them run. No sleeps are load-bearing; latches sequence everything.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/detector.hpp"
#include "drb/corpus.hpp"
#include "eval/artifact_cache.hpp"
#include "fuzz_mutate.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace drbml::serve {
namespace {

constexpr const char* kRacyCode =
    "int main() {\n"
    "  int sum = 0;\n"
    "  int a[100];\n"
    "#pragma omp parallel for\n"
    "  for (int i = 0; i < 100; i++) sum = sum + a[i];\n"
    "  return sum;\n"
    "}\n";

constexpr const char* kSafeCode =
    "int main() {\n"
    "  int a[100];\n"
    "#pragma omp parallel for\n"
    "  for (int i = 0; i < 100; i++) a[i] = i;\n"
    "  return 0;\n"
    "}\n";

/// One-shot latch: workers park in wait(), the test releases them all.
class Latch {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

std::string request_line(const std::string& id, const std::string& verb,
                         const std::string& code,
                         const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"verb\":\"" + verb + "\",\"code\":\"" +
         json::escape(code) + "\"" + extra + "}";
}

json::Value parse_response(const std::string& line) {
  return json::parse(line);
}

std::string error_kind(const json::Value& response) {
  return response.as_object().at("error").as_object().at("kind").as_string();
}

// ------------------------------------------------------------- TaskPool

TEST(TaskPool, ExecutesEverythingSubmitted) {
  support::TaskPool pool(4, 0);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.try_submit(0, [&] { ran.fetch_add(1); }));
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.executed(), 100u);
  EXPECT_EQ(pool.task_exceptions(), 0u);
}

TEST(TaskPool, HigherPriorityRunsFirstFifoWithin) {
  support::TaskPool pool(1, 0);
  Latch gate;
  std::atomic<bool> blocked{false};
  ASSERT_TRUE(pool.try_submit(0, [&] {
    blocked.store(true);
    gate.wait();
  }));
  while (!blocked.load()) std::this_thread::yield();
  // Queued while the only worker is pinned; the pool must reorder.
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(pool.try_submit(0, record(1)));
  ASSERT_TRUE(pool.try_submit(5, record(2)));
  ASSERT_TRUE(pool.try_submit(1, record(3)));
  ASSERT_TRUE(pool.try_submit(5, record(4)));
  gate.open();
  pool.drain();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3, 1}));
}

TEST(TaskPool, BoundedQueueRefusesWhenFull) {
  support::TaskPool pool(1, 1);
  Latch gate;
  std::atomic<bool> blocked{false};
  ASSERT_TRUE(pool.try_submit(0, [&] {
    blocked.store(true);
    gate.wait();
  }));
  while (!blocked.load()) std::this_thread::yield();
  EXPECT_TRUE(pool.try_submit(0, [] {}));   // fills the queue slot
  EXPECT_FALSE(pool.try_submit(0, [] {}));  // backpressure
  EXPECT_FALSE(pool.try_submit(9, [] {}));  // priority does not bypass
  gate.open();
  pool.drain();
  EXPECT_EQ(pool.executed(), 2u);
}

TEST(TaskPool, CloseStopsAdmissionButRunsQueuedWork) {
  support::TaskPool pool(2, 0);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.try_submit(0, [&] { ran.fetch_add(1); }));
  }
  pool.close();
  EXPECT_TRUE(pool.closed());
  EXPECT_FALSE(pool.try_submit(0, [&] { ran.fetch_add(1); }));
  pool.drain();
  EXPECT_EQ(ran.load(), 8);
}

TEST(TaskPool, TaskExceptionsAreCountedNotFatal) {
  support::TaskPool pool(2, 0);
  ASSERT_TRUE(pool.try_submit(0, [] { throw std::runtime_error("boom"); }));
  ASSERT_TRUE(pool.try_submit(0, [] {}));
  pool.drain();
  EXPECT_EQ(pool.task_exceptions(), 1u);
  EXPECT_EQ(pool.executed(), 2u);
  // The pool survives a throwing task.
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.try_submit(0, [&] { ran.store(true); }));
  pool.drain();
  EXPECT_TRUE(ran.load());
}

// ------------------------------------------------- protocol round trips

ServerOptions small_server() {
  ServerOptions opts;
  opts.jobs = 2;
  opts.queue_limit = 0;
  return opts;
}

TEST(ServeProtocol, AnalyzeStaticRoundTrip) {
  Server server(small_server());
  const json::Value r = parse_response(
      server.handle_line(request_line("a1", "analyze", kRacyCode,
                                      ",\"detector\":\"static\"")));
  EXPECT_EQ(r.as_object().at("id").as_string(), "a1");
  EXPECT_TRUE(r.as_object().at("ok").as_bool());
  EXPECT_EQ(r.as_object().at("verb").as_string(), "analyze");
  const json::Object& result = r.as_object().at("result").as_object();
  EXPECT_TRUE(result.at("race").as_bool());
  EXPECT_FALSE(result.at("pairs").as_array().empty());
}

TEST(ServeProtocol, AnalyzeHybridAndDynamicRoundTrip) {
  Server server(small_server());
  for (const char* detector : {"hybrid", "dynamic"}) {
    const json::Value r = parse_response(server.handle_line(request_line(
        "d1", "analyze", kRacyCode,
        std::string(",\"detector\":\"") + detector + "\"")));
    ASSERT_TRUE(r.as_object().at("ok").as_bool()) << detector;
    EXPECT_TRUE(
        r.as_object().at("result").as_object().at("race").as_bool())
        << detector;
  }
}

TEST(ServeProtocol, AnalyzeSafeCodeReportsNoRace) {
  Server server(small_server());
  const json::Value r = parse_response(server.handle_line(
      request_line("s1", "analyze", kSafeCode, ",\"detector\":\"static\"")));
  ASSERT_TRUE(r.as_object().at("ok").as_bool());
  EXPECT_FALSE(
      r.as_object().at("result").as_object().at("race").as_bool());
}

TEST(ServeProtocol, LintRoundTrip) {
  Server server(small_server());
  const json::Value r =
      parse_response(server.handle_line(request_line("l1", "lint", kRacyCode)));
  ASSERT_TRUE(r.as_object().at("ok").as_bool());
  const json::Object& result = r.as_object().at("result").as_object();
  EXPECT_FALSE(result.at("diagnostics").as_array().empty());
}

TEST(ServeProtocol, FixRoundTrip) {
  Server server(small_server());
  const json::Value r =
      parse_response(server.handle_line(request_line("f1", "fix", kRacyCode)));
  ASSERT_TRUE(r.as_object().at("ok").as_bool());
  const json::Object& result = r.as_object().at("result").as_object();
  EXPECT_TRUE(result.contains("status"));
}

TEST(ServeProtocol, ExploreRoundTrip) {
  Server server(small_server());
  const json::Value r = parse_response(
      server.handle_line(request_line("x1", "explore", kRacyCode)));
  ASSERT_TRUE(r.as_object().at("ok").as_bool());
  const json::Object& result = r.as_object().at("result").as_object();
  EXPECT_TRUE(result.contains("race"));
  EXPECT_TRUE(result.contains("schedules_run"));
}

TEST(ServeProtocol, StatsReportsInstanceAccounting) {
  Server server(small_server());
  (void)server.handle_line(request_line("w1", "lint", kSafeCode));
  const json::Value r = parse_response(
      server.handle_line("{\"id\":\"st1\",\"verb\":\"stats\"}"));
  ASSERT_TRUE(r.as_object().at("ok").as_bool());
  const json::Object& srv =
      r.as_object().at("result").as_object().at("server").as_object();
  EXPECT_GE(srv.at("requests").as_int(), 2);
  EXPECT_GE(srv.at("responses_ok").as_int(), 1);
  const json::Object& cache =
      r.as_object().at("result").as_object().at("cache").as_object();
  EXPECT_GE(cache.at("probes").as_int(), 1);
}

TEST(ServeProtocol, EntryResolvesCorpusPrograms) {
  Server server(small_server());
  const json::Value r = parse_response(server.handle_line(
      "{\"id\":\"e1\",\"verb\":\"analyze\",\"detector\":\"static\","
      "\"entry\":\"DRB001-antidep1-orig-yes.c\"}"));
  ASSERT_TRUE(r.as_object().at("ok").as_bool());
  EXPECT_TRUE(
      r.as_object().at("result").as_object().at("race").as_bool());
}

// ------------------------------------------------- malformed rejections

TEST(ServeProtocol, MalformedRequestsGetStructuredErrors) {
  Server server(small_server());
  const struct {
    const char* line;
    const char* kind;
  } cases[] = {
      {"this is not json", "bad_json"},
      {"[1,2,3]", "bad_request"},  // valid JSON, not a request object
      {"{\"verb\":\"stats\"}", "bad_request"},           // missing id
      {"{\"id\":\"\",\"verb\":\"stats\"}", "bad_request"},  // empty id
      {"{\"id\":\"q\",\"verb\":\"frobnicate\"}", "bad_request"},
      {"{\"id\":\"q\",\"verb\":\"analyze\"}", "bad_request"},  // no code
      {"{\"id\":\"q\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
       "\"entry\":\"x.c\"}",
       "bad_request"},  // code XOR entry
      {"{\"id\":\"q\",\"verb\":\"analyze\",\"entry\":\"no-such-entry.c\"}",
       "bad_request"},
      {"{\"id\":\"q\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
       "\"detector\":\"psychic\"}",
       "bad_request"},
      {"{\"id\":\"q\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
       "\"detector\":\"llm:gpt4:p1\"}",
       "bad_request"},  // no response field for a model reply
      {"{\"id\":\"q\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
       "\"detector\":\"explore:dfs\"}",
       "bad_request"},
      {"{\"id\":\"q\",\"verb\":\"lint\",\"code\":\"int main(){}\","
       "\"deadline_ms\":-5}",
       "bad_request"},
      {"{\"id\":\"q\",\"verb\":\"lint\",\"code\":\"int main(){}\","
       "\"priority\":\"high\"}",
       "bad_request"},
  };
  for (const auto& c : cases) {
    const json::Value r = parse_response(server.handle_line(c.line));
    EXPECT_FALSE(r.as_object().at("ok").as_bool()) << c.line;
    EXPECT_EQ(error_kind(r), c.kind) << c.line;
    EXPECT_FALSE(
        r.as_object().at("error").as_object().at("message").as_string().empty())
        << c.line;
  }
}

TEST(ServeProtocol, UnparseableCodeIsAnalysisFailedNotCrash) {
  Server server(small_server());
  const json::Value r = parse_response(server.handle_line(
      request_line("u1", "lint", "int main( { this will not parse")));
  EXPECT_FALSE(r.as_object().at("ok").as_bool());
  EXPECT_EQ(error_kind(r), "analysis_failed");
}

TEST(ServeProtocol, RunawayRecursionIsAStructuredFaultNotACrash) {
  // Programs that used to crash or hang the daemon -- unbounded recursion,
  // loops that touch no memory, INT64_MIN / -1, nesting deep enough to
  // overflow the stack of a recursive pass -- each followed by a normal
  // request on the same stream: each comes back with a result naming the
  // run's fault or with a structured parse error, and the daemon is still
  // there to answer the request after it. So does a request line nested
  // deep enough to overflow the JSON parser's stack: it gets bad_json.
  const std::string recursive =
      "int f(int n) { return f(n + 1); }\nint main() { return f(0); }\n";
  const std::string division =
      "int main() { long m = 0x8000000000000000; long d = -1; "
      "long q = m / d; printf(\"%ld\\n\", q); return 0; }\n";
  const auto repeat = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
  };
  const std::string parens = "int main() { return " + repeat("(", 50'000) +
                             "1" + repeat(")", 50'000) + "; }\n";
  const std::string sum = "int main() { int x = 1; return x" +
                          repeat(" + x", 199'999) + "; }\n";
  const std::string else_if = "int main() { int x = 0; " +
                              repeat("if (x) x = 1; else ", 100'000) +
                              "x = 2; return x; }\n";
  const char* const too_deep = "nesting deeper than";
  const struct {
    std::string id;
    const char* detector;
    std::string code;
    const char* fault;  // expected in the diagnostics; null: none
    const char* error;  // expected in the error message; null: ok
  } hostile[] = {
      {"deep", "dynamic", recursive, "call depth limit exceeded", nullptr},
      {"spin", "dynamic", "int main() { while (1) {} return 0; }\n",
       "silent loop limit exceeded", nullptr},
      {"spin-region", "dynamic",
       "int main() {\n#pragma omp parallel\n  { while (1) {} }\n"
       "  return 0;\n}\n",
       "silent loop limit exceeded", nullptr},
      {"div", "dynamic", division, "integer division overflow", nullptr},
      {"div-static", "static", division, nullptr, nullptr},
      {"parens-static", "static", parens, nullptr, too_deep},
      {"parens-dynamic", "dynamic", parens, nullptr, too_deep},
      {"sum-static", "static", sum, nullptr, too_deep},
      {"sum-dynamic", "dynamic", sum, nullptr, too_deep},
      {"else-if-static", "static", else_if, nullptr, too_deep},
      {"else-if-dynamic", "dynamic", else_if, nullptr, too_deep},
  };
  std::string requests;
  for (const auto& h : hostile) {
    requests += request_line(h.id, "analyze", h.code,
                             std::string(",\"detector\":\"") + h.detector +
                                 "\"") +
                "\n" +
                request_line("after-" + h.id, "analyze", kRacyCode,
                             ",\"detector\":\"static\"") +
                "\n";
  }
  requests += "{\"id\":\"deep-json\",\"verb\":\"stats\",\"x\":" +
              repeat("[", 50'000) + repeat("]", 50'000) + "}\n" +
              request_line("after-deep-json", "analyze", kRacyCode,
                           ",\"detector\":\"static\"") +
              "\n";
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  // The stream is larger than a pipe holds: feed it while the server reads.
  std::thread writer([&] {
    for (std::size_t at = 0; at < requests.size();) {
      const ssize_t n =
          ::write(in_pipe[1], requests.data() + at, requests.size() - at);
      if (n <= 0) break;
      at += static_cast<std::size_t>(n);
    }
    ::close(in_pipe[1]);
  });

  Server server(small_server());
  EXPECT_EQ(server.serve_fd(in_pipe[0], out_pipe[1]),
            2 * std::size(hostile) + 2);
  writer.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::read(out_pipe[0], buf, sizeof(buf))) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out_pipe[0]);

  std::map<std::string, json::Value> by_id;
  for (std::size_t start = 0, end; (end = out.find('\n', start)) !=
                                   std::string::npos;
       start = end + 1) {
    const json::Value r = parse_response(out.substr(start, end - start));
    by_id.emplace(r.as_object().at("id").as_string(), r);
  }
  ASSERT_EQ(by_id.size(), 2 * std::size(hostile) + 2) << out;
  // The deep line never parsed, so its answer carries no id.
  const json::Object& deep = by_id.at("").as_object();
  ASSERT_FALSE(deep.at("ok").as_bool()) << out;
  EXPECT_EQ(error_kind(by_id.at("")), "bad_json");
  EXPECT_NE(deep.at("error").as_object().at("message").as_string().find(
                "nesting deeper than"),
            std::string::npos);
  EXPECT_TRUE(by_id.at("after-deep-json").as_object().at("ok").as_bool());
  for (const auto& h : hostile) {
    const json::Object& got = by_id.at(h.id).as_object();
    if (h.error != nullptr) {
      ASSERT_FALSE(got.at("ok").as_bool()) << h.id << ": " << out;
      EXPECT_EQ(error_kind(by_id.at(h.id)), "analysis_failed") << h.id;
      EXPECT_NE(got.at("error").as_object().at("message").as_string().find(
                    h.error),
                std::string::npos)
          << h.id << ": " << out;
    } else {
      ASSERT_TRUE(got.at("ok").as_bool()) << h.id << ": " << out;
    }
    if (h.fault != nullptr) {
      bool fault_reported = false;
      for (const json::Value& d :
           got.at("result").as_object().at("diagnostics").as_array()) {
        if (d.as_string().find(h.fault) != std::string::npos) {
          fault_reported = true;
        }
      }
      EXPECT_TRUE(fault_reported) << h.id << ": " << out;
    }
    const json::Object& next = by_id.at("after-" + h.id).as_object();
    ASSERT_TRUE(next.at("ok").as_bool()) << h.id << ": " << out;
    EXPECT_TRUE(next.at("result").as_object().at("race").as_bool()) << h.id;
  }
}

// ------------------------------------------------ analyze = core detector

std::string entry_request(const std::string& id, const std::string& detector,
                          const std::string& entry) {
  return "{\"id\":\"" + id + "\",\"verb\":\"analyze\",\"detector\":\"" +
         detector + "\",\"entry\":\"" + entry + "\"}";
}

TEST(ServeParity, AnalyzeIsTheCoreDetectorsReportForEverySpec) {
  Server server(small_server());
  int specs = 0;
  for (const std::string& spec : core::available_detectors()) {
    if (spec.rfind("llm:", 0) == 0) continue;
    ++specs;
    const auto detector = core::make_detector(spec);
    for (const drb::CorpusEntry& e : drb::corpus()) {
      const std::string code = drb::drb_code(e);
      const json::Value r =
          parse_response(server.handle_line(entry_request("p", spec, e.name)));
      ASSERT_TRUE(r.as_object().at("ok").as_bool()) << spec << " " << e.name;
      std::string expected;
      json::Writer w(expected);
      write_analyze_result(w, detector->analyze(code).report,
                           eval::artifact_cache().token_count(code));
      EXPECT_EQ(r.as_object().at("result").dump(), expected)
          << spec << " " << e.name;
    }
  }
  EXPECT_EQ(specs, 7);
}

TEST(HybridMerge, MirroredPairCollapses) {
  // The static detector reports arr[i]@11 vs. arr[i]@16; the dynamic one
  // reports the same two writes the other way round.
  Server server(small_server());
  const json::Value r = parse_response(server.handle_line(
      entry_request("h", "hybrid", "DRB067-sectionsoverlap-orig-yes.c")));
  ASSERT_TRUE(r.as_object().at("ok").as_bool());
  const json::Object& result = r.as_object().at("result").as_object();
  EXPECT_TRUE(result.at("race").as_bool());
  EXPECT_EQ(result.at("pairs").as_array().size(), 1u) << r.dump();
}

TEST(HybridMerge, KeepsStaticThenDynamicDiagnostics) {
  Server server(small_server());
  const json::Value r = parse_response(server.handle_line(request_line(
      "nm", "analyze", "int g;\nvoid f() { g = 1; }\n",
      ",\"detector\":\"hybrid\"")));
  ASSERT_TRUE(r.as_object().at("ok").as_bool());
  std::vector<std::string> diags;
  for (const json::Value& d :
       r.as_object().at("result").as_object().at("diagnostics").as_array()) {
    diags.push_back(d.as_string());
  }
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags.front(), "static: no conflicting pair found");
  // The run forks no team, so the dynamic side ran it once.
  EXPECT_EQ(std::count(diags.begin(), diags.end(),
                       "dynamic: run faulted: program has no main()"),
            1);
  EXPECT_EQ(diags.back(), "dynamic: no happens-before violation observed");
}

TEST(HybridMerge, FaultBeforeAnyTeamIsReportedOnce) {
  Server server(small_server());
  for (const char* detector : {"dynamic", "hybrid"}) {
    const json::Value r = parse_response(server.handle_line(request_line(
        "spin", "analyze", "int main() { while (1) {} return 0; }\n",
        std::string(",\"detector\":\"") + detector + "\"")));
    ASSERT_TRUE(r.as_object().at("ok").as_bool()) << detector;
    int faults = 0;
    for (const json::Value& d :
         r.as_object().at("result").as_object().at("diagnostics").as_array()) {
      if (d.as_string().rfind("dynamic: run faulted: silent loop limit", 0) ==
          0) {
        ++faults;
      }
    }
    EXPECT_EQ(faults, 1) << detector;
  }
}

TEST(HybridMerge, RaceIsEitherReportsVerdict) {
  analysis::RacePair pair;
  pair.first.expr_text = pair.first.var_name = "x";
  pair.first.loc = {3, 5};
  pair.first.op = 'w';
  pair.second = pair.first;
  pair.second.loc = {7, 5};
  pair.second.op = 'r';
  analysis::RacePair mirror;
  mirror.first = pair.second;
  mirror.second = pair.first;

  // A race the other report states without a pair still counts.
  analysis::RaceReport quiet;
  analysis::RaceReport racy_without_pairs;
  racy_without_pairs.race_detected = true;
  racy_without_pairs.diagnostics = {"dynamic: note"};
  quiet.diagnostics = {"static: note"};
  quiet.merge(racy_without_pairs);
  EXPECT_TRUE(quiet.race_detected);
  EXPECT_TRUE(quiet.pairs.empty());
  EXPECT_EQ(quiet.diagnostics,
            (std::vector<std::string>{"static: note", "dynamic: note"}));

  // Exact and mirrored duplicates add nothing.
  analysis::RaceReport with_pair;
  with_pair.add_pair(pair);
  analysis::RaceReport twins;
  twins.add_pair(mirror);
  twins.pairs.push_back(pair);
  with_pair.merge(twins);
  EXPECT_TRUE(with_pair.race_detected);
  ASSERT_EQ(with_pair.pairs.size(), 1u);
  EXPECT_EQ(with_pair.pairs[0], pair);

  // Neither side racy: no race.
  analysis::RaceReport none;
  none.merge(analysis::RaceReport{});
  EXPECT_FALSE(none.race_detected);
}

// ------------------------------------------------- mixed serve workload

/// A mixed workload: for each of the first 12 corpus programs, a static
/// and a hybrid analyze plus a lint request, every id unique.
std::vector<std::pair<std::string, std::string>> mixed_workload() {
  std::vector<std::pair<std::string, std::string>> requests;  // (id, line)
  for (std::size_t i = 0; i < 12; ++i) {
    const std::string code = drb::drb_code(drb::corpus()[i]);
    const std::string tag = "e" + std::to_string(i);
    requests.emplace_back(tag + "-static",
                          request_line(tag + "-static", "analyze", code,
                                       ",\"detector\":\"static\""));
    requests.emplace_back(tag + "-hybrid",
                          request_line(tag + "-hybrid", "analyze", code,
                                       ",\"detector\":\"hybrid\""));
    requests.emplace_back(tag + "-lint", request_line(tag + "-lint", "lint", code));
  }
  return requests;
}

/// Submits every request and waits for all responses; returns how many
/// came back ok.
std::size_t run_workload(
    Server& server,
    const std::vector<std::pair<std::string, std::string>>& workload) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::size_t ok = 0;
  for (const auto& request : workload) {
    server.submit_line(request.second, [&](std::string response) {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      if (response.find("\"ok\":true") != std::string::npos) ++ok;
      cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == workload.size(); });
  return ok;
}

TEST(ServeWire, MixedWorkloadOverASocketpairDropsNothing) {
  const auto workload = mixed_workload();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Server server(small_server());
  std::thread daemon([&] {
    server.serve_fd(fds[0], fds[0]);
    ::shutdown(fds[0], SHUT_WR);  // EOF for the client once drained
  });
  std::thread client([&] {
    for (const auto& request : workload) {
      const std::string line = request.second + "\n";
      for (std::size_t off = 0; off < line.size();) {
        const ssize_t n = ::write(fds[1], line.data() + off, line.size() - off);
        if (n <= 0) return;
        off += static_cast<std::size_t>(n);
      }
    }
    ::shutdown(fds[1], SHUT_WR);  // EOF: the daemon drains and returns
  });
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[1], buf, sizeof(buf))) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  client.join();
  daemon.join();
  ::close(fds[0]);
  ::close(fds[1]);

  std::map<std::string, int> seen;
  for (std::size_t start = 0, end;
       (end = out.find('\n', start)) != std::string::npos; start = end + 1) {
    const json::Value r = parse_response(out.substr(start, end - start));
    ++seen[r.as_object().at("id").as_string()];
    EXPECT_TRUE(r.as_object().at("ok").as_bool()) << r.dump();
  }
  ASSERT_EQ(seen.size(), workload.size());
  for (const auto& request : workload) {
    EXPECT_EQ(seen[request.first], 1) << request.first;
  }
}

TEST(ServeCache, WarmPassHitsMoreThanColdAndKeepsFiftyQps) {
  const auto workload = mixed_workload();
  Server server(small_server());
  const auto hits_and_probes = [&] {
    const json::Value r = parse_response(
        server.handle_line("{\"id\":\"st\",\"verb\":\"stats\"}"));
    const json::Object& cache =
        r.as_object().at("result").as_object().at("cache").as_object();
    return std::pair<std::int64_t, std::int64_t>{cache.at("hits").as_int(),
                                                 cache.at("probes").as_int()};
  };
  const auto hit_rate = [](std::pair<std::int64_t, std::int64_t> from,
                           std::pair<std::int64_t, std::int64_t> to) {
    return static_cast<double>(to.first - from.first) /
           static_cast<double>(to.second - from.second);
  };

  eval::artifact_cache().clear();
  const auto start = hits_and_probes();
  EXPECT_EQ(run_workload(server, workload), workload.size());
  const auto cold = hits_and_probes();
  const auto warm_start = std::chrono::steady_clock::now();
  EXPECT_EQ(run_workload(server, workload), workload.size());
  const double warm_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - warm_start)
                                  .count();
  const auto warm = hits_and_probes();

  EXPECT_GT(hit_rate(cold, warm), hit_rate(start, cold));
  EXPECT_EQ(hit_rate(cold, warm), 1.0);
  EXPECT_GE(static_cast<double>(workload.size()) / warm_seconds, 50.0)
      << warm_seconds << " s for " << workload.size() << " warm requests";
}

// --------------------------------------------------- admission control

TEST(ServeAdmission, SaturatedQueueAnswersQueueFull) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.queue_limit = 1;
  Server server(opts);

  Latch gate;
  std::atomic<bool> worker_pinned{false};
  server.submit_line(request_line("pin", "lint", kSafeCode),
                     [&](std::string) {
                       worker_pinned.store(true);
                       gate.wait();
                     });
  while (!worker_pinned.load()) std::this_thread::yield();

  std::mutex mu;
  std::map<std::string, std::string> kinds;  // id -> error kind or "ok"
  std::condition_variable cv;
  std::size_t responded = 0;
  auto collect = [&](const std::string& id) {
    return [&, id](std::string response) {
      const json::Value r = parse_response(response);
      std::lock_guard<std::mutex> lock(mu);
      kinds[id] =
          r.as_object().at("ok").as_bool() ? "ok" : error_kind(r);
      ++responded;
      cv.notify_one();
    };
  };
  // Worker pinned: q1 takes the single queue slot, q2/q3 must be
  // refused *immediately* (inline), before the latch opens.
  server.submit_line(request_line("q1", "lint", kSafeCode), collect("q1"));
  server.submit_line(request_line("q2", "lint", kSafeCode), collect("q2"));
  server.submit_line(request_line("q3", "lint", kSafeCode), collect("q3"));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responded >= 2; });
    EXPECT_EQ(kinds.at("q2"), "queue_full");
    EXPECT_EQ(kinds.at("q3"), "queue_full");
  }
  gate.open();
  server.drain();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(kinds.at("q1"), "ok");  // queued work still completed
}

TEST(ServeAdmission, QueuedRequestPastDeadlineIsExpiredNotRun) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.queue_limit = 0;
  Server server(opts);

  Latch gate;
  std::atomic<bool> worker_pinned{false};
  server.submit_line(request_line("pin", "lint", kSafeCode),
                     [&](std::string) {
                       worker_pinned.store(true);
                       gate.wait();
                     });
  while (!worker_pinned.load()) std::this_thread::yield();

  std::mutex mu;
  std::condition_variable cv;
  std::string verdict;
  server.submit_line(
      request_line("dl", "lint", kSafeCode, ",\"deadline_ms\":1"),
      [&](std::string response) {
        const json::Value r = parse_response(response);
        std::lock_guard<std::mutex> lock(mu);
        verdict = r.as_object().at("ok").as_bool() ? "ok" : error_kind(r);
        cv.notify_one();
      });
  // Age the queued request well past its 1 ms deadline, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.open();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !verdict.empty(); });
  }
  EXPECT_EQ(verdict, "deadline_expired");
  server.drain();
}

TEST(ServeAdmission, HigherPriorityRequestsRunFirst) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.queue_limit = 0;
  Server server(opts);

  Latch gate;
  std::atomic<bool> worker_pinned{false};
  server.submit_line(request_line("pin", "lint", kSafeCode),
                     [&](std::string) {
                       worker_pinned.store(true);
                       gate.wait();
                     });
  while (!worker_pinned.load()) std::this_thread::yield();

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](std::string response) {
    const json::Value r = parse_response(response);
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(r.as_object().at("id").as_string());
  };
  server.submit_line(request_line("low1", "lint", kSafeCode), record);
  server.submit_line(
      request_line("high", "lint", kSafeCode, ",\"priority\":10"), record);
  server.submit_line(request_line("low2", "lint", kSafeCode), record);
  gate.open();
  server.drain();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<std::string>{"high", "low1", "low2"}));
}

// ----------------------------------------------------------- shutdown

TEST(ServeShutdown, ShutdownAcksThenRefusesNewWork) {
  Server server(small_server());
  const json::Value ack = parse_response(
      server.handle_line("{\"id\":\"bye\",\"verb\":\"shutdown\"}"));
  ASSERT_TRUE(ack.as_object().at("ok").as_bool());
  EXPECT_TRUE(ack.as_object()
                  .at("result")
                  .as_object()
                  .at("draining")
                  .as_bool());
  EXPECT_TRUE(server.shutdown_requested());
  const json::Value refused = parse_response(
      server.handle_line(request_line("late", "lint", kSafeCode)));
  EXPECT_FALSE(refused.as_object().at("ok").as_bool());
  EXPECT_EQ(error_kind(refused), "shutting_down");
  server.drain();
}

TEST(ServeShutdown, DrainCompletesAdmittedWorkExactlyOnce) {
  ServerOptions opts;
  opts.jobs = 2;
  opts.queue_limit = 0;
  Server server(opts);
  std::atomic<int> responses{0};
  for (int i = 0; i < 12; ++i) {
    server.submit_line(
        request_line("r" + std::to_string(i), "lint", kSafeCode),
        [&](std::string) { responses.fetch_add(1); });
  }
  server.drain();
  EXPECT_EQ(responses.load(), 12);
  server.drain();  // idempotent
  EXPECT_EQ(responses.load(), 12);
}

TEST(ServeShutdown, DrainSavesCacheSnapshot) {
  const std::string path = ::testing::TempDir() + "serve_snapshot.cache";
  std::remove(path.c_str());
  {
    ServerOptions opts;
    opts.jobs = 1;
    opts.queue_limit = 0;
    opts.cache_snapshot = path;
    Server server(opts);
    (void)server.handle_line(request_line("s", "lint", kRacyCode));
    server.drain();
  }
  eval::ArtifactCache fresh;
  EXPECT_GT(fresh.load_snapshot(path), 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------------- determinism

std::map<std::string, std::string> responses_at_jobs(int jobs) {
  ServerOptions opts;
  opts.jobs = jobs;
  opts.queue_limit = 0;
  Server server(opts);
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::string, std::string> by_id;
  std::size_t done = 0, sent = 0;
  int i = 0;
  for (const char* code : {kRacyCode, kSafeCode}) {
    for (const char* verb : {"analyze", "lint", "fix"}) {
      const std::string id = std::string(verb) + std::to_string(i);
      ++sent;
      server.submit_line(request_line(id, verb, code),
                         [&, id](std::string response) {
                           std::lock_guard<std::mutex> lock(mu);
                           by_id[id] = std::move(response);
                           ++done;
                           cv.notify_one();
                         });
    }
    ++i;
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == sent; });
  return by_id;
}

TEST(ServeDeterminism, ResponsesAreByteIdenticalAcrossJobs) {
  const auto one = responses_at_jobs(1);
  const auto eight = responses_at_jobs(8);
  ASSERT_EQ(one.size(), eight.size());
  for (const auto& [id, response] : one) {
    ASSERT_TRUE(eight.count(id)) << id;
    EXPECT_EQ(response, eight.at(id)) << id;
  }
}

// ------------------------------------------------------------- fuzzing

/// Valid request lines for every verb, and for analyze every non-LLM
/// detector, by code and by corpus entry.
std::vector<std::string> fuzz_base_requests() {
  std::vector<std::string> out;
  const char* const detectors[] = {"static",          "dynamic", "hybrid",
                                   "lint",            "explore",
                                   "explore:uniform", "explore:pct"};
  for (const char* d : detectors) {
    out.push_back(request_line("a", "analyze", kRacyCode,
                               std::string(",\"detector\":\"") + d + "\""));
    out.push_back("{\"id\":\"e\",\"verb\":\"analyze\",\"detector\":\"" +
                  std::string(d) +
                  "\",\"entry\":\"DRB001-antidep1-orig-yes.c\"}");
  }
  for (const char* verb : {"lint", "fix", "explore"}) {
    out.push_back(request_line("v", verb, kSafeCode,
                               ",\"priority\":2,\"deadline_ms\":60000"));
    out.push_back(request_line("w", verb, kRacyCode));
  }
  out.push_back("{\"id\":\"s\",\"verb\":\"stats\"}");
  out.push_back("{\"id\":\"z\",\"verb\":\"shutdown\"}");
  return out;
}

/// One mutant of a valid request line. The kinds: printable byte edits;
/// truncation anywhere (mostly inside the code string) or inside a \u
/// escape; invalid \u and backslash escapes; integers beyond int64;
/// duplicate keys; NUL and other control bytes; bytes >= 0x80; and
/// nesting near, at and far beyond json::kMaxDepth.
std::string mutate_request(const std::string& base, Rng& rng) {
  std::string s = base;
  // Somewhere inside the last string value (the code or entry name).
  const auto in_string = [&] {
    const std::size_t open = s.rfind(":\"");
    const std::size_t first = open == std::string::npos ? 0 : open + 2;
    return first + rng.below(s.size() - first);
  };
  const auto add_member = [&](const std::string& member) {
    s.insert(s.size() - 1, "," + member);
  };
  switch (rng.below(10)) {
    case 0:
      return mutate(base, rng);
    case 1:
      s.resize(in_string());
      return s;
    case 2: {
      static const char* const kCut[] = {"\\", "\\u", "\\u0", "\\u00",
                                         "\\u00e"};
      s.resize(in_string());
      return s + kCut[rng.below(std::size(kCut))];
    }
    case 3: {
      static const char* const kBad[] = {"\\u12G4", "\\uZZZZ", "\\u-123",
                                         "\\x41",   "\\q",     "\\'",
                                         "\\u 123"};
      s.insert(in_string(), kBad[rng.below(std::size(kBad))]);
      return s;
    }
    case 4: {
      static const char* const kBig[] = {
          "9223372036854775808", "-9223372036854775809",
          "99999999999999999999999999", "1e400", "-1e400", "1.5", "-0",
          "00012", "0x10"};
      const char* key = rng.chance(0.5) ? "priority" : "deadline_ms";
      add_member(std::string("\"") + key +
                 "\":" + kBig[rng.below(std::size(kBig))]);
      return s;
    }
    case 5: {
      static const char* const kDup[] = {
          "\"id\":\"dup\"",           "\"id\":7",
          "\"verb\":\"lint\"",        "\"verb\":\"stats\"",
          "\"code\":\"int main() { return 1; }\"",
          "\"entry\":\"DRB002-antidep1-var-yes.c\"",
          "\"detector\":\"static\"", "\"detector\":\"llm:gpt4:p1\"",
          "\"priority\":1",           "\"code\":null"};
      add_member(kDup[rng.below(std::size(kDup))]);
      return s;
    }
    case 6: {
      const int n = static_cast<int>(rng.between(1, 3));
      for (int i = 0; i < n; ++i) {
        s.insert(rng.below(s.size() + 1), 1,
                 static_cast<char>(rng.below(0x20)));  // NUL included
      }
      return s;
    }
    case 7: {
      const int n = static_cast<int>(rng.between(1, 4));
      for (int i = 0; i < n; ++i) {
        s.insert(rng.below(s.size() + 1), 1,
                 static_cast<char>(rng.between(0x80, 0xff)));
      }
      return s;
    }
    case 8: {
      static const int kDepths[] = {json::kMaxDepth - 1, json::kMaxDepth,
                                    json::kMaxDepth + 1, 5'000, 60'000};
      const auto depth =
          static_cast<std::size_t>(kDepths[rng.below(std::size(kDepths))]);
      const bool objects = rng.chance(0.5);
      std::string nested;
      for (std::size_t i = 0; i < depth; ++i) {
        nested += objects ? "{\"k\":" : "[";
      }
      nested += "0";
      if (rng.chance(0.8)) nested += std::string(depth, objects ? '}' : ']');
      add_member("\"nested\":" + nested);
      return s;
    }
    default:
      // Byte edits, then a `null` or `""` token inserted anywhere.
      s = mutate(base, rng);
      s.insert(rng.below(s.size() + 1), rng.chance(0.5) ? "null" : "\"\"");
      return s;
  }
}

/// Whether `line` is one structured response: an object with a string id
/// and either ok:true with the verb and a result object, or ok:false with
/// an error of a documented kind and a message.
::testing::AssertionResult is_structured_response(const std::string& line) {
  static const std::set<std::string> kKinds = {
      "bad_json",      "bad_request",     "queue_full",
      "deadline_expired", "shutting_down", "analysis_failed"};
  json::Value doc;
  try {
    doc = json::parse(line);
    const json::Object& o = doc.as_object();
    (void)o.at("id").as_string();
    if (o.at("ok").as_bool()) {
      (void)o.at("verb").as_string();
      (void)o.at("result").as_object();
      return ::testing::AssertionSuccess();
    }
    const json::Object& error = o.at("error").as_object();
    const std::string& kind = error.at("kind").as_string();
    if (kKinds.count(kind) == 0) {
      return ::testing::AssertionFailure() << "error kind '" << kind << "'";
    }
    if (error.at("message").as_string().empty()) {
      return ::testing::AssertionFailure() << "empty message";
    }
    return ::testing::AssertionSuccess();
  } catch (const JsonError& e) {
    return ::testing::AssertionFailure() << e.what();
  }
}

TEST(ServeFuzz, MutatedRequestsGetOneStructuredResponse) {
  constexpr int kMutants = 4'000;
  const std::vector<std::string> bases = fuzz_base_requests();
  Rng rng = Rng::from_key("serve-fuzz");
  ServerOptions opts;
  opts.jobs = 1;
  opts.queue_limit = 0;
  // A shutdown mutant closes its server; the next mutant gets a new one.
  std::vector<std::unique_ptr<Server>> servers;
  servers.push_back(std::make_unique<Server>(opts));
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<std::string>> responses(kMutants);
  std::map<std::string, int> outcomes;
  for (int i = 0; i < kMutants; ++i) {
    const std::string line =
        mutate_request(bases[static_cast<std::size_t>(i) % bases.size()], rng);
    servers.back()->submit_line(line, [&, i](std::string response) {
      std::lock_guard<std::mutex> lock(mu);
      responses[static_cast<std::size_t>(i)].push_back(std::move(response));
      cv.notify_all();
    });
    std::string response;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !responses[i].empty(); });
      response = responses[i].front();
    }
    ASSERT_TRUE(is_structured_response(response))
        << "mutant " << i << ": " << line.substr(0, 300) << "\nresponse: "
        << response.substr(0, 300);
    const json::Value r = json::parse(response);
    const json::Object& o = r.as_object();
    ++outcomes[o.at("ok").as_bool() ? "ok" : error_kind(r)];
    if (o.at("ok").as_bool() && o.at("verb").as_string() == "shutdown") {
      servers.back()->drain();
      servers.push_back(std::make_unique<Server>(opts));
    }
  }
  for (auto& server : servers) server->drain();
  for (int i = 0; i < kMutants; ++i) {
    EXPECT_EQ(responses[i].size(), 1u) << "mutant " << i;
  }
  // Every kind of outcome shows up: the mutants reach past the JSON
  // parser into validation and analysis.
  for (const char* kind :
       {"ok", "bad_json", "bad_request", "analysis_failed"}) {
    EXPECT_GT(outcomes[kind], 0) << kind;
  }
  EXPECT_EQ(outcomes["shutting_down"], 0);
}

/// One mutant of a snapshot's bytes: any-byte edits, truncation, a record
/// length off by one or replaced, a key with a non-hex digit or cut short,
/// an unknown tag, or a record duplicated.
std::string mutate_snapshot(const std::string& base, Rng& rng) {
  std::string s = base;
  // The start of a random record line (a line that starts with a tag).
  std::vector<std::size_t> records;
  for (std::size_t at = s.find('\n'); at != std::string::npos;
       at = s.find('\n', at + 1)) {
    if (at + 3 < s.size() && std::string("TADL").find(s[at + 1]) !=
                                 std::string::npos &&
        s[at + 2] == ' ') {
      records.push_back(at + 1);
    }
  }
  const std::size_t record =
      records.empty() ? 0 : records[rng.below(records.size())];
  const std::size_t key = record + 2;               // 16 hex digits
  const std::size_t field = s.find(' ', key) + 1;   // count or length
  const std::size_t eol = s.find('\n', field);
  switch (rng.below(7)) {
    case 0: {
      const int edits = static_cast<int>(rng.between(1, 4));
      for (int e = 0; e < edits; ++e) {
        s[rng.below(s.size())] = static_cast<char>(rng.below(256));
      }
      return s;
    }
    case 1:
      s.resize(rng.below(s.size()));
      return s;
    case 2: {
      static const char* const kLengths[] = {"0", "-1", "+5", "",
                                             "99999999999999999999",
                                             "18446744073709551615", "x"};
      const long n = std::strtol(s.c_str() + field, nullptr, 10);
      const std::string replacement =
          rng.chance(0.5) ? std::to_string(n + (rng.chance(0.5) ? 1 : -1))
                          : kLengths[rng.below(std::size(kLengths))];
      return s.replace(field, eol - field, replacement);
    }
    case 3:
      s[key + rng.below(16)] = "gG-x "[rng.below(5)];
      return s;
    case 4:
      return s.erase(key + rng.below(16), 1 + rng.below(3));
    case 5:
      s[record] = "tXa\n "[rng.below(5)];
      return s;
    default: {
      // The whole record (header line and payload) once more, after
      // itself: a repeated key.
      const std::size_t next =
          records.empty() ? s.size()
                          : [&] {
                              for (std::size_t r : records) {
                                if (r > record) return r;
                              }
                              return s.size();
                            }();
      return s.insert(next, s.substr(record, next - record));
    }
  }
}

TEST(ServeFuzz, MutatedSnapshotsSeedWholeOrNotAtAll) {
  const std::string path = ::testing::TempDir() + "fuzz_snapshot.cache";
  const std::vector<std::string> programs = {
      kRacyCode, kSafeCode,
      drb::drb_code(*drb::find_entry("DRB001-antidep1-orig-yes.c")),
      "int main() { return 0; }\n"};
  {
    eval::ArtifactCache writer;
    for (const std::string& code : programs) {
      (void)writer.token_count(code);
      (void)writer.ast_text(code);
      (void)writer.depgraph_text(code);
      (void)writer.lint_text(code);
    }
    ASSERT_TRUE(writer.save_snapshot(path));
  }
  std::string base;
  {
    std::ifstream in(path, std::ios::binary);
    base.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(base.empty());
  int expected_tokens = 0;
  {
    eval::ArtifactCache cold;
    expected_tokens = cold.token_count(programs[0]);
  }

  obs::Counter& corrupt = obs::metrics().counter(obs::kCacheCorrupt);
  obs::Counter& token_computes =
      obs::metrics().counter(obs::kCacheTokensCompute);
  Rng rng = Rng::from_key("snapshot-fuzz");
  int seeded = 0;
  int rejected = 0;
  for (int i = 0; i < 600; ++i) {
    const std::string mutant = mutate_snapshot(base, rng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    eval::ArtifactCache cache;
    const std::uint64_t corrupt_before = corrupt.value();
    const std::size_t loaded = cache.load_snapshot(path);
    if (corrupt.value() != corrupt_before) {
      ++rejected;
      EXPECT_EQ(corrupt.value(), corrupt_before + 1) << "mutant " << i;
      EXPECT_EQ(loaded, 0u) << "mutant " << i;
      EXPECT_EQ(cache.size(), 0u) << "half-seeded: mutant " << i;
      // Nothing seeded, so a probe computes afresh.
      const std::uint64_t computes_before = token_computes.value();
      EXPECT_EQ(cache.token_count(programs[0]), expected_tokens);
      EXPECT_EQ(token_computes.value(), computes_before + 1)
          << "mutant " << i;
    } else {
      // Accepted: every record went in (a header alone is an empty
      // snapshot).
      ++seeded;
      EXPECT_EQ(cache.size(), loaded) << "mutant " << i;
    }
  }
  std::remove(path.c_str());
  // Both outcomes occur, so the mutants reach past the header check.
  EXPECT_GT(seeded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ServeFuzz, SnapshotCountsAreDigitsThatFitTheFile) {
  // A length of -1 used to wrap around the bounds check and make the
  // record's payload the rest of the file, whose records then loaded
  // too; a sign, a space or a suffix on a count was accepted.
  const std::string path = ::testing::TempDir() + "counts_snapshot.cache";
  const std::string key1 = "0000000000000001";
  const std::string key2 = "0000000000000002";
  const std::string bad[] = {
      "A " + key1 + " -1\nT " + key2 + " 5\n",
      "A " + key1 + " 18446744073709551615\nT " + key2 + " 5\n",
      "A " + key1 + " +2\nab\n",
      "A " + key1 + " 2 \nab\n",
      "A " + key1 + " 3\nab\n",
      "T " + key2 + " 5x\n",
      "T " + key2 + " -5\n",
      "T " + key2 + " 2147483648\n",
  };
  obs::Counter& corrupt = obs::metrics().counter(obs::kCacheCorrupt);
  for (const std::string& records : bad) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << "drbml-cache v1\n" << records;
    }
    eval::ArtifactCache cache;
    const std::uint64_t before = corrupt.value();
    EXPECT_EQ(cache.load_snapshot(path), 0u) << records;
    EXPECT_EQ(corrupt.value(), before + 1) << records;
    EXPECT_EQ(cache.size(), 0u) << records;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "drbml-cache v1\nA " << key1 << " 2\nab\nT " << key2
        << " 2147483647\n";
  }
  eval::ArtifactCache cache;
  EXPECT_EQ(cache.load_snapshot(path), 2u);
  std::remove(path.c_str());
}

// -------------------------------------------------- LRU byte budget

TEST(CacheBudget, ZeroBudgetNeverEvicts) {
  eval::ArtifactCache cache;
  for (int i = 0; i < 20; ++i) {
    (void)cache.ast_text("int main() { return " + std::to_string(i) + "; }\n");
  }
  EXPECT_EQ(cache.condemned_count(), 0u);
  EXPECT_EQ(cache.size(), 20u);
}

TEST(CacheBudget, EvictsLeastRecentlyUsedToBudget) {
  eval::ArtifactCache cache;
  cache.set_byte_budget(1);  // everything but the MRU entry must go
  const std::string first = "int main() { return 1; }\n";
  (void)cache.ast_text(first);
  (void)cache.ast_text("int main() { return 2; }\n");
  (void)cache.ast_text("int main() { return 3; }\n");
  // Each touch evicted the previous entry; only the MRU survives.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.condemned_count(), 2u);
  // A re-probe of an evicted key recomputes and returns the same value.
  const std::string again = cache.ast_text(first);
  EXPECT_FALSE(again.empty());
}

TEST(CacheBudget, ReclaimRespectsActiveTicks) {
  eval::ArtifactCache cache;
  cache.set_byte_budget(1);
  (void)cache.token_count("int main() { return 1; }\n");
  (void)cache.token_count("int main() { return 2; }\n");  // evicts #1 @ tick 1
  (void)cache.token_count("int main() { return 3; }\n");  // evicts #2 @ tick 2
  ASSERT_EQ(cache.condemned_count(), 2u);
  // A request active since tick 1 may still reference eviction 1 and 2.
  EXPECT_EQ(cache.reclaim_evicted(1), 0u);
  EXPECT_EQ(cache.condemned_count(), 2u);
  // Oldest active request started at tick 2: eviction 1 is unreachable.
  EXPECT_EQ(cache.reclaim_evicted(2), 1u);
  EXPECT_EQ(cache.condemned_count(), 1u);
  // No active requests at all.
  EXPECT_EQ(cache.reclaim_evicted(UINT64_MAX), 1u);
  EXPECT_EQ(cache.condemned_count(), 0u);
}

TEST(CacheBudget, LoweringBudgetEvictsImmediately) {
  eval::ArtifactCache cache;
  for (int i = 0; i < 10; ++i) {
    (void)cache.ast_text("int main() { return " + std::to_string(i) + "; }\n");
  }
  ASSERT_EQ(cache.size(), 10u);
  const std::uint64_t before = cache.resident_bytes();
  ASSERT_GT(before, 0u);
  cache.set_byte_budget(before / 2);
  EXPECT_LT(cache.resident_bytes(), before);
  EXPECT_GT(cache.condemned_count(), 0u);
  EXPECT_LT(cache.size(), 10u);
}

TEST(CacheBudget, SnapshotLoadRespectsBudget) {
  const std::string path = ::testing::TempDir() + "budget_snapshot.cache";
  std::remove(path.c_str());
  eval::ArtifactCache writer;
  for (int i = 0; i < 10; ++i) {
    (void)writer.ast_text("int main() { return " + std::to_string(i) +
                          "; }\n");
  }
  ASSERT_TRUE(writer.save_snapshot(path));

  eval::ArtifactCache reader;
  reader.set_byte_budget(writer.resident_bytes() / 2);
  const std::size_t loaded = reader.load_snapshot(path);
  EXPECT_GT(loaded, 0u);
  // Seeding respects the budget: later entries evicted earlier ones.
  EXPECT_LT(reader.size(), loaded);
  EXPECT_LE(reader.resident_bytes(),
            writer.resident_bytes() / 2 + 1024);  // MRU slack
  std::remove(path.c_str());
}

TEST(CacheBudget, EnvBudgetIsStrictlyParsed) {
  ::setenv("DRBML_CACHE_BUDGET", "4096", 1);
  EXPECT_EQ(eval::env_cache_budget(), 4096u);
  ::setenv("DRBML_CACHE_BUDGET", "lots", 1);
  EXPECT_EQ(eval::env_cache_budget(), 0u);
  ::setenv("DRBML_CACHE_BUDGET", "-3", 1);
  EXPECT_EQ(eval::env_cache_budget(), 0u);
  ::unsetenv("DRBML_CACHE_BUDGET");
  EXPECT_EQ(eval::env_cache_budget(), 0u);
}

}  // namespace
}  // namespace drbml::serve
