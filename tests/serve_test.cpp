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
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/detector.hpp"
#include "drb/corpus.hpp"
#include "eval/artifact_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"

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
  // there to answer the request after it.
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
  EXPECT_EQ(server.serve_fd(in_pipe[0], out_pipe[1]), 2 * std::size(hostile));
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
  ASSERT_EQ(by_id.size(), 2 * std::size(hostile)) << out;
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
      json::Value expected =
          race_report_to_json(detector->analyze(code).report);
      expected.as_object().set(
          "tokens", json::Value(eval::artifact_cache().token_count(code)));
      EXPECT_EQ(r.as_object().at("result").dump(), expected.dump())
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
  EXPECT_NE(std::find(diags.begin(), diags.end(),
                      "dynamic: run faulted: program has no main()"),
            diags.end());
  EXPECT_EQ(diags.back(), "dynamic: no happens-before violation observed");
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
