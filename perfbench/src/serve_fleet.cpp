// serve-fleet: clients re-analysing the same programs through the serve
// daemon. Closed loop, because these callers wait for each verdict: one
// generator thread keeps kOutstanding requests in flight through
// Server::submit_line against a server with kWorkers workers. The timed
// stream repeats one seeded round of requests. 90% of them hit the
// hot set (every corpus program x analyze/lint/explore/fix, filled during
// set-up); the rest carry novel synthetic programs and run every compute
// layer in short calls. The hot share and the verb weights are
// assumptions, not measured traffic: no request log exists.
#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "eval/artifact_cache.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

// One worker: the daemon's throughput then follows the host's speed as a
// single-threaded loop's does. Two workers need two processors at once,
// and on a shared host that doubled the spread (IQR over median) of
// ops_per_s between runs: 0.22 against 0.12 over eight interleaved runs
// of each, while static-sweep's was 0.10.
constexpr int kWorkers = 1;
// Enough callers that the worker always finds queued work (about 2.4 ms
// of it) while the generator sleeps. With two workers and 4 in flight the
// workers idled whenever the generator was slow to wake, a delay that
// follows the host's load: the spread of ops_per_s over six interleaved
// pairs of runs was 0.41 with 4 outstanding and 0.20 with 16.
constexpr int kOutstanding = 32;
// How often the generator collects responses (see Completions).
constexpr auto kPoll = std::chrono::microseconds(200);
// Share of novel requests, in percent (assumed, see above).
constexpr std::size_t kNovelPercent = 10;
// Above the hot set's resident bytes (about 1.25 MB by the cache's own
// accounting) and far below what the novel requests of a run add, so
// eviction and deferred reclamation run all the time. The headroom keeps
// hot hits hits: at 1.6 MB a tenth of them were recomputed, at 2.5 MB
// about 0.3% are (hot_recomputes in the meta line).
constexpr std::uint64_t kCacheBudget = 2'500'000;
// Requests per round. Every round sends the same requests, so rounds
// differ only in the host's speed. Each novel slot of the round has its
// own synthetic kernel, and each time it is sent it ends with a new
// `// novel <n>` line: its source, and with it its cache key, is new,
// while its work stays that of its kernel. At 13-21k requests a second
// a round lasts about a quarter of a second and holds 400 novel
// requests and 40 latencies beyond its p99. Multiples of 200 split
// exactly by the shares below.
constexpr std::size_t kRound = 4000;
constexpr std::size_t kTinyRound = 200;
// Synthetic kernels generated per novel slot, to choose from.
constexpr std::size_t kCandidatesPerSlot = 4;

enum Verb { kAnalyze, kLint, kExplore, kFix, kVerbs };
constexpr const char* kVerbJson[kVerbs] = {
    R"("verb":"analyze","detector":"hybrid")", R"("verb":"lint")",
    R"("verb":"explore")", R"("verb":"fix")"};
// Weighted towards analyze: 50/25/15/10 (assumed, see above).
constexpr int kVerbWeight[kVerbs] = {50, 25, 15, 10};
// The cache counter that a cold request of each verb increments.
constexpr const char* kVerbCompute[kVerbs] = {
    "cache.static.compute", "cache.lint.compute", "cache.explore.compute",
    "cache.repair.compute"};

/// Writes the request line into `line`: `code` is JSON-escaped already;
/// a novel request (`novel` >= 0) ends its program with `// novel <n>`.
void request_line(std::string& line, std::int64_t seq, Verb verb,
                  const std::string& code, std::int64_t novel) {
  line.assign("{\"id\":\"q");
  line += std::to_string(seq);
  line += "\",";
  line += kVerbJson[verb];
  line += ",\"code\":\"";
  line += code;
  if (novel >= 0) {
    line += "\\n// novel ";
    line += std::to_string(novel);
  }
  line += "\"}";
}

/// The `"id":"q<seq>",` member of a response.
std::string id_member(std::int64_t seq) {
  return "\"id\":\"q" + std::to_string(seq) + "\",";
}

/// The response with its id member removed.
std::string without_id(std::string response, std::int64_t seq) {
  const std::string member = id_member(seq);
  const std::size_t at = response.find(member);
  if (at != std::string::npos) response.erase(at, member.size());
  return response;
}

/// Whether `response` equals `expected` (recorded by without_id) once its
/// id member is ignored; compares in place.
bool same_but_id(std::string_view response, std::int64_t seq,
                 std::string_view expected) {
  const std::string member = id_member(seq);
  const std::size_t at = response.find(member);
  if (at == std::string_view::npos ||
      response.size() != expected.size() + member.size()) {
    return false;
  }
  return response.substr(0, at) == expected.substr(0, at) &&
         response.substr(at + member.size()) == expected.substr(at);
}

bool is_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// Whether an ok response's verdict matches the label. A fix response's
/// verdict is its status: "no-race" says race-free, "fixed",
/// "no-candidate" and "rejected" say racy, "error" says neither.
bool verdict_matches(const std::string& response, Verb verb, bool race) {
  const json::Value doc = json::parse(response);
  const json::Object& result = doc.as_object().at("result").as_object();
  if (verb != kFix) return result.at("race").as_bool() == race;
  const std::string& status = result.at("status").as_string();
  if (status == "error") return false;
  return (status != "no-race") == race;
}

/// Completion queue between the server's worker and the generator. The
/// worker only appends; the generator sleeps and collects every kPoll, so
/// the worker never spends time waking it. A busy-waiting generator ran
/// twice as fast on a quiet host but took processor time from the workers
/// when the host was overcommitted, and throughput then collapsed.
class Completions {
 public:
  struct Done {
    std::int64_t seq;
    std::uint64_t at;
    std::string response;
  };

  std::function<void(std::string)> callback(std::int64_t seq) {
    return [this, seq](std::string response) {
      const std::uint64_t at = now_ns();
      std::lock_guard<std::mutex> lock(mu_);
      done_.push_back(Done{seq, at, std::move(response)});
    };
  }

  std::vector<Done> wait() {
    std::vector<Done> out;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!done_.empty()) {
          out.swap(done_);
          return out;
        }
      }
      std::this_thread::sleep_for(kPoll);
    }
  }

 private:
  std::mutex mu_;
  std::vector<Done> done_;
};

struct Request {
  Verb verb = kAnalyze;
  int hot = -1;    // corpus index, or -1 for a novel program
  int novel = -1;  // novel: index into the pool of synthetic kernels
  std::int64_t round = -1;  // round of the timed stream; -1 in set-up
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;  // submit_line returned
};

/// One round of the timed stream, in a seeded order. Its make-up is
/// exact, so the rounds of different seeds do about the same work:
/// kNovelPercent of the requests are novel, the verbs split by
/// kVerbWeight among both hot and novel requests, every hot program gets
/// its verb about equally often, and each verb's novel kernels are spread
/// evenly over the synthesizer's template x label classes (the part of a
/// kernel's name after "SYNTH<n>-"). The order is seeded but even: the
/// round is dealt into blocks of the same make-up (one costly novel
/// explore or fix request, three other novel and 36 hot requests), each
/// shuffled, so the costly requests never bunch up and the latency
/// percentiles do not depend on where a seed's shuffle put them. Moves
/// the chosen candidates into `pool`, which the novel requests index.
std::vector<Request> build_round(std::size_t size, std::size_t hot_programs,
                                 std::vector<Input> candidates,
                                 std::vector<Input>& pool, drbml::Rng& rng) {
  std::map<std::string, std::vector<Input>> by_class;
  for (Input& in : candidates) {
    by_class[in.name.substr(in.name.find('-') + 1)].push_back(std::move(in));
  }
  std::vector<std::vector<Input>*> classes;
  for (auto& [name, kernels] : by_class) classes.push_back(&kernels);
  std::size_t next_class = 0;
  const auto take_kernel = [&] {
    for (std::size_t tries = 0; tries < classes.size(); ++tries) {
      std::vector<Input>& kernels = *classes[next_class++ % classes.size()];
      if (kernels.empty()) continue;
      pool.push_back(std::move(kernels.back()));
      kernels.pop_back();
      return static_cast<int>(pool.size() - 1);
    }
    throw std::runtime_error("serve-fleet: too few synthetic kernels");
  };

  const std::size_t novel = size * kNovelPercent / 100;
  std::vector<Request> round;
  for (int v = 0; v < kVerbs; ++v) {
    const auto share = [&](std::size_t n) {
      return n * static_cast<std::size_t>(kVerbWeight[v]) / 100;
    };
    std::vector<int> programs(hot_programs);
    for (std::size_t i = 0; i < hot_programs; ++i) programs[i] = static_cast<int>(i);
    rng.shuffle(programs);
    for (std::size_t i = 0; i < share(size - novel); ++i) {
      Request req;
      req.verb = static_cast<Verb>(v);
      req.hot = programs[i % hot_programs];
      round.push_back(req);
    }
    for (std::size_t i = 0; i < share(novel); ++i) {
      Request req;
      req.verb = static_cast<Verb>(v);
      req.novel = take_kernel();
      round.push_back(req);
    }
  }
  // Deal hot, cheap novel and costly novel requests evenly over the
  // blocks, each group in a seeded order.
  std::vector<Request> groups[3];
  for (const Request& req : round) {
    groups[req.hot >= 0 ? 0 : req.verb == kExplore || req.verb == kFix ? 2 : 1].push_back(req);
  }
  std::vector<std::vector<Request>> blocks(groups[2].size());
  for (std::vector<Request>& group : groups) {
    rng.shuffle(group);
    for (std::size_t i = 0; i < group.size(); ++i) blocks[i % blocks.size()].push_back(group[i]);
  }
  round.clear();
  for (std::vector<Request>& block : blocks) {
    rng.shuffle(block);
    round.insert(round.end(), block.begin(), block.end());
  }
  return round;
}

/// Whether an ok response's verdict matches the label; an unreadable
/// response is recorded as a failed check and counts as a miss.
bool checked_verdict(Report& report, const std::string& response, Verb verb,
                     bool race, const char* when) {
  try {
    return verdict_matches(response, verb, race);
  } catch (const std::exception& e) {
    report.check(false, std::string(when) + ": unreadable response: " + e.what());
    return false;
  }
}

}  // namespace

Report run_serve_fleet(const Config& cfg) {
  Report report;
  // Set-up builds the round and every program text it sends,
  // JSON-escaped, so the generator only assembles request lines.
  std::vector<Input> hot = corpus_inputs();
  if (cfg.tiny) hot.resize(12);
  drbml::Rng rng(drbml::hash_combine(cfg.seed, drbml::fnv1a64("serve-fleet")));
  const std::size_t round_size = cfg.tiny ? kTinyRound : kRound;
  std::vector<Input> pool;
  const std::vector<Request> round = build_round(
      round_size, hot.size(),
      synth_inputs(static_cast<int>(round_size * kNovelPercent / 100 * kCandidatesPerSlot),
                   drbml::hash_combine(cfg.seed, drbml::fnv1a64("serve-fleet novel")),
                   0.5),
      pool, rng);
  std::vector<std::string> hot_code, pool_code;
  for (const Input& in : hot) hot_code.push_back(json::escape(in.code));
  for (const Input& in : pool) pool_code.push_back(json::escape(in.code));

  Completions completions;
  drbml::serve::ServerOptions sopts;
  sopts.jobs = kWorkers;
  sopts.cache_budget = kCacheBudget;
  drbml::serve::Server server(sopts);
  const int tid = drbml::obs::thread_id();

  // Requests whose responses the generator has not processed yet.
  std::unordered_map<std::int64_t, Request> in_flight;
  std::int64_t next_seq = 0;
  std::int64_t novel_count = 0;
  std::string line;
  const auto submit = [&](Request req) {
    const std::int64_t seq = next_seq++;
    if (req.hot >= 0) {
      request_line(line, seq, req.verb, hot_code[req.hot], -1);
    } else {
      request_line(line, seq, req.verb, pool_code[req.novel], novel_count++);
    }
    Request& slot = in_flight[seq] = req;
    slot.submitted = now_ns();
    server.submit_line(line, completions.callback(seq));
    slot.admitted = now_ns();
  };
  const auto take = [&](std::int64_t seq) {
    const auto it = in_flight.find(seq);
    const Request req = it->second;
    in_flight.erase(it);
    return req;
  };
  const auto outstanding = [&] { return static_cast<int>(in_flight.size()); };

  // Set-up: fill the hot set and record every response. In a set-up-only
  // run, the fill's requests are the ones reported as attempted.
  std::vector<std::string> expected[kVerbs];
  std::vector<char> expected_match[kVerbs];
  for (int v = 0; v < kVerbs; ++v) {
    expected[v].resize(hot.size());
    expected_match[v].resize(hot.size());
  }
  for (std::size_t next = 0, total = hot.size() * kVerbs;
       next < total || outstanding() > 0;) {
    while (next < total && outstanding() < kOutstanding) {
      Request req;
      req.hot = static_cast<int>(next / kVerbs);
      req.verb = Verb(next % kVerbs);
      submit(req);
      ++report.attempted;
      ++next;
    }
    for (Completions::Done& d : completions.wait()) {
      const Request req = take(d.seq);
      const bool ok = is_ok(d.response);
      if (!ok) {
        ++report.failed;
        report.check(false, "hot-set fill: " + d.response.substr(0, 200));
      }
      expected_match[req.verb][req.hot] =
          ok && checked_verdict(report, d.response, req.verb,
                                hot[req.hot].race, "hot-set fill");
      expected[req.verb][req.hot] = without_id(std::move(d.response), d.seq);
    }
  }
  report.meta.set("hot_resident_mb",
                  json::Value(static_cast<double>(
                                  drbml::eval::artifact_cache().resident_bytes()) /
                              1e6));

  // The timed stream: the round, over and over.
  const auto n = static_cast<std::int64_t>(round.size());
  std::int64_t timed_requests = 0;
  std::uint64_t novel_by_verb[kVerbs] = {};
  const auto next_request = [&] {
    Request req = round[static_cast<std::size_t>(timed_requests % n)];
    req.round = timed_requests++ / n;
    if (req.novel >= 0) ++novel_by_verb[req.verb];
    return req;
  };
  // Records which inputs a seed gives: the hot set, the pool and the round.
  std::uint64_t inputs_digest = drbml::hash_combine(digest(hot), digest(pool));
  for (const Request& req : round) {
    const bool is_hot = req.hot >= 0;
    inputs_digest = drbml::hash_combine(
        inputs_digest,
        (static_cast<std::uint64_t>(is_hot ? req.hot : req.novel) << 3) |
            (static_cast<std::uint64_t>(is_hot) << 2) | req.verb);
  }
  Windows windows(cfg);
  finish_setup(report, cfg);
  if (cfg.setup_only) return report;
  report.attempted = 0;
  report.failed = 0;

  SpanLog log;
  CounterDeltas counters;  // traced slices
  CounterDeltas timed;     // the whole timed phase
  struct Answered {
    std::uint64_t admitted, answered;
  };
  std::unordered_map<std::int64_t, Answered> traced;  // seq -> times
  // Rounds of an untraced run: those still answering, and the finished
  // ones' timings. An untraced run lets each round drain before the next
  // one starts and runs a calibration burst in between, while the worker
  // is idle: a round's time then runs from its first submit to its last
  // response, and the burst takes no processor from the worker.
  struct OpenRound {
    std::uint64_t start = 0;
    std::size_t done = 0;
    std::uint64_t end = 0;
    std::vector<double> latencies_ms;
  };
  std::map<std::int64_t, OpenRound> open_rounds;
  std::vector<Timings> rounds;
  Calibration calibration;
  bool draining = false;
  std::uint64_t hot_checked = 0;
  timed.open();
  for (Windows::Window& window : windows.all()) {
    const Slice& slice = window.slice;
    if (slice.traced) {
      log.begin_traced_slice();
      counters.open();
    }
    const std::uint64_t start = now_ns();
    const std::uint64_t stop = start + slice.ns;
    std::uint64_t now = start;
    // Windows end with nothing in flight, so tracing toggles cleanly.
    while (now < stop || outstanding() > 0) {
      while (now < stop && !draining && outstanding() < kOutstanding) {
        const Request req = next_request();
        if (!cfg.trace) {
          OpenRound& r = open_rounds[req.round];
          if (r.start == 0) r.start = now_ns();
          draining = timed_requests % n == 0;  // the round's last request
        }
        submit(req);
        ++report.attempted;
      }
      for (Completions::Done& d : outstanding() > 0 ? completions.wait()
                                                    : std::vector<Completions::Done>{}) {
        ++window.ops;
        const Request req = take(d.seq);
        if (slice.traced) {
          log.add("op", req.submitted, d.at, kCrossThread, d.seq);
          log.add("serve.admit", req.submitted, req.admitted, tid, d.seq);
          traced[d.seq] = Answered{req.admitted, d.at};
        } else if (!cfg.trace) {
          OpenRound& r = open_rounds[req.round];
          r.latencies_ms.push_back(static_cast<double>(d.at - req.submitted) / 1e6);
          r.end = std::max(r.end, d.at);
          if (++r.done == round.size()) {
            rounds.push_back(round_timings(
                std::move(r.latencies_ms),
                static_cast<double>(round.size()) * 1e9 / static_cast<double>(r.end - r.start)));
            open_rounds.erase(req.round);
          }
        }
        if (!is_ok(d.response)) {
          ++report.failed;
          report.check(false, "error response: " + d.response.substr(0, 200));
          continue;
        }
        if (req.hot >= 0) {
          ++hot_checked;
          report.check(same_but_id(d.response, d.seq, expected[req.verb][req.hot]),
                       "hot response differs from the set-up response for " +
                           hot[req.hot].name);
          report.verdict(expected_match[req.verb][req.hot] != 0, hot[req.hot]);
          continue;
        }
        const Input& in = pool[req.novel];
        report.verdict(checked_verdict(report, d.response, req.verb, in.race,
                                       "novel request"),
                       in);
      }
      if (draining && outstanding() == 0) {
        (void)calibration.burst();
        draining = false;
      }
      now = now_ns();
    }
    window.ns = now - start;
    if (slice.traced) {
      counters.close();
      log.end_traced_slice();
    }
  }
  timed.close();

  // Every novel program is new, so each novel request computes its
  // verb's artifact. Computes also count hot entries recomputed after
  // eviction, so this bounds from below the novel requests the cache
  // answered; it must be 0.
  double novel_hits_min = 0;
  for (int v = 0; v < kVerbs; ++v) {
    novel_hits_min += std::max(
        0.0, static_cast<double>(novel_by_verb[v]) - timed.get(kVerbCompute[v]));
  }
  report.check(novel_hits_min == 0,
               "novel requests answered from the cache: at least " +
                   std::to_string(static_cast<std::int64_t>(novel_hits_min)));
  report.meta.set("inputs_digest", json::Value(std::to_string(inputs_digest)));
  report.meta.set("hot_responses_checked",
                  json::Value(static_cast<std::int64_t>(hot_checked)));
  report.meta.set("novel_requests", json::Value(novel_count));
  report.meta.set("round_requests", json::Value(static_cast<std::int64_t>(round.size())));
  report.meta.set("novel_cache_hits_min",
                  json::Value(static_cast<std::int64_t>(novel_hits_min)));
  double recomputed = 0;
  for (int v = 0; v < kVerbs; ++v) {
    recomputed += timed.get(kVerbCompute[v]) - static_cast<double>(novel_by_verb[v]);
  }
  report.meta.set("hot_recomputes", json::Value(static_cast<std::int64_t>(recomputed)));
  report.meta.set("cache_evictions",
                  json::Value(static_cast<std::int64_t>(timed.get("cache.evict.count"))));

  if (!cfg.trace) {
    // A round still open when the run ended is left out.
    report.meta.set("rounds", json::Value(static_cast<std::int64_t>(rounds.size())));
    end_to_end(report, windows, over_rounds(rounds), calibration);
    return report;
  }
  // Queue wait (submit_line returned -> request span starts) and response
  // hand-off (span ends -> callback runs), derived per request.
  const std::size_t recorded = log.spans().size();
  for (std::size_t i = 0; i < recorded; ++i) {
    const SpanRec s = log.spans()[i];
    const auto it = traced.find(s.op);
    if (!s.from_program || it == traced.end() ||
        std::string_view(s.name) != "serve.request") {
      continue;
    }
    const Answered& a = it->second;
    log.add("serve.queue_wait", a.admitted, std::max(a.admitted, s.start),
            kCrossThread, s.op);
    log.add("serve.respond", std::min(s.end, a.answered), a.answered, kCrossThread,
            s.op);
  }
  const Ledger ledger = build_ledger(
      log.spans(), {{"serve.admit", "serve.admit_ms"},
                    {"serve.queue_wait", "serve.queue_wait"},
                    {"serve.request", "serve.execute_self_ms"},
                    {"serve.respond", "serve.respond_ms"},
                    {"artifact.static", "eval.compute.static_ms"},
                    {"artifact.dynamic", "eval.compute.dynamic_ms"},
                    {"artifact.lint", "eval.compute.lint_ms"},
                    {"artifact.explore", "eval.compute.explore_ms"},
                    {"artifact.repair", "eval.compute.repair_ms"},
                    {"interp.replay", "runtime.run_ms"},
                    {"explore.schedule", "runtime.run_ms"},
                    {"vm.compile", "runtime.compile_ms"},
                    {"explore.entry", "explore.self_ms"},
                    {"explore.minimize", "explore.minimize_ms"},
                    {"lint.run", "lint.run_ms"},
                    {"repair.verify", "repair.verify_ms"}});
  std::map<std::string, double> v = layer_values(ledger, counters, windows);
  v.erase("serve.queue_wait");
  const auto spread = [&](const char* span, double p) {
    const auto it = ledger.durations_ms.find(span);
    if (it == ledger.durations_ms.end()) return 0.0;
    std::vector<double> d = it->second;
    return percentile(d, p);
  };
  v["serve.queue_wait_p50_ms"] = spread("serve.queue_wait", 50);
  v["serve.queue_wait_p99_ms"] = spread("serve.queue_wait", 99);
  v["serve.execute_p50_ms"] = spread("serve.request", 50);
  v["serve.execute_p99_ms"] = spread("serve.request", 99);
  v["eval.cache.resident_mb"] =
      static_cast<double>(drbml::eval::artifact_cache().resident_bytes()) / 1e6;
  finish_traced(report, cfg, log, ledger, v);
  return report;
}

}  // namespace perfbench
