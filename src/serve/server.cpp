#include "serve/server.hpp"

#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/detector.hpp"
#include "eval/artifact_cache.hpp"
#include "obs/catalog.hpp"
#include "support/error.hpp"

namespace drbml::serve {

namespace {

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// The serve layer's metrics, looked up once: each registry lookup takes
/// a lock and hashes the metric's name.
struct ServeMetrics {
  obs::Counter& requests = obs::metrics().counter(obs::kServeRequests);
  obs::Counter& ok = obs::metrics().counter(obs::kServeResponsesOk);
  obs::Counter& error = obs::metrics().counter(obs::kServeResponsesError);
  obs::Counter& rejected_malformed =
      obs::metrics().counter(obs::kServeRejectedMalformed);
  obs::Counter& rejected_queue_full =
      obs::metrics().counter(obs::kServeRejectedQueueFull);
  obs::Counter& rejected_deadline =
      obs::metrics().counter(obs::kServeRejectedDeadline);
  obs::Counter& verb_analyze = obs::metrics().counter(obs::kServeVerbAnalyze);
  obs::Counter& verb_lint = obs::metrics().counter(obs::kServeVerbLint);
  obs::Counter& verb_fix = obs::metrics().counter(obs::kServeVerbFix);
  obs::Counter& verb_explore = obs::metrics().counter(obs::kServeVerbExplore);
  obs::Counter& verb_stats = obs::metrics().counter(obs::kServeVerbStats);
  obs::Histogram& queue_depth =
      obs::metrics().histogram(obs::kServeQueueDepth);
  obs::Histogram& latency = obs::metrics().histogram(obs::kServeRequestLatency);
};

const ServeMetrics& serve_metrics() {
  static const ServeMetrics m;
  return m;
}

}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  pool_ = std::make_unique<support::TaskPool>(
      support::resolve_jobs(opts_.jobs), opts_.queue_limit);
  eval::ArtifactCache& cache = eval::artifact_cache();
  if (opts_.cache_budget > 0) cache.set_byte_budget(opts_.cache_budget);
  if (!opts_.cache_snapshot.empty() &&
      std::filesystem::exists(opts_.cache_snapshot)) {
    cache.load_snapshot(opts_.cache_snapshot);
  }
}

Server::~Server() { drain(); }

void Server::submit_line(const std::string& line,
                         std::function<void(std::string)> respond) {
  const ServeMetrics& metrics = serve_metrics();
  requests_.fetch_add(1, std::memory_order_relaxed);
  metrics.requests.add();

  ParseOutcome parsed = parse_request(line);
  if (!parsed.ok) {
    rejected_malformed_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics.rejected_malformed.add();
    metrics.error.add();
    respond(make_error_response(parsed.id, parsed.error_kind,
                                parsed.error_message));
    return;
  }
  Request& req = parsed.request;

  if (shutdown_requested_.load(std::memory_order_relaxed) ||
      drained_.load(std::memory_order_relaxed)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics.error.add();
    respond(make_error_response(req.id, "shutting_down",
                                "server is draining; request not admitted"));
    return;
  }

  if (req.verb == Verb::Shutdown) {
    // Acknowledged inline so the ack cannot be stuck behind queued work;
    // the serve loop drains (running everything already admitted) before
    // exiting.
    shutdown_requested_.store(true, std::memory_order_relaxed);
    ok_.fetch_add(1, std::memory_order_relaxed);
    metrics.ok.add();
    respond(make_ok_response(req.id, Verb::Shutdown, [](json::Writer& w) {
      w.begin_object().key("draining").value(true).end_object();
    }));
    return;
  }

  metrics.queue_depth.observe(pool_->queue_depth());
  const std::uint64_t admit_ns = obs::now_wall_ns();
  const int priority = req.priority;
  // The callback is shared with the task up front, NOT moved into it:
  // try_submit constructs the closure before deciding, so a move would
  // leave `respond` empty on the rejection path below.
  auto respond_shared = std::make_shared<std::function<void(std::string)>>(
      std::move(respond));
  const bool admitted = pool_->try_submit(
      priority, [this, req = std::move(req), respond_shared, admit_ns]() {
        handle_admitted(req, admit_ns, *respond_shared);
      });
  if (!admitted) {
    // try_submit refused: the bounded queue is full (backpressure) or the
    // pool closed between the drain check above and here.
    const bool closing = pool_->closed();
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics.error.add();
    if (closing) {
      (*respond_shared)(
          make_error_response(parsed.id, "shutting_down",
                              "server is draining; request not admitted"));
    } else {
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected_queue_full.add();
      (*respond_shared)(make_error_response(
          parsed.id, "queue_full",
          "admission queue at --queue-limit; retry after responses drain"));
    }
  }
}

std::string Server::handle_line(const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool done = false;
  submit_line(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(r);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return response;
}

void Server::handle_admitted(const Request& req, std::uint64_t admit_ns,
                             const std::function<void(std::string)>& respond) {
  const ServeMetrics& metrics = serve_metrics();
  const std::int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : opts_.default_deadline_ms;
  if (deadline_ms > 0) {
    const std::uint64_t waited_ms =
        (obs::now_wall_ns() - admit_ns) / 1'000'000ULL;
    if (waited_ms > static_cast<std::uint64_t>(deadline_ms)) {
      rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected_deadline.add();
      metrics.error.add();
      respond(make_error_response(
          req.id, "deadline_expired",
          "deadline_ms elapsed while queued (waited " +
              std::to_string(waited_ms) + " ms)"));
      return;
    }
  }

  std::string response;
  {
    obs::Span span(obs::kSpanServeRequest, req.id);
    const std::uint64_t tick = register_active_tick();
    try {
      response = make_ok_response(
          req.id, req.verb, [&](json::Writer& w) { run_verb(req, w); });
      ok_.fetch_add(1, std::memory_order_relaxed);
      metrics.ok.add();
    } catch (const Error& e) {
      response = make_error_response(req.id, "analysis_failed", e.what());
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics.error.add();
    } catch (const std::exception& e) {
      response = make_error_response(req.id, "internal", e.what());
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics.error.add();
    }
    unregister_active_tick(tick);
  }
  respond(std::move(response));
  metrics.latency.observe((obs::now_wall_ns() - admit_ns) / 1'000ULL);
}

void Server::run_verb(const Request& req, json::Writer& w) {
  const ServeMetrics& metrics = serve_metrics();
  eval::ArtifactCache& cache = eval::artifact_cache();
  // Hashed once here; every artifact below is probed with this key.
  const eval::Source code(req.code);
  switch (req.verb) {
    case Verb::Analyze: {
      metrics.verb_analyze.add();
      // The token count rides along in the response and -- being a
      // snapshot-persisted artifact kind -- gives the drain-time snapshot
      // warm-restart value. The detectors read the shared cache under
      // default options, so warmth transfers across clients and the CLI.
      const int tokens = cache.token_count(code);
      write_analyze_result(
          w, core::make_detector(req.detector)->analyze(code).report, tokens);
      return;
    }
    case Verb::Lint: {
      metrics.verb_lint.add();
      const int tokens = cache.token_count(code);
      write_lint_result(w, cache.lint_report(code), tokens);
      return;
    }
    case Verb::Fix:
      metrics.verb_fix.add();
      // Never writes files: the patched source rides in the response.
      write_fix_result(w, cache.repair_result(code, {}));
      return;
    case Verb::Explore:
      metrics.verb_explore.add();
      write_explore_result(w, cache.explore_result(code, {}));
      return;
    case Verb::Stats:
      metrics.verb_stats.add();
      write_stats(w);
      return;
    case Verb::Shutdown:
      break;  // handled at admission
  }
  throw Error("unreachable verb");
}

void Server::write_stats(json::Writer& w) {
  eval::ArtifactCache& cache = eval::artifact_cache();
  const auto [probes, computes] = eval::ArtifactCache::counter_totals();
  const auto count = [](std::uint64_t n) {
    return static_cast<std::int64_t>(n);
  };
  w.begin_object();
  w.key("server").begin_object();
  w.key("jobs").value(pool_->size());
  w.key("queue_limit").value(count(opts_.queue_limit));
  w.key("queue_depth").value(count(pool_->queue_depth()));
  w.key("executed").value(count(pool_->executed()));
  w.key("requests").value(count(requests_.load()));
  w.key("responses_ok").value(count(ok_.load()));
  w.key("responses_error").value(count(errors_.load()));
  w.key("rejected").begin_object();
  w.key("queue_full").value(count(rejected_queue_full_.load()));
  w.key("deadline").value(count(rejected_deadline_.load()));
  w.key("malformed").value(count(rejected_malformed_.load()));
  w.end_object();
  w.end_object();
  w.key("cache").begin_object();
  w.key("entries").value(count(cache.size()));
  w.key("resident_bytes").value(count(cache.resident_bytes()));
  w.key("byte_budget").value(count(cache.byte_budget()));
  w.key("condemned").value(count(cache.condemned_count()));
  w.key("probes").value(count(probes));
  w.key("computes").value(count(computes));
  w.key("hits").value(count(probes - computes));
  w.end_object();
  w.end_object();
}

std::uint64_t Server::register_active_tick() {
  const std::uint64_t tick = eval::artifact_cache().current_tick();
  std::lock_guard<std::mutex> lock(active_mu_);
  active_ticks_.insert(tick);
  return tick;
}

void Server::unregister_active_tick(std::uint64_t tick) {
  std::uint64_t min_active = UINT64_MAX;
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_ticks_.erase(active_ticks_.find(tick));
    if (!active_ticks_.empty()) min_active = *active_ticks_.begin();
  }
  // Entries evicted before the oldest still-running request started can
  // no longer be referenced by anyone; with no active requests at all
  // (UINT64_MAX) everything condemned is freeable.
  eval::artifact_cache().reclaim_evicted(min_active);
}

std::uint64_t Server::serve_fd(int in_fd, int out_fd,
                               const std::atomic<bool>* stop) {
  std::mutex out_mu;
  std::uint64_t written = 0;
  const auto respond = [&](std::string line) {
    line += '\n';
    std::lock_guard<std::mutex> lock(out_mu);
    if (!write_all(out_fd, line.data(), line.size())) {
      std::fprintf(stderr, "warning: serve: response write failed\n");
    }
    ++written;
  };

  std::string buffer;
  char chunk[4096];
  bool eof = false;
  while (!eof && !shutdown_requested() &&
         (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      // A signal (SIGINT/SIGTERM without SA_RESTART) lands here; the
      // loop condition sees the stop flag and falls through to drain.
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
    } else {
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) submit_line(line, respond);
      if (shutdown_requested()) break;
    }
    buffer.erase(0, start);
  }
  // A final unterminated line at EOF is still a request.
  if (eof && !buffer.empty() && !shutdown_requested()) {
    submit_line(buffer, respond);
  }
  drain();
  std::lock_guard<std::mutex> lock(out_mu);
  return written;
}

void Server::drain() {
  bool expected = false;
  if (!drained_.compare_exchange_strong(expected, true)) {
    pool_->drain();  // a concurrent drain already closed admission
    return;
  }
  obs::Span span(obs::kSpanServeDrain);
  obs::metrics().counter(obs::kServeDrains).add();
  pool_->close();
  pool_->drain();
  eval::ArtifactCache& cache = eval::artifact_cache();
  if (!opts_.cache_snapshot.empty()) {
    // Temp + rename, same contract as the obs writers: an interrupt
    // after this point can never leave a truncated snapshot.
    const std::string tmp = opts_.cache_snapshot + ".tmp";
    if (cache.save_snapshot(tmp) &&
        std::rename(tmp.c_str(), opts_.cache_snapshot.c_str()) == 0) {
      // saved
    } else {
      std::remove(tmp.c_str());
      std::fprintf(stderr, "warning: cannot write cache snapshot %s\n",
                   opts_.cache_snapshot.c_str());
    }
  }
  obs::flush_obs_outputs();
}

}  // namespace drbml::serve
