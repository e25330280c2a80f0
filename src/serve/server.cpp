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
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter(obs::kServeRequests).add();

  ParseOutcome parsed = parse_request(line);
  if (!parsed.ok) {
    rejected_malformed_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter(obs::kServeRejectedMalformed).add();
    obs::metrics().counter(obs::kServeResponsesError).add();
    respond(make_error_response(parsed.id, parsed.error_kind,
                                parsed.error_message));
    return;
  }
  Request& req = parsed.request;

  if (shutdown_requested_.load(std::memory_order_relaxed) ||
      drained_.load(std::memory_order_relaxed)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter(obs::kServeResponsesError).add();
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
    obs::metrics().counter(obs::kServeResponsesOk).add();
    json::Object ack;
    ack.set("draining", json::Value(true));
    respond(make_ok_response(req.id, Verb::Shutdown,
                             json::Value(std::move(ack))));
    return;
  }

  obs::metrics()
      .histogram(obs::kServeQueueDepth)
      .observe(pool_->queue_depth());
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
    obs::metrics().counter(obs::kServeResponsesError).add();
    if (closing) {
      (*respond_shared)(
          make_error_response(parsed.id, "shutting_down",
                              "server is draining; request not admitted"));
    } else {
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter(obs::kServeRejectedQueueFull).add();
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
  const std::int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : opts_.default_deadline_ms;
  if (deadline_ms > 0) {
    const std::uint64_t waited_ms =
        (obs::now_wall_ns() - admit_ns) / 1'000'000ULL;
    if (waited_ms > static_cast<std::uint64_t>(deadline_ms)) {
      rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
      errors_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter(obs::kServeRejectedDeadline).add();
      obs::metrics().counter(obs::kServeResponsesError).add();
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
      response = make_ok_response(req.id, req.verb, run_verb(req));
      ok_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter(obs::kServeResponsesOk).add();
    } catch (const Error& e) {
      response = make_error_response(req.id, "analysis_failed", e.what());
      errors_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter(obs::kServeResponsesError).add();
    } catch (const std::exception& e) {
      response = make_error_response(req.id, "internal", e.what());
      errors_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter(obs::kServeResponsesError).add();
    }
    unregister_active_tick(tick);
  }
  respond(std::move(response));
  obs::metrics()
      .histogram(obs::kServeRequestLatency)
      .observe((obs::now_wall_ns() - admit_ns) / 1'000ULL);
}

json::Value Server::run_verb(const Request& req) {
  eval::ArtifactCache& cache = eval::artifact_cache();
  switch (req.verb) {
    case Verb::Analyze: {
      obs::metrics().counter(obs::kServeVerbAnalyze).add();
      // The token count rides along in the response and -- being a
      // snapshot-persisted artifact kind -- gives the drain-time snapshot
      // warm-restart value. The detectors read the shared cache under
      // default options, so warmth transfers across clients and the CLI.
      const int tokens = cache.token_count(req.code);
      json::Value result = race_report_to_json(
          core::make_detector(req.detector)->analyze(req.code).report);
      result.as_object().set("tokens", json::Value(tokens));
      return result;
    }
    case Verb::Lint: {
      obs::metrics().counter(obs::kServeVerbLint).add();
      const int tokens = cache.token_count(req.code);
      json::Value result = lint_report_to_json(cache.lint_report(req.code));
      result.as_object().set("tokens", json::Value(tokens));
      return result;
    }
    case Verb::Fix:
      obs::metrics().counter(obs::kServeVerbFix).add();
      // Never writes files: the patched source rides in the response.
      return repair_result_to_json(cache.repair_result(req.code, {}));
    case Verb::Explore:
      obs::metrics().counter(obs::kServeVerbExplore).add();
      return explore_result_to_json(cache.explore_result(req.code, {}));
    case Verb::Stats:
      obs::metrics().counter(obs::kServeVerbStats).add();
      return stats_result();
    case Verb::Shutdown:
      break;  // handled at admission
  }
  throw Error("unreachable verb");
}

json::Value Server::stats_result() {
  eval::ArtifactCache& cache = eval::artifact_cache();
  const auto [probes, computes] = eval::ArtifactCache::counter_totals();

  json::Object server;
  server.set("jobs", json::Value(pool_->size()));
  server.set("queue_limit",
             json::Value(static_cast<std::int64_t>(opts_.queue_limit)));
  server.set("queue_depth",
             json::Value(static_cast<std::int64_t>(pool_->queue_depth())));
  server.set("executed",
             json::Value(static_cast<std::int64_t>(pool_->executed())));
  server.set("requests",
             json::Value(static_cast<std::int64_t>(requests_.load())));
  server.set("responses_ok", json::Value(static_cast<std::int64_t>(ok_.load())));
  server.set("responses_error",
             json::Value(static_cast<std::int64_t>(errors_.load())));
  json::Object rejected;
  rejected.set("queue_full", json::Value(static_cast<std::int64_t>(
                                 rejected_queue_full_.load())));
  rejected.set("deadline", json::Value(static_cast<std::int64_t>(
                               rejected_deadline_.load())));
  rejected.set("malformed", json::Value(static_cast<std::int64_t>(
                                rejected_malformed_.load())));
  server.set("rejected", json::Value(std::move(rejected)));

  json::Object cache_obj;
  cache_obj.set("entries", json::Value(static_cast<std::int64_t>(cache.size())));
  cache_obj.set("resident_bytes",
                json::Value(static_cast<std::int64_t>(cache.resident_bytes())));
  cache_obj.set("byte_budget",
                json::Value(static_cast<std::int64_t>(cache.byte_budget())));
  cache_obj.set("condemned", json::Value(static_cast<std::int64_t>(
                                 cache.condemned_count())));
  cache_obj.set("probes", json::Value(static_cast<std::int64_t>(probes)));
  cache_obj.set("computes", json::Value(static_cast<std::int64_t>(computes)));
  cache_obj.set("hits",
                json::Value(static_cast<std::int64_t>(probes - computes)));

  json::Object o;
  o.set("server", json::Value(std::move(server)));
  o.set("cache", json::Value(std::move(cache_obj)));
  return json::Value(std::move(o));
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
