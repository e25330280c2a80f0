// The serve daemon: a long-lived request loop over the protocol in
// serve/protocol.hpp, executing verbs on a priority TaskPool and sharing
// one warm ArtifactCache across every request.
//
// Layering:
//
//   serve_fd / submit_line        transport + admission control
//        |                          (bounded queue -> queue_full, or a
//        |                           paced reader; closed pool ->
//        v                           shutting_down)
//   TaskPool (support/parallel)   priority scheduling, N workers
//        |
//        v
//   handle_admitted               deadline-expiry check, obs span,
//        |                        cache-tick registration
//        v
//   ArtifactCache (eval)          the shared warm cache; repeated
//                                 requests for the same code hit
//
// Admission control: submit_line never blocks. A request that cannot be
// queued is answered immediately -- `queue_full` when the bounded queue
// is at --queue-limit (backpressure: retry later), `shutting_down` once
// a drain began. serve_fd instead reads a stream at its workers' pace: it
// waits for room in the queue before it submits the next line. Admitted
// requests whose deadline elapses while queued are answered
// `deadline_expired` without running. Exactly one response is emitted
// per request line, always.
//
// Graceful shutdown: drain() closes admission, runs everything already
// queued, optionally saves the cache snapshot, and flushes --metrics /
// --trace output via obs::flush_obs_outputs() -- so SIGINT/SIGTERM (the
// CLI wires them to the serve loop) never drops in-flight responses or
// truncates observability files.
//
// Memory: with a cache byte budget set, request workers register the
// cache tick they started at; evicted entries are reclaimed only once no
// active request predates their eviction (ArtifactCache's deferred
// reclamation contract), so references held by running verbs never
// dangle.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "serve/protocol.hpp"
#include "support/parallel.hpp"

namespace drbml::serve {

struct ServerOptions {
  /// Worker threads (support::resolve_jobs semantics; 0 = auto).
  int jobs = 0;
  /// Bounded admission queue; 0 = unbounded (no backpressure).
  std::size_t queue_limit = 64;
  /// Default deadline applied to requests that carry none; 0 = none.
  std::int64_t default_deadline_ms = 0;
  /// ArtifactCache byte budget; 0 = unlimited.
  std::uint64_t cache_budget = 0;
  /// Cache snapshot path: loaded at construction, saved at drain ("" =
  /// no persistence).
  std::string cache_snapshot;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  /// Drains (close admission, run queued work, flush) if the caller
  /// has not already.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one NDJSON request line. `respond` is invoked exactly once
  /// with the response line (no newline) -- inline for rejects, from a
  /// worker thread for executed requests. `respond` must be thread-safe
  /// against concurrent calls for different requests.
  void submit_line(const std::string& line,
                   std::function<void(std::string)> respond);

  /// Synchronous convenience: submit + wait for the one response
  /// (in-process callers and tests).
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Reads NDJSON requests from `in_fd` until EOF, a `shutdown` verb, or
  /// `*stop` becomes true (the CLI's signal flag; the read loop is
  /// EINTR-aware so a signal interrupts a blocking read). Submits each
  /// line once the admission queue has room, so a full queue slows the
  /// reader instead of refusing the stream's own requests. Writes each
  /// response line to `out_fd` under a lock. Drains before returning.
  /// Returns the number of responses written this session.
  std::uint64_t serve_fd(int in_fd, int out_fd,
                         const std::atomic<bool>* stop = nullptr);

  /// Graceful shutdown: stop admitting, finish queued + running work,
  /// save the cache snapshot (if configured), flush obs outputs.
  /// Idempotent.
  void drain();

  /// True once a `shutdown` request was accepted (serve loops exit).
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t queue_depth() const { return pool_->queue_depth(); }
  [[nodiscard]] const ServerOptions& options() const noexcept { return opts_; }

 private:
  struct ActiveTicket;
  void handle_admitted(const Request& req, std::uint64_t admit_ns,
                       const std::function<void(std::string)>& respond);
  /// Runs a verb and writes its result into `w`; throws on failure, and
  /// the caller then drops what was written.
  void run_verb(const Request& req, json::Writer& w);
  void write_stats(json::Writer& w);

  /// Registers a request's cache tick; unregistering reclaims evictions
  /// no remaining active request can reference.
  std::uint64_t register_active_tick();
  void unregister_active_tick(std::uint64_t tick);

  ServerOptions opts_;
  std::unique_ptr<support::TaskPool> pool_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> drained_{false};

  std::mutex active_mu_;
  std::multiset<std::uint64_t> active_ticks_;

  // Request accounting beyond the obs counters: stats snapshots must
  // reflect this server instance, not process-wide totals.
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_deadline_{0};
  std::atomic<std::uint64_t> rejected_malformed_{0};
};

}  // namespace drbml::serve
