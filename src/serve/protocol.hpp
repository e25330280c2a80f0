// Wire protocol of the detection-as-a-service daemon (`drbml serve`).
//
// Transport is newline-delimited JSON: one request object per line in,
// one response object per line out. Requests and responses are paired by
// the caller-chosen `id`; responses may arrive in any order (workers run
// concurrently), so callers must demultiplex by id, never by position.
//
// Request object:
//   {"id": "r1", "verb": "analyze", "code": "...", ...}
//     id          string, required, non-empty; echoed verbatim
//     verb        "analyze" | "lint" | "fix" | "explore" | "stats" |
//                 "shutdown"
//     code        OpenMP C source text (required for the four code verbs
//                 unless `entry` is given)
//     entry       DRB corpus entry name, an alternative to `code`
//     detector    analyze only: any `drbml detectors` spec except
//                 llm:* -- "static" | "dynamic" | "hybrid" | "lint" |
//                 "explore" | "explore:uniform" | "explore:pct" (default
//                 "hybrid"); the result is core::make_detector(detector)'s
//                 report, and has no field for an LLM's model reply
//     priority    int, default 0; higher-priority requests dequeue first
//     deadline_ms int, default 0 (= server default); a request still
//                 queued this many ms after admission is answered
//                 `deadline_expired` instead of run
//
// Response object (exactly one per request line, including rejects):
//   {"id": "r1", "ok": true,  "verb": "analyze", "result": {...}}
//   {"id": "r1", "ok": false, "error": {"kind": "...", "message": "..."}}
//
// Error kinds: bad_json, bad_request, queue_full, deadline_expired,
// shutting_down, analysis_failed, internal. `queue_full` is the
// backpressure signal -- the request was never admitted and can be
// retried; `deadline_expired` means it was admitted but aged out in the
// queue. Responses are compact (no whitespace) and field order is fixed,
// so a given request body yields byte-identical responses at any
// `--jobs` value.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/report.hpp"
#include "explore/explore.hpp"
#include "lint/lint.hpp"
#include "repair/repair.hpp"
#include "support/json.hpp"

namespace drbml::serve {

enum class Verb { Analyze, Lint, Fix, Explore, Stats, Shutdown };

[[nodiscard]] const char* verb_name(Verb v) noexcept;

/// A validated request. `code` is fully resolved (corpus entries are
/// already expanded) by the time parse_request returns.
struct Request {
  std::string id;
  Verb verb = Verb::Stats;
  std::string code;
  std::string detector = "hybrid";  // analyze only
  int priority = 0;
  std::int64_t deadline_ms = 0;  // 0 = use the server default
};

/// Outcome of parsing one request line.
struct ParseOutcome {
  bool ok = false;
  Request request;
  /// On failure: the error kind ("bad_json" | "bad_request"), a human
  /// message, and whatever id could be recovered ("" when the line was
  /// not even an object).
  std::string error_kind;
  std::string error_message;
  std::string id;
};

/// Parses and validates one NDJSON request line. Never throws: malformed
/// input comes back as a structured failure the server answers with an
/// error response.
[[nodiscard]] ParseOutcome parse_request(const std::string& line);

/// Renders a success response line (no trailing newline).
[[nodiscard]] std::string make_ok_response(const std::string& id, Verb verb,
                                           json::Value result);

/// Renders an error response line (no trailing newline).
[[nodiscard]] std::string make_error_response(const std::string& id,
                                              const std::string& kind,
                                              const std::string& message);

// Result serializers, shared by the server, the CLI's --explain output
// and tests. All emit fixed field order and only work-derived values (no
// clocks), preserving the byte-identity contract.
[[nodiscard]] json::Object access_to_json(const analysis::RaceAccess& a);
[[nodiscard]] json::Value race_report_to_json(const analysis::RaceReport& r);
[[nodiscard]] json::Value lint_report_to_json(const lint::LintReport& r);
[[nodiscard]] json::Value repair_result_to_json(const repair::RepairResult& r);
[[nodiscard]] json::Value explore_result_to_json(
    const explore::ExploreResult& r);

}  // namespace drbml::serve
