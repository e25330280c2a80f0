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
// `--jobs` value. A response is written in one pass by a json::Writer:
// the envelope and the result stream into one string, with no JSON tree
// built in between.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

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

/// Renders a success response line (no trailing newline):
/// `{"id":...,"ok":true,"verb":...,"result":R}`, where R is the one value
/// `write_result(writer)` writes in place.
template <typename WriteResult>
[[nodiscard]] std::string make_ok_response(std::string_view id, Verb verb,
                                           WriteResult&& write_result) {
  std::string out;
  json::Writer w(out);
  w.begin_object();
  w.key("id").value(id);
  w.key("ok").value(true);
  w.key("verb").value(verb_name(verb));
  w.key("result");
  write_result(w);
  w.end_object();
  return out;
}

/// Renders an error response line (no trailing newline).
[[nodiscard]] std::string make_error_response(std::string_view id,
                                              std::string_view kind,
                                              std::string_view message);

// Result writers, shared by the server and tests. Each writes one object
// with fixed field order and only work-derived values (no clocks),
// preserving the byte-identity contract. `tokens` is the program's
// model-token count, the last member of analyze and lint results.
void write_analyze_result(json::Writer& w, const analysis::RaceReport& r,
                          int tokens);
void write_lint_result(json::Writer& w, const lint::LintReport& r, int tokens);
void write_fix_result(json::Writer& w, const repair::RepairResult& r);
void write_explore_result(json::Writer& w, const explore::ExploreResult& r);

/// One access as a JSON object, for the CLI's `--explain --format json`
/// tree (pretty-printed, so it cannot stream); write_analyze_result
/// writes the same members in the same order.
[[nodiscard]] json::Object access_to_json(const analysis::RaceAccess& a);

}  // namespace drbml::serve
