// Memoized per-entry analysis artifacts, shared across experiments.
//
// Every experiment in the harness re-derives the same handful of
// artifacts from the same ~198 DRB-ML programs: token counts for the
// context-window filter, pretty-printed ASTs and serialized dependence
// graphs for the modal prompts, feature vectors for the personas, and
// static/dynamic race evidence for the traditional-tool baseline. The
// ArtifactCache computes each artifact once per (configuration, program)
// and shares it read-only across all experiments and worker threads.
//
// Every accessor that takes a program takes an eval::Source, whose key is
// fnv1a64 of the code, hashed once by whoever made the Source; the
// accessors combine it with their options hash and never hash the code
// again. The keys are those of "drbml-cache v1" snapshots.
//
// Invariants for adding a new artifact:
//   * the compute function must be pure in the cache key -- the key must
//     cover the code text AND every option that can change the result
//     (see static_report's options hash);
//   * the cached value is shared read-only across threads -- never
//     mutate a returned reference;
//   * computes may run concurrently for different keys, so they must not
//     touch unsynchronized global state.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/race.hpp"
#include "analysis/report.hpp"
#include "eval/source.hpp"
#include "explore/explore.hpp"
#include "lint/lint.hpp"
#include "obs/obs.hpp"
#include "repair/repair.hpp"
#include "runtime/dynamic.hpp"
#include "support/parallel.hpp"

namespace drbml::eval {

class ArtifactCache {
 public:
  /// Model-token count of `code` (SimpleTokenizer).
  int token_count(const Source& code);

  /// Pretty-printed AST of `code`. Throws Error on unparseable input
  /// (same contract as minic::parse_program).
  const std::string& ast_text(const Source& code);

  /// Serialized dependence graph of `code` (DependenceGraph::to_text).
  const std::string& depgraph_text(const Source& code);

  /// Static race report for `code` under `opts`. The key covers every
  /// StaticDetectorOptions field that affects the verdict.
  const analysis::RaceReport& static_report(
      const Source& code, const analysis::StaticDetectorOptions& opts);

  /// Dynamic (vector-clock) race report for `code` under `opts`. The key
  /// covers the schedule seeds and the RunOptions fields. Throws Error on
  /// unparseable or non-executable input (same contract as
  /// DynamicRaceDetector::analyze_source); failures are not cached.
  const analysis::RaceReport& dynamic_report(
      const Source& code, const runtime::DynamicDetectorOptions& opts);

  /// Schedule-exploration outcome for `code` under `opts` (budgeted
  /// uniform/PCT schedule loop, coverage plateau cut, minimized witness).
  /// The key covers every ExploreOptions field, including the embedded
  /// RunOptions (and any replay trace it points at). Throws Error on
  /// unparseable input; failures are not cached.
  const explore::ExploreResult& explore_result(
      const Source& code, const explore::ExploreOptions& opts);

  /// Linter report for `code` under the default LintOptions (all checks,
  /// default detector knobs). Throws Error on unparseable input; failures
  /// are not cached.
  const lint::LintReport& lint_report(const Source& code);

  /// Verified repair outcome for `code` under `opts` (the full
  /// detect -> generate -> apply -> verify loop of repair_source). The key
  /// covers the strategy, the candidate cap, and both detector option
  /// sets. repair_source never throws, so every result is cacheable.
  const repair::RepairResult& repair_result(const Source& code,
                                            const repair::RepairOptions& opts);

  /// Linter findings rendered one per line for prompt embedding
  /// ("(no findings)" when the linter is silent). Parse failures yield a
  /// one-line note instead of throwing, so prompt assembly never aborts.
  const std::string& lint_text(const Source& code);

  /// Static race evidence chains rendered one per line for prompt
  /// embedding: every reported pair ("racy ...") and every discharged
  /// pair ("safe ... discharged by <rule>") under the default detector
  /// options. Parse failures yield a one-line note instead of throwing.
  const std::string& evidence_text(const Source& code);

  /// Entries currently resident across all artifact kinds.
  [[nodiscard]] std::size_t size() const;

  /// Lookups and computes summed over every artifact kind's
  /// `cache.<kind>.probe` / `.compute` counters. The counters are
  /// process-wide, shared by every ArtifactCache; probes - computes is
  /// the warm-hit total the serve `stats` verb reports.
  struct CounterTotals {
    std::uint64_t probes = 0;
    std::uint64_t computes = 0;
  };
  [[nodiscard]] static CounterTotals counter_totals();

  // ------------------------------------------------------ LRU byte budget
  //
  // With a budget set (`--cache-budget` / DRBML_CACHE_BUDGET), every
  // successful probe touches the entry in an LRU list; an entry new to
  // the list is tagged with an approximate byte cost, computed then and
  // only then; when the resident total exceeds the budget,
  // least-recently-used entries are *evicted* -- removed from the index
  // so later probes recompute -- but their storage is only *reclaimed*
  // once the caller says no outstanding reference can still point at it
  // (OnceMap hands out references, so freeing eagerly would dangle).
  // Single-threaded callers reclaim_evicted(UINT64_MAX) whenever
  // convenient; the serve daemon reclaims with the eviction tick of its
  // oldest in-flight request. With the default budget of 0 nothing is
  // ever evicted and the cache behaves exactly as before.

  /// Sets the byte budget (0 = unlimited). Lowering it below the current
  /// resident total evicts immediately.
  void set_byte_budget(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t byte_budget() const;

  /// Approximate bytes of all resident (non-evicted) entries.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  /// Monotonic counter stamped onto evictions; a caller that records
  /// current_tick() before using returned references may later free all
  /// evictions stamped strictly before that tick.
  [[nodiscard]] std::uint64_t current_tick() const;

  /// Frees evicted entries whose eviction tick is < `min_active_tick`
  /// (UINT64_MAX frees everything). Returns the number reclaimed.
  std::size_t reclaim_evicted(std::uint64_t min_active_tick);

  /// Evicted-but-unreclaimed entries (for tests and the stats verb).
  [[nodiscard]] std::size_t condemned_count() const;

  /// Drops everything. Only safe while no experiment is running.
  void clear();

  /// Writes the plain-text artifact kinds (token counts, AST texts,
  /// dependence-graph texts, lint-findings texts) to `path` in the
  /// versioned "drbml-cache v1" format. Detector reports are not
  /// persisted: they are cheap relative to (de)serialization and their
  /// option hashing is an internal detail. Returns false on I/O failure.
  /// Each written entry increments `cache.snapshot.saved`.
  bool save_snapshot(const std::string& path) const;

  /// Seeds the cache from a snapshot written by save_snapshot; returns
  /// the number of entries loaded. An unreadable, truncated, or
  /// otherwise corrupt file is treated as a full miss (nothing is
  /// seeded, 0 is returned) and counted by the `cache.corrupt` metric --
  /// the structured warning that replaces the old silent swallow.
  std::size_t load_snapshot(const std::string& path);

 private:
  /// Artifact kinds that participate in the LRU budget.
  enum class Kind {
    Tokens,
    Ast,
    Depgraph,
    Static,
    Dynamic,
    Explore,
    Lint,
    Repair,
    LintText,
    EvidenceText,
  };
  static constexpr std::size_t kKindCount =
      static_cast<std::size_t>(Kind::EvidenceText) + 1;

  /// A kind's probe and compute counters, looked up in the one list (in
  /// Kind order) that counter_totals() sums. Each accessor keeps its own
  /// pair, so a counter is registered when its kind is first used.
  struct KindCounters {
    obs::Counter& probe;
    obs::Counter& compute;
  };
  static KindCounters counters(Kind kind);

  struct LruEntry {
    Kind kind;
    std::uint64_t key;
    std::uint64_t bytes;
  };
  struct Condemned {
    std::uint64_t tick;
    std::uint64_t bytes;
    std::shared_ptr<const void> handle;  // keeps evicted storage alive
  };

  /// Marks (kind, key) as most recently used. An entry new to the LRU
  /// list enters it at the byte cost `cost()` returns -- called only
  /// then, since a cost walks the artifact -- and, if the budget is
  /// exceeded, evicts from the LRU tail.
  template <typename Cost>
  void touch(Kind kind, std::uint64_t key, Cost&& cost);
  /// Must be called with lru_mu_ held.
  void evict_to_budget_locked();
  std::shared_ptr<const void> erase_kind(Kind kind, std::uint64_t key);

  support::OnceMap<int> tokens_;
  support::OnceMap<std::string> asts_;
  support::OnceMap<std::string> depgraphs_;
  support::OnceMap<analysis::RaceReport> static_reports_;
  support::OnceMap<analysis::RaceReport> dynamic_reports_;
  support::OnceMap<explore::ExploreResult> explore_results_;
  support::OnceMap<lint::LintReport> lint_reports_;
  support::OnceMap<repair::RepairResult> repair_results_;
  support::OnceMap<std::string> lint_texts_;
  support::OnceMap<std::string> evidence_texts_;

  mutable std::mutex lru_mu_;
  std::uint64_t budget_ = 0;  // bytes; 0 = unlimited
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;  // bumped per eviction
  std::list<LruEntry> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<LruEntry>::iterator> lru_index_;
  std::vector<Condemned> condemned_;
};

/// Cache byte budget from the DRBML_CACHE_BUDGET environment variable
/// (strict integer, bytes); 0 when unset or malformed.
[[nodiscard]] std::uint64_t env_cache_budget();

/// The process-wide cache used by the experiment runners.
[[nodiscard]] ArtifactCache& artifact_cache();

}  // namespace drbml::eval
