#include "eval/artifact_cache.hpp"

#include <cinttypes>
#include <climits>
#include <optional>
#include <string_view>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/depgraph.hpp"
#include "llm/tokenizer.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "obs/catalog.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace drbml::eval {

namespace {

std::uint64_t hash_static_options(const analysis::StaticDetectorOptions& o) {
  std::uint64_t bits = 0;
  bits = bits << 1 | static_cast<std::uint64_t>(o.collect.track_call_effects);
  bits = bits << 1 | static_cast<std::uint64_t>(o.depend.conservative_nonaffine);
  bits = bits << 1 | static_cast<std::uint64_t>(o.depend.model_thread_id);
  bits = bits << 1 | static_cast<std::uint64_t>(o.depend.symbolic_bounds);
  bits = bits << 1 | static_cast<std::uint64_t>(o.model_locks);
  bits = bits << 1 | static_cast<std::uint64_t>(o.model_depend_clauses);
  bits = bits << 1 | static_cast<std::uint64_t>(o.model_ordered);
  bits = bits << 1 | static_cast<std::uint64_t>(o.model_serial_regions);
  return hash_combine(
      hash_combine(bits, static_cast<std::uint64_t>(o.max_pairs)),
      static_cast<std::uint64_t>(o.max_discharged));
}

std::uint64_t hash_run_options(const runtime::RunOptions& o) {
  std::uint64_t h = hash_combine(
      static_cast<std::uint64_t>(o.num_threads),
      hash_combine(o.seed, static_cast<std::uint64_t>(o.preempt_every)));
  h = hash_combine(h, o.step_limit);
  h = hash_combine(h, static_cast<std::uint64_t>(o.max_pairs));
  h = hash_combine(h, static_cast<std::uint64_t>(o.strategy));
  h = hash_combine(h, static_cast<std::uint64_t>(o.pct_depth));
  h = hash_combine(h, o.pct_expected_steps);
  h = hash_combine(h, static_cast<std::uint64_t>(o.capture_trace) << 1 |
                          static_cast<std::uint64_t>(o.collect_coverage));
  // A replay trace is part of the schedule the options describe: hash
  // its decisions, not the pointer.
  if (o.replay != nullptr) {
    for (const runtime::RegionTrace& region : o.replay->regions) {
      h = hash_combine(h, region.size());
      for (const runtime::ScheduleDecision& d : region) {
        h = hash_combine(
            h, hash_combine(d.step, static_cast<std::uint64_t>(d.target) << 1 |
                                        static_cast<std::uint64_t>(d.forced)));
      }
    }
  }
  return h;
}

std::uint64_t hash_dynamic_options(const runtime::DynamicDetectorOptions& o) {
  std::uint64_t h = hash_run_options(o.run);
  for (std::uint64_t seed : o.schedule_seeds) h = hash_combine(h, seed);
  return h;
}

std::uint64_t hash_explore_options(const explore::ExploreOptions& o) {
  std::uint64_t h = hash_run_options(o.run);
  h = hash_combine(h, static_cast<std::uint64_t>(o.strategy));
  h = hash_combine(h, static_cast<std::uint64_t>(o.pct_depth));
  h = hash_combine(h, o.pct_expected_steps);
  h = hash_combine(h, static_cast<std::uint64_t>(o.max_schedules));
  h = hash_combine(h, static_cast<std::uint64_t>(o.plateau_window));
  h = hash_combine(h, o.seed);
  h = hash_combine(h, static_cast<std::uint64_t>(o.minimize));
  return hash_combine(h, static_cast<std::uint64_t>(o.max_minimize_replays));
}

std::uint64_t hash_repair_options(const repair::RepairOptions& o) {
  std::uint64_t h = hash_combine(static_cast<std::uint64_t>(o.strategy),
                                 static_cast<std::uint64_t>(o.max_candidates));
  h = hash_combine(h, hash_static_options(o.static_opts));
  h = hash_combine(h, hash_dynamic_options(o.dynamic_opts));
  h = hash_combine(h, static_cast<std::uint64_t>(o.explore_schedules));
  return hash_combine(h, static_cast<std::uint64_t>(o.explore_pct_depth));
}

// Approximate resident byte costs for the LRU budget. Estimates only
// need to scale with the real footprint -- eviction order and the budget
// comparison tolerate slack -- so each is a flat struct overhead plus
// the variable-size payloads.

std::uint64_t cost_tokens() { return 16; }

std::uint64_t cost_string(const std::string& s) { return 64 + s.size(); }

std::uint64_t cost_evidence(const analysis::Evidence& e) {
  std::uint64_t b = 96 + e.dep_test.size() + e.dep_detail.size() +
                    e.discharge_rule.size();
  for (const auto& s : e.locks_first) b += 32 + s.size();
  for (const auto& s : e.locks_second) b += 32 + s.size();
  for (const auto& s : e.common_guards) b += 32 + s.size();
  for (const auto& step : e.steps) {
    b += 64 + step.rule.size() + step.detail.size();
  }
  return b;
}

std::uint64_t cost_report(const analysis::RaceReport& r) {
  std::uint64_t b = 128;
  for (const auto& p : r.pairs) {
    b += 128 + p.first.expr_text.size() + p.second.expr_text.size() +
         p.note.size() + cost_evidence(p.evidence);
  }
  for (const auto& d : r.discharged) {
    b += 128 + d.first.expr_text.size() + d.second.expr_text.size() +
         cost_evidence(d.evidence);
  }
  for (const auto& diag : r.diagnostics) b += 32 + diag.size();
  return b;
}

std::uint64_t cost_explore(const explore::ExploreResult& r) {
  return 256 + cost_report(r.report) + 8 * r.coverage.size() +
         48 * r.schedules.size() + r.witness.size();
}

std::uint64_t cost_lint(const lint::LintReport& r) {
  std::uint64_t b = 96 + cost_report(r.race);
  for (const auto& d : r.diagnostics) {
    b += 160 + d.message.size() + d.fixit.size() + d.pattern.size() +
         d.check_id.size();
    for (const auto& rel : d.related) b += 48 + rel.message.size();
  }
  return b;
}

std::uint64_t cost_repair(const repair::RepairResult& r) {
  return 192 + r.patched.size() + r.patch_id.size() + r.description.size() +
         r.family.size() + r.message.size();
}

/// Every artifact kind's probe and compute counters, in
/// ArtifactCache::Kind order.
const std::pair<const obs::MetricDesc&, const obs::MetricDesc&>
    kKindMetrics[] = {
        {obs::kCacheTokensProbe, obs::kCacheTokensCompute},
        {obs::kCacheAstProbe, obs::kCacheAstCompute},
        {obs::kCacheDepgraphProbe, obs::kCacheDepgraphCompute},
        {obs::kCacheStaticProbe, obs::kCacheStaticCompute},
        {obs::kCacheDynamicProbe, obs::kCacheDynamicCompute},
        {obs::kCacheExploreProbe, obs::kCacheExploreCompute},
        {obs::kCacheLintProbe, obs::kCacheLintCompute},
        {obs::kCacheRepairProbe, obs::kCacheRepairCompute},
        {obs::kCacheLintTextProbe, obs::kCacheLintTextCompute},
        {obs::kCacheEvidenceTextProbe, obs::kCacheEvidenceTextCompute},
};

}  // namespace

namespace {

/// One LRU-index key per (kind, OnceMap key): token_count and ast_text
/// share the raw code hash, so the kind must participate.
std::uint64_t lru_id(int kind, std::uint64_t key) {
  return hash_combine(static_cast<std::uint64_t>(kind) + 1, key);
}

}  // namespace

template <typename Cost>
void ArtifactCache::touch(Kind kind, std::uint64_t key, Cost&& cost) {
  std::lock_guard<std::mutex> lock(lru_mu_);
  const std::uint64_t id = lru_id(static_cast<int>(kind), key);
  auto it = lru_index_.find(id);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  const std::uint64_t bytes = cost();
  lru_.push_front(LruEntry{kind, key, bytes});
  lru_index_.emplace(id, lru_.begin());
  resident_bytes_ += bytes;
  evict_to_budget_locked();
}

ArtifactCache::KindCounters ArtifactCache::counters(Kind kind) {
  static_assert(std::size(kKindMetrics) == kKindCount,
                "one counter pair per artifact kind");
  const auto& [probe, compute] = kKindMetrics[static_cast<std::size_t>(kind)];
  return {obs::metrics().counter(probe), obs::metrics().counter(compute)};
}

ArtifactCache::CounterTotals ArtifactCache::counter_totals() {
  CounterTotals totals;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const KindCounters count = counters(static_cast<Kind>(k));
    totals.probes += count.probe.value();
    totals.computes += count.compute.value();
  }
  return totals;
}

int ArtifactCache::token_count(const Source& code) {
  static const KindCounters count = counters(Kind::Tokens);
  count.probe.add();
  const std::uint64_t key = code.key();
  const int v = tokens_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactTokens);
    llm::SimpleTokenizer tok;
    return tok.count_tokens(code.text());
  });
  touch(Kind::Tokens, key, cost_tokens);
  return v;
}

const std::string& ArtifactCache::ast_text(const Source& code) {
  static const KindCounters count = counters(Kind::Ast);
  count.probe.add();
  const std::uint64_t key = code.key();
  const std::string& v = asts_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactAst);
    minic::Program prog = minic::parse_program(code.text());
    return minic::unit_to_string(*prog.unit);
  });
  touch(Kind::Ast, key, [&] { return cost_string(v); });
  return v;
}

const std::string& ArtifactCache::depgraph_text(const Source& code) {
  static const KindCounters count = counters(Kind::Depgraph);
  count.probe.add();
  const std::uint64_t key = code.key();
  const std::string& v = depgraphs_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactDepgraph);
    return analysis::build_dependence_graph(std::string(code.text()))
        .to_text();
  });
  touch(Kind::Depgraph, key, [&] { return cost_string(v); });
  return v;
}

const analysis::RaceReport& ArtifactCache::static_report(
    const Source& code, const analysis::StaticDetectorOptions& opts) {
  static const KindCounters count = counters(Kind::Static);
  count.probe.add();
  const std::uint64_t key = hash_combine(code.key(), hash_static_options(opts));
  const analysis::RaceReport& v = static_reports_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactStatic);
    analysis::StaticRaceDetector detector(opts);
    return detector.analyze_source(code.text());
  });
  touch(Kind::Static, key, [&] { return cost_report(v); });
  return v;
}

const analysis::RaceReport& ArtifactCache::dynamic_report(
    const Source& code, const runtime::DynamicDetectorOptions& opts) {
  static const KindCounters count = counters(Kind::Dynamic);
  count.probe.add();
  const std::uint64_t key =
      hash_combine(code.key(), hash_dynamic_options(opts));
  const analysis::RaceReport& v = dynamic_reports_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactDynamic);
    runtime::DynamicRaceDetector detector(opts);
    return detector.analyze_source(code.text());
  });
  touch(Kind::Dynamic, key, [&] { return cost_report(v); });
  return v;
}

const explore::ExploreResult& ArtifactCache::explore_result(
    const Source& code, const explore::ExploreOptions& opts) {
  static const KindCounters count = counters(Kind::Explore);
  count.probe.add();
  const std::uint64_t key =
      hash_combine(code.key(), hash_explore_options(opts));
  const explore::ExploreResult& v = explore_results_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactExplore);
    return explore::explore_source(code.text(), opts);
  });
  touch(Kind::Explore, key, [&] { return cost_explore(v); });
  return v;
}

const repair::RepairResult& ArtifactCache::repair_result(
    const Source& code, const repair::RepairOptions& opts) {
  static const KindCounters count = counters(Kind::Repair);
  count.probe.add();
  const std::uint64_t key =
      hash_combine(code.key(), hash_repair_options(opts));
  const repair::RepairResult& v = repair_results_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactRepair);
    return repair::repair_source(std::string(code.text()), opts);
  });
  touch(Kind::Repair, key, [&] { return cost_repair(v); });
  return v;
}

const lint::LintReport& ArtifactCache::lint_report(const Source& code) {
  static const KindCounters count = counters(Kind::Lint);
  count.probe.add();
  // Default LintOptions only, so the code hash alone is a sound key.
  const std::uint64_t key = code.key();
  const lint::LintReport& v = lint_reports_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactLint);
    const lint::Linter linter;
    return linter.lint_source(code.text());
  });
  touch(Kind::Lint, key, [&] { return cost_lint(v); });
  return v;
}

const std::string& ArtifactCache::lint_text(const Source& code) {
  static const KindCounters count = counters(Kind::LintText);
  count.probe.add();
  const std::uint64_t key = code.key();
  const std::string& v = lint_texts_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactLintText);
    std::string out;
    try {
      for (const auto& d : lint_report(code).diagnostics) {
        out += lint::to_text_line(d) + "\n";
      }
    } catch (const Error& e) {
      return std::string("note: linter unavailable: ") + e.what() + "\n";
    }
    if (out.empty()) out = "(no findings)\n";
    return out;
  });
  touch(Kind::LintText, key, [&] { return cost_string(v); });
  return v;
}

const std::string& ArtifactCache::evidence_text(const Source& code) {
  static const KindCounters count = counters(Kind::EvidenceText);
  count.probe.add();
  const std::uint64_t key = code.key();
  const std::string& v = evidence_texts_.get_or_compute(key, [&] {
    count.compute.add();
    obs::Span span(obs::kSpanArtifactEvidenceText);
    std::string out;
    try {
      // Default options: the full precision layer, same configuration the
      // static/hybrid detector columns run with.
      const analysis::RaceReport& report = static_report(code, {});
      for (const auto& p : report.pairs) {
        out += "racy " + p.first.expr_text + " (line " +
               std::to_string(p.first.loc.line) + ") vs " +
               p.second.expr_text + " (line " +
               std::to_string(p.second.loc.line) + "): " +
               analysis::evidence_to_text(p.evidence) + "\n";
      }
      for (const auto& d : report.discharged) {
        out += "safe " + d.first.expr_text + " (line " +
               std::to_string(d.first.loc.line) + ") vs " +
               d.second.expr_text + " (line " +
               std::to_string(d.second.loc.line) + "): discharged by " +
               d.evidence.discharge_rule + "; " +
               analysis::evidence_to_text(d.evidence) + "\n";
      }
    } catch (const Error& e) {
      return std::string("note: static analysis unavailable: ") + e.what() +
             "\n";
    }
    if (out.empty()) out = "(no candidate pairs)\n";
    return out;
  });
  touch(Kind::EvidenceText, key, [&] { return cost_string(v); });
  return v;
}

std::size_t ArtifactCache::size() const {
  return tokens_.size() + asts_.size() + depgraphs_.size() +
         static_reports_.size() + dynamic_reports_.size() +
         explore_results_.size() + lint_reports_.size() +
         repair_results_.size() + lint_texts_.size() +
         evidence_texts_.size();
}

void ArtifactCache::clear() {
  tokens_.clear();
  asts_.clear();
  depgraphs_.clear();
  static_reports_.clear();
  dynamic_reports_.clear();
  explore_results_.clear();
  lint_reports_.clear();
  repair_results_.clear();
  lint_texts_.clear();
  evidence_texts_.clear();
  std::lock_guard<std::mutex> lock(lru_mu_);
  lru_.clear();
  lru_index_.clear();
  condemned_.clear();
  resident_bytes_ = 0;
}

// ------------------------------------------------------- LRU byte budget

void ArtifactCache::evict_to_budget_locked() {
  if (budget_ == 0) return;
  static obs::Counter& evictions = obs::metrics().counter(obs::kCacheEvictCount);
  static obs::Counter& evicted_bytes =
      obs::metrics().counter(obs::kCacheEvictBytes);
  // Never evict the most-recently-used entry: a single artifact larger
  // than the whole budget stays resident instead of thrashing.
  while (resident_bytes_ > budget_ && lru_.size() > 1) {
    const LruEntry victim = lru_.back();
    lru_index_.erase(lru_id(static_cast<int>(victim.kind), victim.key));
    lru_.pop_back();
    resident_bytes_ -= victim.bytes;
    ++tick_;
    std::shared_ptr<const void> handle = erase_kind(victim.kind, victim.key);
    if (handle != nullptr) {
      condemned_.push_back(Condemned{tick_, victim.bytes, std::move(handle)});
    }
    evictions.add();
    evicted_bytes.add(victim.bytes);
  }
}

std::shared_ptr<const void> ArtifactCache::erase_kind(Kind kind,
                                                      std::uint64_t key) {
  switch (kind) {
    case Kind::Tokens: return tokens_.erase(key);
    case Kind::Ast: return asts_.erase(key);
    case Kind::Depgraph: return depgraphs_.erase(key);
    case Kind::Static: return static_reports_.erase(key);
    case Kind::Dynamic: return dynamic_reports_.erase(key);
    case Kind::Explore: return explore_results_.erase(key);
    case Kind::Lint: return lint_reports_.erase(key);
    case Kind::Repair: return repair_results_.erase(key);
    case Kind::LintText: return lint_texts_.erase(key);
    case Kind::EvidenceText: return evidence_texts_.erase(key);
  }
  return nullptr;
}

void ArtifactCache::set_byte_budget(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(lru_mu_);
  budget_ = bytes;
  evict_to_budget_locked();
}

std::uint64_t ArtifactCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(lru_mu_);
  return budget_;
}

std::uint64_t ArtifactCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(lru_mu_);
  return resident_bytes_;
}

std::uint64_t ArtifactCache::current_tick() const {
  std::lock_guard<std::mutex> lock(lru_mu_);
  return tick_;
}

std::size_t ArtifactCache::reclaim_evicted(std::uint64_t min_active_tick) {
  std::vector<Condemned> freeable;
  {
    std::lock_guard<std::mutex> lock(lru_mu_);
    auto it = condemned_.begin();
    while (it != condemned_.end()) {
      if (it->tick < min_active_tick) {
        freeable.push_back(std::move(*it));
        it = condemned_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Handles drop outside the lock: destroying a large artifact should
  // not stall concurrent touch/evict traffic.
  if (!freeable.empty()) {
    obs::metrics().counter(obs::kCacheReclaimed).add(freeable.size());
  }
  return freeable.size();
}

std::size_t ArtifactCache::condemned_count() const {
  std::lock_guard<std::mutex> lock(lru_mu_);
  return condemned_.size();
}

std::uint64_t env_cache_budget() {
  const char* env = std::getenv("DRBML_CACHE_BUDGET");
  if (env == nullptr) return 0;
  const auto v = parse_int(env);
  if (!v.has_value() || *v < 0) return 0;
  return static_cast<std::uint64_t>(*v);
}

// ----------------------------------------------------- snapshot persistence
//
// Format ("drbml-cache v1"): a header line, then one record per entry.
//   T <key-hex16> <int>\n                       token count
//   A <key-hex16> <nbytes>\n<nbytes raw>\n      AST text
//   D <key-hex16> <nbytes>\n<nbytes raw>\n      dependence-graph text
//   L <key-hex16> <nbytes>\n<nbytes raw>\n      lint-findings text
// Payloads are length-prefixed so arbitrary program text round-trips.
// Any deviation -- bad header, unknown tag, short payload, trailing
// garbage -- marks the whole file corrupt: nothing is seeded and
// `cache.corrupt` counts the rejection.

namespace {

constexpr const char* kSnapshotHeader = "drbml-cache v1";

void append_text_record(std::string& out, char tag, std::uint64_t key,
                        const std::string& text) {
  char head[64];
  std::snprintf(head, sizeof(head), "%c %016" PRIx64 " %zu\n", tag, key,
                text.size());
  out += head;
  out += text;
  out += '\n';
}

/// The count a record's last field holds: decimal digits only (no sign,
/// no space, nothing after them), below `limit`; nullopt otherwise.
std::optional<std::uint64_t> record_count(std::string_view field,
                                          std::uint64_t limit) {
  if (field.empty() || field[0] < '0' || field[0] > '9') return std::nullopt;
  const std::optional<std::int64_t> n = parse_int(field);
  if (!n.has_value() || static_cast<std::uint64_t>(*n) >= limit) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(*n);
}

std::size_t reject_corrupt(const std::string& path, const char* why) {
  obs::metrics().counter(obs::kCacheCorrupt).add();
  std::fprintf(stderr, "warning: cache snapshot %s ignored (%s)\n",
               path.c_str(), why);
  return 0;
}

}  // namespace

bool ArtifactCache::save_snapshot(const std::string& path) const {
  std::string out = kSnapshotHeader;
  out += '\n';
  std::uint64_t written = 0;
  tokens_.for_each([&](std::uint64_t key, const int& v) {
    char line[64];
    std::snprintf(line, sizeof(line), "T %016" PRIx64 " %d\n", key, v);
    out += line;
    ++written;
  });
  asts_.for_each([&](std::uint64_t key, const std::string& v) {
    append_text_record(out, 'A', key, v);
    ++written;
  });
  depgraphs_.for_each([&](std::uint64_t key, const std::string& v) {
    append_text_record(out, 'D', key, v);
    ++written;
  });
  lint_texts_.for_each([&](std::uint64_t key, const std::string& v) {
    append_text_record(out, 'L', key, v);
    ++written;
  });
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!file) return false;
  obs::metrics().counter(obs::kCacheSnapshotSaved).add(written);
  return true;
}

std::size_t ArtifactCache::load_snapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return reject_corrupt(path, "cannot open");
  std::ostringstream buf;
  buf << file.rdbuf();
  if (!file && !file.eof()) return reject_corrupt(path, "read error");
  const std::string text = buf.str();

  std::size_t pos = 0;
  const auto read_line = [&](std::string& line) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) return false;
    line.assign(text, pos, nl - pos);
    pos = nl + 1;
    return true;
  };

  std::string line;
  if (!read_line(line) || line != kSnapshotHeader) {
    return reject_corrupt(path, "bad header");
  }

  // Parse fully before seeding anything: a corrupt tail must not leave
  // the cache half-seeded.
  struct TextRecord {
    char tag;
    std::uint64_t key;
    std::string payload;
  };
  std::vector<std::pair<std::uint64_t, int>> token_records;
  std::vector<TextRecord> text_records;
  while (pos < text.size()) {
    if (!read_line(line)) return reject_corrupt(path, "truncated record");
    char tag = 0;
    std::uint64_t key = 0;
    if (line.size() < 20 || line[1] != ' ' ||
        std::sscanf(line.c_str(), "%c %" SCNx64, &tag, &key) != 2) {
      return reject_corrupt(path, "malformed record");
    }
    const std::size_t field = line.find(' ', 2);
    if (field == std::string::npos || field + 1 >= line.size()) {
      return reject_corrupt(path, "malformed record");
    }
    const std::string_view rest = std::string_view(line).substr(field + 1);
    if (tag == 'T') {
      const std::optional<std::uint64_t> count =
          record_count(rest, std::uint64_t{INT_MAX} + 1);
      if (!count.has_value()) {
        return reject_corrupt(path, "malformed token count");
      }
      token_records.emplace_back(key, static_cast<int>(*count));
      continue;
    }
    if (tag != 'A' && tag != 'D' && tag != 'L') {
      return reject_corrupt(path, "unknown record tag");
    }
    // The payload and its newline must fit in what is left of the file;
    // checked before any arithmetic on the length.
    const std::optional<std::uint64_t> nbytes =
        record_count(rest, text.size() - pos);
    if (!nbytes.has_value() || text[pos + *nbytes] != '\n') {
      return reject_corrupt(path, "malformed or short payload");
    }
    text_records.push_back({tag, key, text.substr(pos, *nbytes)});
    pos += *nbytes + 1;
  }

  std::size_t loaded = 0;
  for (const auto& [key, count] : token_records) {
    if (tokens_.seed(key, count)) {
      ++loaded;
      touch(Kind::Tokens, key, cost_tokens);
    }
  }
  for (auto& r : text_records) {
    // Seeded entries enter the LRU like any computed entry, so a byte
    // budget applies to snapshot warmth too (oldest seeds evict first).
    const std::uint64_t bytes = cost_string(r.payload);
    const auto cost = [bytes] { return bytes; };
    switch (r.tag) {
      case 'A':
        if (asts_.seed(r.key, std::move(r.payload))) {
          ++loaded;
          touch(Kind::Ast, r.key, cost);
        }
        break;
      case 'D':
        if (depgraphs_.seed(r.key, std::move(r.payload))) {
          ++loaded;
          touch(Kind::Depgraph, r.key, cost);
        }
        break;
      default:
        if (lint_texts_.seed(r.key, std::move(r.payload))) {
          ++loaded;
          touch(Kind::LintText, r.key, cost);
        }
        break;
    }
  }
  obs::metrics().counter(obs::kCacheSnapshotLoaded).add(loaded);
  return loaded;
}

ArtifactCache& artifact_cache() {
  static ArtifactCache cache;
  return cache;
}

}  // namespace drbml::eval
