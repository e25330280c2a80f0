#include "lint/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "analysis/race.hpp"
#include "lint/checks.hpp"
#include "minic/parser.hpp"
#include "obs/catalog.hpp"
#include "support/strings.hpp"

namespace drbml::lint {

namespace {

constexpr const char* kSuppressMarker = "drbml-lint-suppress(";

/// Trimmed-code line -> set of suppressed check ids ("all" = every check).
std::map<int, std::set<std::string>> collect_suppressions(
    const minic::Program& program) {
  std::map<int, std::set<std::string>> out;
  const std::vector<std::string> lines = split_lines(program.original);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::size_t pos = lines[i].find(kSuppressMarker);
    while (pos != std::string::npos) {
      const std::size_t open = pos + std::string_view(kSuppressMarker).size();
      const std::size_t close = lines[i].find(')', open);
      if (close == std::string::npos) break;
      // The comment covers its own trimmed line; a comment-only line
      // (dropped by the stripper) covers the next surviving line.
      int target = program.strip.to_trimmed_line(static_cast<int>(i) + 1);
      for (std::size_t j = i + 1; target == 0 && j < lines.size(); ++j) {
        target = program.strip.to_trimmed_line(static_cast<int>(j) + 1);
      }
      if (target != 0) {
        for (const std::string& id :
             split(lines[i].substr(open, close - open), ',')) {
          const std::string_view trimmed = trim(id);
          if (!trimmed.empty()) out[target].insert(std::string(trimmed));
        }
      }
      pos = lines[i].find(kSuppressMarker, close);
    }
  }
  return out;
}

obs::Counter& diag_counter(std::string_view check_id) {
  static obs::Counter& race = obs::metrics().counter(obs::kLintDiagRace);
  static obs::Counter& datashare =
      obs::metrics().counter(obs::kLintDiagDatashare);
  static obs::Counter& reduction =
      obs::metrics().counter(obs::kLintDiagReduction);
  static obs::Counter& lock = obs::metrics().counter(obs::kLintDiagLock);
  static obs::Counter& barrier = obs::metrics().counter(obs::kLintDiagBarrier);
  static obs::Counter& atomic = obs::metrics().counter(obs::kLintDiagAtomic);
  if (check_id == "lint.race") return race;
  if (check_id == "lint.datashare") return datashare;
  if (check_id == "lint.reduction") return reduction;
  if (check_id == "lint.lock") return lock;
  if (check_id == "lint.barrier") return barrier;
  return atomic;
}

}  // namespace

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::Error: return "error";
    case Severity::Warning: return "warning";
    case Severity::Note: return "note";
  }
  return "?";
}

LintReport lint_source(std::string_view source) {
  static obs::Counter& runs = obs::metrics().counter(obs::kLintRuns);
  static obs::Counter& suppressed =
      obs::metrics().counter(obs::kLintSuppressed);
  obs::Span span(obs::kSpanLintRun);
  minic::Program program = minic::parse_program(source);
  const analysis::Resolution res = analysis::resolve(*program.unit);
  const std::vector<analysis::ParallelRegion> regions =
      analysis::collect_regions(*program.unit, res);

  LintReport report;
  report.race = analysis::StaticRaceDetector().analyze_regions(regions);
  const LintContext ctx{program, regions, report.race};
  std::vector<Diagnostic>& diags = report.diagnostics;
  check_race(ctx, diags);
  check_datashare(ctx, diags);
  check_reduction(ctx, diags);
  check_lock(ctx, diags);
  check_barrier(ctx, diags);
  check_atomic(ctx, diags);

  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
                     if (a.loc.col != b.loc.col) return a.loc.col < b.loc.col;
                     return a.check_id < b.check_id;
                   });

  const auto suppressions = collect_suppressions(program);
  if (!suppressions.empty()) {
    std::vector<Diagnostic> kept;
    kept.reserve(diags.size());
    for (auto& d : diags) {
      const auto it = suppressions.find(d.loc.line);
      const bool drop = it != suppressions.end() &&
                        (it->second.count(d.check_id) != 0 ||
                         it->second.count("all") != 0);
      if (drop) {
        ++report.suppressed;
      } else {
        kept.push_back(std::move(d));
      }
    }
    diags = std::move(kept);
  }

  runs.add();
  suppressed.add(static_cast<std::uint64_t>(report.suppressed));
  for (const auto& d : diags) diag_counter(d.check_id).add();
  return report;
}

}  // namespace drbml::lint
