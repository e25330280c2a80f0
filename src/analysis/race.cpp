#include "analysis/race.hpp"

#include <algorithm>

#include "analysis/lockset.hpp"
#include "minic/parser.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "support/strings.hpp"

namespace drbml::analysis {

using namespace minic;

namespace {

/// Cap on recorded discharged pairs per program (the overflow is counted
/// in RaceReport::suppressed_discharged).
constexpr std::size_t kMaxDischargedPairs = 32;

RaceAccess to_race_access(const AccessInfo& a) {
  RaceAccess r;
  r.expr_text = a.text;
  r.var_name = a.var != nullptr ? a.var->name : "?";
  r.loc = a.loc;
  r.op = a.is_write ? 'w' : 'r';
  return r;
}

/// Cheap identity filters that decide whether a pair is worth judging at
/// all. Pairs rejected here are not candidates and get no evidence.
bool candidate_pair(const AccessInfo& a, const AccessInfo& b) {
  if (a.var == nullptr || b.var == nullptr || a.var != b.var) return false;
  if (!a.is_write && !b.is_write) return false;
  return a.sharing == Sharing::Shared && b.sharing == Sharing::Shared;
}

void count_discharge(const std::string& rule) {
  static obs::Counter& serial =
      obs::metrics().counter(obs::kAnalysisDischargedSerial);
  static obs::Counter& phase =
      obs::metrics().counter(obs::kAnalysisDischargedPhase);
  static obs::Counter& mhp =
      obs::metrics().counter(obs::kAnalysisDischargedMhp);
  static obs::Counter& lockset =
      obs::metrics().counter(obs::kAnalysisDischargedLockset);
  static obs::Counter& depend =
      obs::metrics().counter(obs::kAnalysisDischargedDepend);
  if (rule == "region.serial") {
    serial.add();
  } else if (rule == "mhp.phase") {
    phase.add();
  } else if (rule.rfind("mhp.", 0) == 0) {
    mhp.add();
  } else if (rule.rfind("lockset.", 0) == 0) {
    lockset.add();
  } else if (rule.rfind("dep.", 0) == 0) {
    depend.add();
  }
}

bool discharged_contains(const std::vector<DischargedPair>& v,
                         const DischargedPair& p) {
  for (const auto& q : v) {
    if (q == p) return true;
    if (q.first == p.second && q.second == p.first) return true;
  }
  return false;
}

std::string render_guards(const std::vector<std::string>& guards) {
  std::string out = "{";
  for (std::size_t i = 0; i < guards.size(); ++i) {
    if (i > 0) out += ", ";
    out += guards[i];
  }
  out += "}";
  return out;
}

}  // namespace

bool StaticRaceDetector::judge_pair(const AccessInfo& a, const AccessInfo& b,
                                    const ParallelRegion& region,
                                    const SerialRegionInfo& serial,
                                    Evidence& ev) const {
  // Rule 1: the whole region executes on one thread.
  if (serial.serial) {
    ev.phase_first = a.ctx.phase;
    ev.phase_second = b.ctx.phase;
    EvidenceStep step;
    step.rule = "region.serial";
    step.discharged = true;
    step.detail = serial.reason;
    ev.steps.push_back(std::move(step));
    ev.discharge_rule = "region.serial";
    return false;
  }

  // Rule 2: barrier phases, exec-once instances, task ordering.
  MhpOptions mhp;
  mhp.model_depend_clauses = opts_.model_depend_clauses;
  if (!may_happen_in_parallel(a, b, a.var->name, mhp, ev)) return false;

  // Rule 3: a guard held on both sides serializes the accesses.
  LocksetOptions lopts;
  lopts.model_locks = opts_.model_locks;
  lopts.model_ordered = opts_.model_ordered;
  ev.locks_first = lockset_of(a, lopts);
  ev.locks_second = lockset_of(b, lopts);
  ev.common_guards = common_guards(a, b, lopts);
  {
    EvidenceStep step;
    step.rule = "lockset.common";
    step.discharged = !ev.common_guards.empty();
    step.detail = ev.common_guards.empty()
                      ? "no common guard: " + render_guards(ev.locks_first) +
                            " vs " + render_guards(ev.locks_second)
                      : "common guards " + render_guards(ev.common_guards);
    ev.steps.push_back(std::move(step));
  }
  if (!ev.common_guards.empty()) {
    ev.discharge_rule = "lockset.common";
    return false;
  }

  // Rule 4: affine dependence testing over the subscripts.
  const DependVerdict dv =
      classify_conflict_ex(a, b, *region.consts, opts_.depend);
  ev.dep_test = dv.test;
  ev.dep_detail = dv.detail;
  const std::string rule = "dep." + dv.test;
  {
    EvidenceStep step;
    step.rule = rule;
    step.discharged = dv.kind != ConflictKind::CrossThread;
    step.detail = dv.detail;
    ev.steps.push_back(std::move(step));
  }
  if (dv.kind != ConflictKind::CrossThread) {
    ev.discharge_rule = rule;
    return false;
  }
  return true;
}

RaceReport StaticRaceDetector::analyze_unit(TranslationUnit& unit) const {
  const Resolution res = resolve(unit);
  return analyze_regions(collect_regions(unit, res));
}

RaceReport StaticRaceDetector::analyze_regions(
    const std::vector<ParallelRegion>& regions) const {
  static obs::Counter& candidates =
      obs::metrics().counter(obs::kAnalysisCandidatePairs);

  RaceReport report;
  // Distinct pairs dropped at the caps (kept separately so the suppressed
  // counts collapse duplicates exactly like the capped lists do).
  RaceReport overflow;
  std::vector<DischargedPair> discharged_overflow;
  for (const auto& region : regions) {
    const SerialRegionInfo serial = opts_.model_serial_regions
                                        ? classify_serial(region)
                                        : SerialRegionInfo{};
    const auto& acc = region.accesses;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      for (std::size_t j = i; j < acc.size(); ++j) {
        // j == i covers the self-conflict of a single statement executed
        // by many threads/iterations (e.g. `x = x + 1;`).
        if (j == i && !acc[i].is_write) continue;
        if (!candidate_pair(acc[i], acc[j])) continue;
        candidates.add();
        // Writer first, matching DRB's pair convention; the evidence is
        // recorded in the same order as the reported accesses.
        const AccessInfo& first = acc[i].is_write ? acc[i] : acc[j];
        const AccessInfo& second = acc[i].is_write ? acc[j] : acc[i];
        Evidence ev;
        const bool races = judge_pair(first, second, region, serial, ev);
        if (!races) {
          count_discharge(ev.discharge_rule);
          DischargedPair dp;
          dp.first = to_race_access(first);
          dp.second = to_race_access(second);
          dp.evidence = std::move(ev);
          if (discharged_contains(report.discharged, dp)) continue;
          if (report.discharged.size() >= kMaxDischargedPairs) {
            if (!discharged_contains(discharged_overflow, dp)) {
              discharged_overflow.push_back(std::move(dp));
            }
            continue;
          }
          report.discharged.push_back(std::move(dp));
          continue;
        }
        RacePair pair;
        pair.first = to_race_access(first);
        pair.second = to_race_access(second);
        pair.note = "static: conflicting accesses to shared '" +
                    first.var->name + "'";
        pair.evidence = std::move(ev);
        if (report.contains(pair)) continue;
        if (report.pairs.size() >= kMaxReportedPairs) {
          // Never truncate silently: count the distinct pairs dropped and
          // report them below.
          overflow.add_pair(std::move(pair));
          continue;
        }
        report.add_pair(std::move(pair));
      }
    }
  }
  report.suppressed_pairs = static_cast<int>(overflow.pairs.size());
  if (report.suppressed_pairs > 0) {
    report.diagnostics.push_back(
        "static: " + std::to_string(report.suppressed_pairs) +
        " additional pair(s) suppressed (max_pairs=" +
        std::to_string(kMaxReportedPairs) + ")");
  }
  report.suppressed_discharged =
      static_cast<int>(discharged_overflow.size());
  if (report.suppressed_discharged > 0) {
    report.diagnostics.push_back(
        "static: " + std::to_string(report.suppressed_discharged) +
        " discharged pair(s) suppressed (max_discharged=" +
        std::to_string(kMaxDischargedPairs) + ")");
  }
  if (!report.race_detected) {
    report.diagnostics.push_back("static: no conflicting pair found");
  }
  return report;
}

RaceReport StaticRaceDetector::analyze_source(std::string_view source) const {
  Program prog = parse_program(source);
  return analyze_unit(*prog.unit);
}

}  // namespace drbml::analysis
