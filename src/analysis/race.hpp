// Static data race detector for Mini-C/OpenMP programs.
//
// Pipeline: resolve names -> collect parallel regions with annotated
// accesses -> pairwise synchronization filtering -> affine dependence test
// -> race pairs in DRB label format.
//
// Fidelity knobs (StaticDetectorOptions) select between a conservative
// tool (flags anything it cannot prove disjoint; false positives on
// runtime-disjoint or flag-synchronized programs) and an optimistic one
// (silent on non-affine indexing; false negatives instead). Both behaviours
// exist in real static race detectors; the benchmark harness exercises
// both.
#pragma once

#include "analysis/access.hpp"
#include "analysis/depend.hpp"
#include "analysis/mhp.hpp"
#include "analysis/report.hpp"
#include "minic/ast.hpp"

namespace drbml::analysis {

struct StaticDetectorOptions {
  DependOptions depend;
  /// Honour omp_set_lock/omp_unset_lock pairs as mutual exclusion.
  bool model_locks = true;
  /// Honour task depend(in/out/inout) clauses as ordering.
  bool model_depend_clauses = true;
  /// Treat `#pragma omp ordered` bodies as serialized.
  bool model_ordered = true;
  /// Discharge regions whose clauses force serial execution (`if(0)`,
  /// `num_threads(1)`) with no nested team fork.
  bool model_serial_regions = true;
};

class StaticRaceDetector {
 public:
  explicit StaticRaceDetector(StaticDetectorOptions opts = {})
      : opts_(opts) {}

  /// Resolves the unit in place, collects its parallel regions and
  /// analyzes them.
  [[nodiscard]] RaceReport analyze_unit(minic::TranslationUnit& unit) const;

  /// Analyzes regions already collected from a resolved unit.
  [[nodiscard]] RaceReport analyze_regions(
      const std::vector<ParallelRegion>& regions) const;

  /// Convenience: parse + resolve + analyze source text.
  [[nodiscard]] RaceReport analyze_source(std::string_view source) const;

  [[nodiscard]] const StaticDetectorOptions& options() const noexcept {
    return opts_;
  }

 private:
  /// Runs the discharge pipeline (serial region -> MHP ordering ->
  /// lockset -> dependence test) over one candidate pair, recording every
  /// consulted rule in `ev`. Returns true when the pair survives as a
  /// race; otherwise `ev.discharge_rule` names the discharging rule.
  [[nodiscard]] bool judge_pair(const AccessInfo& a, const AccessInfo& b,
                                const ParallelRegion& region,
                                const SerialRegionInfo& serial,
                                Evidence& ev) const;

  StaticDetectorOptions opts_;
};

}  // namespace drbml::analysis
