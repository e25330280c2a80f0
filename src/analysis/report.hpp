// Race report types shared by the static and dynamic detectors.
#pragma once

#include <string>
#include <vector>

#include "analysis/evidence.hpp"
#include "minic/source.hpp"

namespace drbml::analysis {

/// One side of a racing pair, in DRB-ML label terms: the source spelling of
/// the access, its location in *trimmed-code* coordinates, and whether it
/// reads or writes.
struct RaceAccess {
  std::string expr_text;  // e.g. "a[i+1]"
  std::string var_name;   // base variable, e.g. "a"
  minic::SourceLoc loc;
  char op = 'r';  // 'r' or 'w'

  friend bool operator==(const RaceAccess&, const RaceAccess&) = default;
};

/// A conflicting access pair. Mirrors DRB's annotation
/// `Data race pair: a[i+1]@64:10:R vs. a[i]@64:5:W`.
struct RacePair {
  RaceAccess first;
  RaceAccess second;
  std::string note;  // detector-specific diagnostic
  /// The checks the static analyzer ran before reporting the pair (empty
  /// for detectors that do not produce evidence). Deliberately excluded
  /// from equality: a pair is identified by its accesses.
  Evidence evidence;

  friend bool operator==(const RacePair& a, const RacePair& b) {
    return a.first == b.first && a.second == b.second;
  }
};

/// A candidate pair the static analyzer proved race-free, with the chain
/// that discharged it.
struct DischargedPair {
  RaceAccess first;
  RaceAccess second;
  Evidence evidence;

  friend bool operator==(const DischargedPair& a, const DischargedPair& b) {
    return a.first == b.first && a.second == b.second;
  }
};

/// Output of a race detector run over one program.
struct RaceReport {
  bool race_detected = false;
  std::vector<RacePair> pairs;
  std::vector<std::string> diagnostics;
  /// Distinct pairs dropped because `pairs` hit the detector's max_pairs
  /// cap (a matching "N additional pairs suppressed" diagnostic is
  /// appended so truncation is never silent).
  int suppressed_pairs = 0;
  /// Candidate pairs proven race-free, each with its discharge evidence
  /// (capped like `pairs`; the overflow is counted, never silent).
  std::vector<DischargedPair> discharged;
  int suppressed_discharged = 0;

  /// True if `p` (or its symmetric twin) is already reported.
  [[nodiscard]] bool contains(const RacePair& p) const {
    for (const auto& q : pairs) {
      if (q == p) return true;
      if (q.first == p.second && q.second == p.first) return true;
    }
    return false;
  }

  void add_pair(RacePair p) {
    if (contains(p)) return;  // exact and symmetric duplicates collapse
    pairs.push_back(std::move(p));
    race_detected = true;
  }

  /// Folds another detector's report into this one: its pairs through
  /// add_pair, its verdict by OR (a race it reports without a new pair
  /// still counts), its diagnostics after these.
  void merge(const RaceReport& other) {
    for (const RacePair& p : other.pairs) add_pair(p);
    race_detected = race_detected || other.race_detected;
    diagnostics.insert(diagnostics.end(), other.diagnostics.begin(),
                       other.diagnostics.end());
  }
};

}  // namespace drbml::analysis
