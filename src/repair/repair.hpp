// The verified fix loop (DR.FIX-style detector-guided repair).
//
// A candidate patch is accepted only when, on the patched program:
//   1. the static detector reports race-free;
//   2. the dynamic vector-clock detector finds no race and no fault across
//      every schedule seed;
//   3. the program is output-equivalent to the *serial* execution of the
//      original (num_threads=1 defines the intended semantics of a racy
//      program): same stdout bytes and exit code, serially and under every
//      parallel schedule. Gate 3 is what rejects "fixes" like privatizing
//      an accumulator -- they silence the detectors but change the answer;
//   4. PCT schedule exploration finds no race either.
//
// The detectors run in their default configuration, and the candidate
// cap and gate 4's budget are constants of repair.cpp: the strategy is
// the loop's only setting.
//
// Everything is deterministic: fixed candidate ranking, fixed schedule
// seeds, no wall clock -- the same (source, strategy) always produces the
// same RepairResult, which is what makes the repair experiment cacheable
// and bit-identical at any job count.
#pragma once

#include <string>

#include "repair/candidates.hpp"
#include "repair/patch.hpp"

namespace drbml::repair {

enum class RepairStatus {
  NoRaceDetected,  // neither detector fired; source returned untouched
  Fixed,           // a candidate survived every gate
  NoCandidate,     // race detected but no strategy applies
  Rejected,        // candidates existed; all failed verification
  Error,           // the program did not parse / analyze
};

[[nodiscard]] const char* repair_status_name(RepairStatus s) noexcept;

struct RepairResult {
  RepairStatus status = RepairStatus::Error;
  /// Patched source (== input for NoRaceDetected; empty otherwise unless
  /// Fixed).
  std::string patched;
  std::string patch_id;
  std::string description;
  std::string family;
  int candidates_generated = 0;
  /// Candidates applied+verified before accepting (the "patches per fix"
  /// metric); equals candidates tried when nothing was accepted.
  int attempts = 0;
  /// True when the output-equivalence gate actually ran (it cannot when
  /// the original program faults under serial execution).
  bool equivalence_checked = false;
  LineMap line_map;
  /// Structured reason for every non-Fixed status, e.g.
  /// "no-candidate: no strategy for this race shape".
  std::string message;

  friend bool operator==(const RepairResult&, const RepairResult&) = default;
};

/// Which verification gate rejected a candidate (the machine-readable
/// companion to VerifyOutcome::reason; also the repair.rejected.* metric
/// taxonomy).
enum class RejectGate {
  None,      // accepted
  Static,    // gate 1: static race persists, or static analysis failed
  Fault,     // gate 2: the patched program faulted
  Dynamic,   // gate 2: dynamic race persists, or dynamic verification failed
  Nondet,    // gate 2: output differs across parallel schedules
  Output,    // gate 3: serial output diverges from the original
  Explore,   // gate 4: PCT schedule exploration still finds a race
};

/// Verdict of the verification gates for one already-applied candidate.
struct VerifyOutcome {
  bool accepted = false;
  bool equivalence_checked = false;
  RejectGate gate = RejectGate::None;  // set iff !accepted
  std::string reason;  // which gate failed, when !accepted
};

/// Runs gates 1-4 on `patched` against `original` (exposed for tests; the
/// fix loop uses it internally). Never throws.
[[nodiscard]] VerifyOutcome verify_candidate(const std::string& original,
                                             const std::string& patched);

/// The full loop: detect, generate ranked candidates, apply + verify until
/// one survives. Never throws.
[[nodiscard]] RepairResult repair_source(
    const std::string& source, Strategy strategy = Strategy::Auto);

/// Rewrites DRB "Data race pair:" header annotations so their
/// original-file line numbers track the patch's insertions/deletions
/// (repaired corpus entries keep scoring correctly).
[[nodiscard]] std::string remap_annotations(const std::string& patched,
                                            const LineMap& line_map);

/// Minimal unified diff (no context collapsing) between two sources, for
/// `drbml fix --diff`.
[[nodiscard]] std::string unified_diff(const std::string& before,
                                       const std::string& after);

}  // namespace drbml::repair
