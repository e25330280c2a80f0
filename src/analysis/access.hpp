// Memory-access collection over parallel regions.
//
// For every OpenMP parallel construct the collector produces the list of
// memory accesses in its dynamic extent, each annotated with:
//   - the canonical memory object (aliases resolved),
//   - subscript expressions (for arrays),
//   - read/write direction,
//   - data-sharing classification (shared/private/reduction/...),
//   - synchronization context (phase between barriers, enclosing critical/
//     atomic/ordered/locks, single/master/section/task identity, enclosing
//     distributed and sequential loops).
//
// The static race detector then reasons pairwise over these annotations.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/consteval.hpp"
#include "analysis/resolve.hpp"
#include "minic/ast.hpp"

namespace drbml::analysis {

enum class Sharing {
  Shared,
  Private,
  FirstPrivate,
  LastPrivate,
  Reduction,
  Linear,
  ThreadPrivate,
  LoopPrivate,  // induction variable of a distributed loop
};

[[nodiscard]] const char* sharing_name(Sharing s) noexcept;

/// A loop enclosing an access, with whatever bound information constant
/// propagation recovered. Bounds are inclusive iteration-space bounds of
/// the induction variable.
struct LoopInfo {
  const minic::ForStmt* loop = nullptr;
  const minic::VarDecl* induction = nullptr;
  std::optional<std::int64_t> lower;
  std::optional<std::int64_t> upper;
  /// Symbolic bounds as affine thread-id forms, recovered when the
  /// constant bounds above are unknown (`for (k = tid*16; k < tid*16+16;)`
  /// yields lower_tid {16,0}, upper_tid {16,15}). Inclusive, like
  /// lower/upper. The dependence tester substitutes
  /// k = lower_tid + u, u in [0, upper_tid - lower_tid].
  std::optional<TidForm> lower_tid;
  std::optional<TidForm> upper_tid;
  std::int64_t step = 1;
  bool distributed = false;  // iterations spread across threads
  bool simd = false;         // vector-lane loop
  std::int64_t safelen = 0;  // 0 = unbounded
};

/// Synchronization context of one access.
struct SyncContext {
  int phase = 0;        // barrier-separated phase index within the region
  int task_phase = 0;   // taskwait-separated phase for task ordering
  bool in_critical = false;
  std::string critical_name;  // "" = unnamed critical
  bool atomic = false;
  bool ordered = false;
  int exec_once_id = -1;  // single/master/section instance (-1 = none)
  int task_id = -1;       // task construct instance (-1 = not in task)
  bool task_in_loop = false;  // task spawned repeatedly (self-concurrent)
  std::vector<const minic::VarDecl*> locks;  // held omp locks
  /// Task depend clauses in effect: (type, variable text).
  std::vector<std::pair<std::string, std::string>> depends;
};

/// One collected memory access.
struct AccessInfo {
  const minic::VarDecl* var = nullptr;  // canonical memory object
  const minic::Expr* expr = nullptr;    // the access expression node
  std::vector<const minic::Expr*> subscripts;  // outermost..innermost
  bool is_write = false;
  bool via_call = false;  // array handed to a function call (may be R+W)
  minic::SourceLoc loc;
  std::string text;  // source spelling, e.g. "a[i+1]"
  Sharing sharing = Sharing::Shared;
  SyncContext ctx;
  /// Distributed loops enclosing the access, outermost first (collapse
  /// produces several).
  std::vector<LoopInfo> dist_loops;
  /// Sequential loops inside the region enclosing the access.
  std::vector<LoopInfo> seq_loops;
};

/// One phase boundary inside a parallel region: the synchronization point
/// at which the collector advanced SyncContext::phase. Recorded so the
/// MHP phase partition (mhp.hpp) can cite provenance in evidence chains.
struct PhaseBoundary {
  int phase_after = 0;  // phase index in effect after this boundary
  /// "barrier" | "for-join" | "single-join" | "sections-join".
  std::string kind;
  minic::SourceLoc loc;
};

/// A parallel construct and everything collected from its extent.
struct ParallelRegion {
  const minic::OmpStmt* stmt = nullptr;
  bool simd_only = false;  // `#pragma omp simd` without a thread team
  std::vector<AccessInfo> accesses;
  /// Phase boundaries in source order (empty = single-phase region).
  std::vector<PhaseBoundary> boundaries;
  /// Constant bindings of the enclosing function (used by dependence
  /// testing to fold loop bounds and offsets), shared by all the regions
  /// of that function.
  std::shared_ptr<const ConstantMap> consts;
};

/// Options controlling collection fidelity (see StaticRaceDetector).
struct CollectOptions {
  /// Record arrays passed to user function calls as read+write accesses
  /// with unknown subscripts. When false, call side effects are ignored
  /// (a deliberate unsoundness shared by many static tools).
  bool track_call_effects = false;
};

/// Collects all parallel regions in the unit. The unit must have been
/// resolved (see resolve()).
[[nodiscard]] std::vector<ParallelRegion> collect_regions(
    const minic::TranslationUnit& unit, const Resolution& res,
    const CollectOptions& opts = {});

/// Extracts induction variable, bounds, and step from a canonical for loop
/// (`for (i = lo; i < hi; i += step)` and variants). Returns std::nullopt
/// if the loop shape is not recognized.
[[nodiscard]] std::optional<LoopInfo> analyze_loop(const minic::ForStmt& loop,
                                                   const ConstantMap& consts);

}  // namespace drbml::analysis
