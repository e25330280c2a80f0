// Mini-C/OpenMP runtime with simulated threading and happens-before
// race detection.
//
// A run executes a verified bytecode module (runtime/bc) on user-space
// fibers: every team is multiplexed onto the calling thread by the
// cooperative scheduler. Compiled code is the only code that evaluates
// Mini-C. The runtime adds two libraries the bytecode calls into: the
// OpenMP construct handlers, which carry each construct's semantics and
// evaluate its clause, loop-bound and atomic expressions through their
// compiled expression chunks, and the builtins (printf, malloc, the lock
// API, ...), which evaluate their arguments the same way.
//
// OpenMP semantics are executed, not approximated: parallel regions fork a
// cooperative team (one logical thread per OpenMP thread), worksharing
// loops partition their real iteration space, critical/atomic/locks/
// barriers/ordered/single/sections/tasks all execute with the
// synchronization edges they imply, and every shared memory access passes
// through FastTrack-style vector-clock checking. A data race is reported
// when two conflicting accesses are unordered by happens-before in the
// executed schedule.
//
// Deliberate simplifications (documented in DESIGN.md):
//   - `sizeof(T)` evaluates to 1: allocation sizes are in elements, which
//     makes `malloc(n * sizeof(int))` allocate n ints.
//   - Integers are 64-bit with the semantics of minic/int_ops.hpp: `+`,
//     `-`, `*` and unary `-` wrap, shift counts are taken mod 64, and `/`
//     or `%` by zero or of INT64_MIN by -1 faults ("integer division by
//     zero", "integer modulo by zero", "integer division overflow").
//   - Nested parallel regions run with a team of 1.
//   - Task constructs execute inline at the spawn point under a fresh
//     logical thread id (fork/join edges preserved; taskwait and depend
//     clauses add the corresponding edges).
//   - One run allocates at most Memory::kMaxRunElements (2^20) elements
//     in total; the allocation that would cross the cap, or an array
//     whose element count overflows, faults with "allocation too large
//     for the interpreter".
//   - User-function calls nest at most kMaxCallDepth (200) deep; the call
//     that would cross the cap faults with "call depth limit exceeded".
//     Tasks and team workers start at their spawner's depth.
//   - At most kMaxSilentBackEdges loop back-edges, worksharing iterations
//     and user calls may follow one another without an instrumented
//     memory access; the one that would cross the cap faults with
//     "silent loop limit exceeded".
//   - A run keeps at most kMaxOutput (64 KiB) of output; a write that
//     would cross the cap is dropped whole.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/resolve.hpp"
#include "minic/ast.hpp"
#include "runtime/sched.hpp"
#include "runtime/strategy.hpp"

namespace drbml::runtime {

namespace bc {
struct Module;
}  // namespace bc

/// A run's state at the point where `main`'s own chunk is about to fork
/// its first team, so that later runs of the same module resume there
/// instead of re-running the serial prefix (DESIGN.md §13). A run handed
/// an empty snapshot fills it when its first fork is such a point; every
/// later run whose options differ from that run's only in schedule fields
/// (seed, strategy, PCT depth and expected steps, replay trace, trace and
/// coverage capture) restores it, and any other run starts from `main`.
/// Results are the same either way.
///
/// The state is plain data: memory arenas, `main`'s context and register
/// frame, the output and the counters. Taking it is one copy of the run's
/// state, and restoring it one copy back into the storage the previous
/// run left. That storage lives here too, so the runs sharing a snapshot
/// reuse each other's buffers, contexts, schedulers and fibers, and it is
/// freed with the snapshot. A program thus holds at most two runs' worth
/// of state: the snapshot and the storage. One snapshot serves one
/// caller's runs in turn; it is not safe to share between threads.
struct PrefixSnapshot {
  PrefixSnapshot();
  ~PrefixSnapshot();
  PrefixSnapshot(const PrefixSnapshot&) = delete;
  PrefixSnapshot& operator=(const PrefixSnapshot&) = delete;

  struct State;  // defined in interp.cpp
  /// The captured state; null until a run captured one.
  std::unique_ptr<const State> state;

  struct Storage;  // defined in interp.cpp
  /// What a run fills and the next run clears and refills: memory arenas,
  /// thread contexts with their bindings, clocks and register stacks, team
  /// state, schedulers with their fibers, deciders, and the record of the
  /// run's teams. Null until the first run.
  std::unique_ptr<Storage> storage;

  /// The teams the last run that used this storage forked, one per
  /// parallel region in dynamic order (empty before the first run, and
  /// when that run forked none). Valid until the next run.
  [[nodiscard]] std::span<const TeamRecord> regions() const;
};

/// Cap on nested user-function calls in one logical thread, so runaway
/// recursion faults instead of overflowing the native stack. Measured
/// with GCC 12 on x86-64 Linux, an 8 MiB thread or fiber stack overflows
/// after about 9,300 nested calls in a release build and 880 under
/// AddressSanitizer; when every level also passes through an OpenMP task
/// (and a master construct), after about 4,000 (3,000) in release and
/// 330 (250) under ASan. The deepest call chain in the corpus and the
/// golden synth kernels is 1.
inline constexpr int kMaxCallDepth = 200;

/// Cap on consecutive back-edges -- backward jumps, passes of a
/// worksharing loop's iteration scan, user calls -- with no instrumented
/// access between them. Steps count only accesses, so without it a loop
/// that touches no memory (`while (1) {}`) would never reach a step limit.
/// The longest such streak over the corpus and the golden synth kernels,
/// under uniform and PCT schedules, is 4; a silent loop reaches the cap in
/// a few milliseconds. A constant, not a RunOptions field: a witness
/// string sets step_limit.
inline constexpr std::uint64_t kMaxSilentBackEdges = 1 << 20;

/// Cap on the bytes of output one run keeps (Interp::output_append).
inline constexpr std::size_t kMaxOutput = 64 * 1024;

struct RunOptions {
  int num_threads = 4;
  std::uint64_t seed = 1;
  /// Uniform strategy: pass the token to a random runnable worker after
  /// this many shared accesses.
  int preempt_every = 7;
  /// Abort (as livelock) after this many scheduler steps.
  std::uint64_t step_limit = 2'000'000;
  ScheduleStrategy strategy = ScheduleStrategy::Uniform;
  /// PCT bug depth d: d-1 priority change points per region.
  int pct_depth = 3;
  /// PCT estimate k of a region's step count (change points are sampled
  /// uniformly from [1, k]).
  std::uint64_t pct_expected_steps = 4096;
  /// Replay strategy: the recorded trace. Not owned; must outlive the
  /// run. Missing/short regions fall back to the deterministic
  /// lowest-index schedule.
  const ScheduleTrace* replay = nullptr;
  /// Record every scheduling decision into RunResult::trace.
  bool capture_trace = false;
  /// Collect the interleaving-coverage signature into RunResult::coverage.
  bool collect_coverage = false;
  /// Optional pre-compiled bytecode for `unit` (must be compiled from the
  /// same resolved TranslationUnit and verified). Not owned; must outlive
  /// the run. When null, run_program compiles and verifies a module for
  /// this run only.
  const bc::Module* module = nullptr;
  /// Optional serial-prefix snapshot shared by the runs of one module (see
  /// PrefixSnapshot). Not owned; must outlive the run. When null, the run
  /// starts from `main`.
  PrefixSnapshot* prefix = nullptr;
};

/// Whether `a` and `b` agree on every option that shapes a run's prefix:
/// all but the schedule fields (PrefixSnapshot).
[[nodiscard]] bool same_prefix_options(const RunOptions& a,
                                       const RunOptions& b);

struct RunResult {
  analysis::RaceReport report;
  std::string output;
  int exit_code = 0;
  bool faulted = false;        // RuntimeFault (OOB, deadlock, livelock, ...)
  std::string fault_message;
  /// One per instrumented access, plus each team scheduler's steps: its
  /// yield points (an in-team access outside `atomic` is one, so it
  /// counts twice) and its rounds spent blocked on a lock, a `critical`
  /// section or an `ordered` turn. The golden file pins this sum.
  std::uint64_t steps = 0;
  /// Recorded scheduling decisions, one vector per parallel region in
  /// dynamic region order (when opts.capture_trace). Populated even when
  /// the run faulted: the decision prefix up to a step-budget or deadlock
  /// abort is surfaced so aborted schedules stay replayable.
  ScheduleTrace trace;
  /// Sorted interleaving-coverage hashes -- observed preemption points and
  /// ordered cross-thread access pairs (when opts.collect_coverage).
  std::vector<std::uint64_t> coverage;
};

/// Executes `main()` of a resolved program. The unit must have been passed
/// through analysis::resolve() so identifiers are bound.
[[nodiscard]] RunResult run_program(const minic::TranslationUnit& unit,
                                    const analysis::Resolution& res,
                                    const RunOptions& opts = {});

}  // namespace drbml::runtime
