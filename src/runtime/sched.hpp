// Cooperative deterministic scheduler for simulated OpenMP teams.
//
// Exactly one worker runs at a time: a token is handed from worker to
// worker at explicit yield points, with all scheduling decisions drawn
// from a seeded RNG. This gives genuinely interleaved executions
// (including preemption inside critical sections and busy-wait loops)
// while staying bit-for-bit reproducible.
//
// Workers are user-space stackful fibers (runtime/fiber.hpp) multiplexed
// on the thread that calls run_team, so a token handoff is a ~25ns
// context switch rather than a kernel round trip. Nothing here is shared
// with another OS thread, so the scheduler state needs no locking.
//
// Scheduling policy is pluggable: with no SchedDecider installed the
// scheduler runs the legacy uniform random walk (preempt every N yields,
// pick a uniformly random runnable worker). A decider replaces both the
// preemption predicate and the pick, which is how the exploration engine
// (src/explore) implements PCT priority schedules and bit-exact replay of
// recorded decision traces.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/fiber.hpp"
#include "support/rng.hpp"

namespace drbml::runtime {

/// Thrown inside a worker when the team is being torn down after another
/// worker faulted.
struct TeamAborted {};

/// One recorded scheduling decision: at global step `step` the token moved
/// to worker `target`. `forced` distinguishes decisions the program forced
/// (blocking waits, barriers, worker completion, the initial token grant)
/// from voluntary preemptions at yield points. Replay needs the
/// distinction: forced switch points recur at the same steps on their own,
/// while voluntary preemptions only happen where the trace says so.
struct ScheduleDecision {
  bool forced = false;
  std::uint64_t step = 0;
  int target = 0;

  friend bool operator==(const ScheduleDecision& a,
                         const ScheduleDecision& b) {
    return a.forced == b.forced && a.step == b.step && a.target == b.target;
  }
};

/// Decisions of one parallel region, in the order they were taken.
using RegionTrace = std::vector<ScheduleDecision>;

/// Decisions of a whole run, one vector per parallel region in dynamic
/// region order (nested regions serialize, so the order is deterministic).
struct ScheduleTrace {
  std::vector<RegionTrace> regions;

  [[nodiscard]] std::size_t total_decisions() const {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.size();
    return n;
  }

  friend bool operator==(const ScheduleTrace& a, const ScheduleTrace& b) {
    return a.regions == b.regions;
  }
};

/// Pluggable scheduling policy. Hooks only ever run on the single worker
/// that owns the token, so implementations need no synchronization of
/// their own.
class SchedDecider {
 public:
  virtual ~SchedDecider() = default;

  /// Called once per team before the first worker runs.
  virtual void begin(int workers) = 0;

  /// Voluntary-preemption query at a yield point. `ready_peers` lists the
  /// other runnable workers (spin-filtered when filter_spinners() is on);
  /// it may be empty, in which case returning true is pointless but legal.
  virtual bool should_preempt(std::uint64_t step, int current,
                              const std::vector<int>& ready_peers) = 0;

  /// Called right after should_preempt(step, ...) returned false: the
  /// first step at which should_preempt could return true, provided the
  /// running worker and the ready set stay as they were. The scheduler
  /// skips the query (and building its peer list) at yield points before
  /// that step until one of them changes. The default, `step + 1`, asks
  /// again at every yield point.
  [[nodiscard]] virtual std::uint64_t quiet_until(std::uint64_t step) const {
    return step + 1;
  }

  /// Picks the next worker from `ready` (never empty, ascending indices).
  /// `current` is the worker giving up the token (-1 for the initial
  /// grant); `forced` mirrors ScheduleDecision::forced.
  virtual int pick(const std::vector<int>& ready, int current,
                   std::uint64_t step, bool forced) = 0;

  /// When true, workers spinning inside block_until are filtered from the
  /// candidate set whenever a non-spinning worker is available. Priority
  /// deciders need this: always favouring a high-priority spinner over the
  /// lock holder it waits on would ping-pong forever.
  [[nodiscard]] virtual bool filter_spinners() const { return false; }
};

class CoopScheduler {
 public:
  /// `preempt_every`: pass the token to a random runnable worker after
  /// this many yield points (1 = every yield point).
  CoopScheduler(std::uint64_t seed, int preempt_every);

  /// Runs `workers` cooperatively, each on its own fiber, until all
  /// complete. Rethrows the first worker exception (after unwinding the
  /// rest). Must not be called from a worker of this scheduler. An empty
  /// team returns at once.
  void run_team(std::vector<std::function<void()>> workers);

  /// Installs a scheduling policy (not owned; must outlive run_team).
  /// nullptr restores the legacy uniform random walk.
  void set_decider(SchedDecider* decider) noexcept { decider_ = decider; }

  /// Records every scheduling decision for later replay.
  void set_recording(bool on) noexcept { recording_ = on; }

  /// The decisions recorded so far. Valid after run_team returned *or*
  /// threw: on a step-budget or deadlock abort the prefix up to the abort
  /// is preserved, so aborted schedules stay replayable.
  [[nodiscard]] RegionTrace take_trace() { return std::move(trace_); }

  // ---- called from worker fibers ----

  /// Current worker index.
  [[nodiscard]] int self() const;

  /// Possible preemption point.
  void yield_point();

  /// Unconditionally passes the token to another runnable worker (if any).
  void yield_now();

  /// Blocks until all live workers of the team arrive.
  void barrier_wait();

  /// Blocks until `ready()` is true; re-evaluated each time the worker is
  /// rescheduled. Throws on deadlock (no runnable worker and no progress).
  void block_until(const std::function<bool()>& ready);

  /// Total yield points taken (busy-wait/step budget guard).
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

  /// Workers that have not yet completed.
  [[nodiscard]] int live() const noexcept { return live_; }

  /// Aborts after this many yield points (guards against livelock).
  void set_step_limit(std::uint64_t limit) noexcept { step_limit_ = limit; }

 private:
  enum class State { Ready, AtBarrier, Done };

  struct FiberArg {
    CoopScheduler* sched = nullptr;
    int index = -1;
  };

  /// Saves the running context into `me`'s fiber (-1 = the caller of
  /// run_team) and resumes `next`'s; restores the scheduler thread-locals
  /// after being resumed.
  void transfer_to(int me, int next);

  /// Body of one worker fiber: runs the job, then the completion
  /// bookkeeping, then transfers away for the last time.
  void fiber_worker_main(int i);
  static void fiber_entry(void* arg);

  /// Picks the next runnable worker and hands it the token; the current
  /// worker resumes when it owns the token again (or on abort).
  void switch_from(int me, bool forced);

  /// Releases a full barrier if everyone arrived.
  void maybe_release_barrier();

  [[nodiscard]] int pick_runnable(int exclude);

  /// Ready workers other than `exclude`, ascending, spin-filtered when
  /// the decider asks for it. Returns a reference to a reused buffer,
  /// valid until the next call.
  [[nodiscard]] const std::vector<int>& ready_peers(int exclude) const;

  /// Decider-routed equivalent of pick_runnable.
  [[nodiscard]] int decide_next(int exclude, bool forced);

  void record(bool forced, int target);

  /// Marks a change to the worker states, the spinning set or the token
  /// holder, which ends any quiet stretch.
  void touch() noexcept { ++version_; }

  std::vector<State> states_;
  int current_ = -1;
  int live_ = 0;
  std::uint64_t barrier_generation_ = 0;
  bool aborting_ = false;
  std::exception_ptr first_error_;
  Rng rng_{0};
  int preempt_every_ = 7;
  std::uint64_t yields_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t step_limit_ = 50'000'000;
  int waiting_ = 0;           // workers inside block_until
  std::uint64_t spin_rounds_ = 0;  // consecutive all-blocked rounds
  SchedDecider* decider_ = nullptr;
  // Quiet-yield state: while version_ == quiet_version_ and steps_ <
  // quiet_until_, the decider's last answer (no preemption) still holds.
  std::uint64_t version_ = 0;
  std::uint64_t quiet_version_ = 0;
  std::uint64_t quiet_until_ = 0;
  bool recording_ = false;
  RegionTrace trace_;
  std::vector<char> spinning_;  // workers currently inside block_until
  std::vector<int> pick_buf_;           // pick_runnable scratch
  mutable std::vector<int> peers_buf_;  // ready_peers scratch
  mutable std::vector<int> awake_buf_;  // ready_peers spin-filter scratch
  Fiber driver_fiber_;  // save slot for the thread driving run_team
  std::vector<std::unique_ptr<Fiber>> worker_fibers_;
  std::vector<FiberArg> fiber_args_;
  std::vector<std::function<void()>>* fiber_jobs_ = nullptr;
};

/// The scheduler owning the running fiber, or nullptr outside any team.
/// Set by run_team for the duration of each worker.
[[nodiscard]] CoopScheduler* current_scheduler() noexcept;
[[nodiscard]] int current_worker_index() noexcept;

}  // namespace drbml::runtime
