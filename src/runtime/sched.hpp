// Cooperative deterministic scheduler for simulated OpenMP teams.
//
// Exactly one worker runs at a time: a token is handed from worker to
// worker at explicit yield points. This gives genuinely interleaved
// executions (including preemption inside critical sections and
// busy-wait loops) while staying bit-for-bit reproducible.
//
// Workers are user-space stackful fibers (runtime/fiber.hpp) multiplexed
// on the thread that calls run_team, so a token handoff is a ~25ns
// context switch rather than a kernel round trip. Nothing here is shared
// with another OS thread, so the scheduler state needs no locking.
//
// The scheduler is mechanism only: token passing, barriers, blocking
// waits, deadlock and step-limit aborts, decision recording. Every
// scheduling choice -- whether to preempt at a yield point and whom to
// hand the token to -- comes from the SchedDecider it is built with
// (runtime/strategy.hpp): the seeded uniform walk, PCT priority
// schedules, or bit-exact replay of a recorded decision trace.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/fiber.hpp"

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

  /// Called once per team before the first worker runs. The default
  /// keeps the decider's state from one team to the next.
  virtual void begin(int workers) { (void)workers; }

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

  /// Called when a worker that spent a step blocked in block_until (a step
  /// that is not a yield point) is about to give up the token to one of
  /// `ready_peers` (never empty, as pick will get them).
  virtual void blocked(const std::vector<int>& /*ready_peers*/) {}

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
  /// `decider` takes every scheduling decision (not owned; must outlive
  /// the scheduler's teams).
  explicit CoopScheduler(SchedDecider& decider) : decider_(&decider) {}

  /// Hands the decisions of the next teams to `decider` (same contract as
  /// the constructor's).
  void set_decider(SchedDecider& decider) noexcept { decider_ = &decider; }

  /// Runs `workers` cooperatively, each on its own fiber, until all
  /// complete. Rethrows the first worker exception (after unwinding the
  /// rest). Must not be called from a worker of this scheduler. An empty
  /// team returns at once. A scheduler runs any number of teams in turn,
  /// and each team reuses the fibers and buffers of the ones before it.
  void run_team(const std::vector<std::function<void()>>& workers);

  /// Records every scheduling decision for later replay.
  void set_recording(bool on) noexcept { recording_ = on; }

  /// The decisions of the current (or last) team recorded so far. Valid
  /// after run_team returned *or* threw: on a step-budget or deadlock
  /// abort the prefix up to the abort is preserved, so aborted schedules
  /// stay replayable. The next team reuses the buffer.
  [[nodiscard]] const RegionTrace& trace() const noexcept { return trace_; }

  // ---- called from worker fibers ----

  /// Possible preemption point. The abort, step-limit and quiet-stretch
  /// tests run inline on every in-team access; the decider is asked out
  /// of line.
  void yield_point() {
    if (aborting_) throw TeamAborted{};
    if (++steps_ > step_limit_) {
      abort_team("step limit exceeded (possible livelock)");
    }
    // Quiet stretch: the decider's last "no" holds until quiet_until_
    // unless the token holder or the ready set changed since.
    if (version_ == quiet_version_ && steps_ < quiet_until_) return;
    ask_decider();
  }

  /// Blocks until all live workers of the team arrive.
  void barrier_wait();

  /// Blocks until `ready()` is true; re-evaluated each time the worker is
  /// rescheduled. Throws on deadlock (no runnable worker and no progress).
  void block_until(const std::function<bool()>& ready);

  /// Steps the current (or last) team took: yield points plus steps spent
  /// blocked in block_until.
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

  /// Workers that have not yet completed.
  [[nodiscard]] int live() const noexcept { return live_; }

  /// Aborts after this many steps (guards against livelock).
  void set_step_limit(std::uint64_t limit) noexcept { step_limit_ = limit; }

 private:
  enum class State { Ready, AtBarrier, Done };

  struct FiberArg {
    CoopScheduler* sched = nullptr;
    int index = -1;
  };

  /// Saves the running context into `me`'s fiber (-1 = the caller of
  /// run_team) and resumes `next`'s; restores the running worker's index
  /// after being resumed.
  void transfer_to(int me, int next);

  /// Body of one worker fiber: runs the job, then the completion
  /// bookkeeping, then transfers away for the last time.
  void fiber_worker_main(int i);
  static void fiber_entry(void* arg);

  /// Hands the token to the worker decide_next picks; the current worker
  /// resumes when it owns the token again (or on abort).
  void switch_from(int me, bool forced);

  /// The rest of yield_point: asks the decider whether to preempt the
  /// running worker, and switches or starts a quiet stretch.
  void ask_decider();

  /// Records `fault` as the team's error unless one is recorded already,
  /// and unwinds the calling worker.
  [[noreturn]] void abort_team(const char* fault);

  /// Releases a full barrier if everyone arrived.
  void maybe_release_barrier();

  /// Ready workers other than `exclude`, ascending, spin-filtered when
  /// the decider asks for it. Returns a reference to a reused buffer,
  /// valid until the next call.
  [[nodiscard]] const std::vector<int>& ready_peers(int exclude) const;

  /// The decider's pick among ready_peers(exclude); `exclude` itself when
  /// it is the only Ready worker, -1 when none is.
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
  std::uint64_t steps_ = 0;
  std::uint64_t step_limit_ = 50'000'000;
  int waiting_ = 0;           // workers inside block_until
  std::uint64_t spin_rounds_ = 0;  // consecutive all-blocked rounds
  SchedDecider* decider_;
  // Quiet-yield state: while version_ == quiet_version_ and steps_ <
  // quiet_until_, the decider's last answer (no preemption) still holds.
  std::uint64_t version_ = 0;
  std::uint64_t quiet_version_ = 0;
  std::uint64_t quiet_until_ = 0;
  bool recording_ = false;
  RegionTrace trace_;
  std::vector<char> spinning_;  // workers currently inside block_until
  mutable std::vector<int> peers_buf_;  // ready_peers scratch
  mutable std::vector<int> awake_buf_;  // ready_peers spin-filter scratch
  Fiber driver_fiber_;  // save slot for the thread driving run_team
  /// One fiber per worker of the largest team so far, re-armed per team.
  std::vector<std::unique_ptr<Fiber>> worker_fibers_;
  std::vector<FiberArg> fiber_args_;
  const std::vector<std::function<void()>>* fiber_jobs_ = nullptr;
};

}  // namespace drbml::runtime
