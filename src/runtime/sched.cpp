#include "runtime/sched.hpp"

#include "support/error.hpp"

namespace drbml::runtime {

namespace {
thread_local int t_worker_index = -1;
}  // namespace

const std::vector<int>& CoopScheduler::ready_peers(int exclude) const {
  // Scratch buffers reused across calls: deciders query the peer set at
  // every yield point (should_preempt), which is the hottest scheduler
  // path after the yield itself. The returned reference is valid until
  // the next ready_peers call.
  peers_buf_.clear();
  for (int i = 0; i < static_cast<int>(states_.size()); ++i) {
    if (states_[static_cast<std::size_t>(i)] == State::Ready && i != exclude) {
      peers_buf_.push_back(i);
    }
  }
  if (decider_->filter_spinners()) {
    awake_buf_.clear();
    for (int i : peers_buf_) {
      if (!spinning_[static_cast<std::size_t>(i)]) awake_buf_.push_back(i);
    }
    if (!awake_buf_.empty()) return awake_buf_;
  }
  return peers_buf_;
}

int CoopScheduler::decide_next(int exclude, bool forced) {
  const std::vector<int>& ready = ready_peers(exclude);
  if (ready.empty()) {
    if (exclude >= 0 &&
        states_[static_cast<std::size_t>(exclude)] == State::Ready) {
      return exclude;
    }
    return -1;
  }
  return decider_->pick(ready, exclude, steps_, forced);
}

void CoopScheduler::record(bool forced, int target) {
  if (recording_) trace_.push_back({forced, steps_, target});
}

void CoopScheduler::maybe_release_barrier() {
  int waiting = 0;
  for (State s : states_) {
    if (s == State::AtBarrier) ++waiting;
  }
  if (waiting > 0 && waiting == live_) {
    for (auto& s : states_) {
      if (s == State::AtBarrier) s = State::Ready;
    }
    ++barrier_generation_;
    touch();
  }
}

void CoopScheduler::abort_team(const char* fault) {
  aborting_ = true;
  if (!first_error_) {
    first_error_ = std::make_exception_ptr(RuntimeFault(fault));
  }
  throw TeamAborted{};
}

void CoopScheduler::switch_from(int me, bool forced) {
  touch();
  const int next = decide_next(me, forced);
  if (next == -1) {
    // No other runnable worker. If everyone else is done or at a barrier
    // that cannot release, this is a deadlock.
    if (me >= 0 && states_[static_cast<std::size_t>(me)] == State::Ready) {
      current_ = me;
      return;  // keep running
    }
    abort_team("deadlock: no runnable worker");
  }
  if (next != me) record(forced, next);
  current_ = next;
  if (me < 0 || next == me) return;
  transfer_to(me, next);
  if (aborting_) throw TeamAborted{};
}

void CoopScheduler::ask_decider() {
  if (!decider_->should_preempt(steps_, t_worker_index,
                                ready_peers(t_worker_index))) {
    quiet_version_ = version_;
    quiet_until_ = decider_->quiet_until(steps_);
    return;
  }
  switch_from(t_worker_index, /*forced=*/false);
}

void CoopScheduler::barrier_wait() {
  if (aborting_) throw TeamAborted{};
  const int me = t_worker_index;
  const std::uint64_t gen = barrier_generation_;
  states_[static_cast<std::size_t>(me)] = State::AtBarrier;
  touch();
  maybe_release_barrier();
  if (barrier_generation_ != gen) {
    // Barrier released immediately (we were last); keep the token.
    current_ = me;
    return;
  }
  switch_from(me, /*forced=*/true);
  // Rescheduled: barrier must have released (or abort).
  if (aborting_) throw TeamAborted{};
}

void CoopScheduler::block_until(const std::function<bool()>& ready) {
  bool counted = false;
  auto leave_wait = [&] {
    spinning_[static_cast<std::size_t>(t_worker_index)] = 0;
    touch();
    if (counted) {
      --waiting_;
      counted = false;
      spin_rounds_ = 0;  // a worker made progress
    }
  };
  for (;;) {
    if (aborting_) {
      leave_wait();
      throw TeamAborted{};
    }
    if (ready()) {
      leave_wait();
      return;
    }
    // Blocking consumes steps: a team spinning on conditions nobody can
    // satisfy must hit the livelock guard rather than hang.
    if (++steps_ > step_limit_) {
      leave_wait();
      abort_team("step limit exceeded while blocked");
    }
    if (!counted) {
      ++waiting_;
      counted = true;
    }
    spinning_[static_cast<std::size_t>(t_worker_index)] = 1;
    touch();
    // With no peer Ready, every other live worker is at a barrier that
    // cannot release while this one waits: deadlock.
    const std::vector<int>& peers = ready_peers(t_worker_index);
    if (peers.empty()) {
      leave_wait();
      abort_team("deadlock: worker blocked with no runnable peer");
    }
    decider_->blocked(peers);
    int at_barrier = 0;
    for (State s : states_) {
      if (s == State::AtBarrier) ++at_barrier;
    }
    if (waiting_ + at_barrier >= live_) {
      // All peers are blocked too; a worker whose predicate just became
      // true may simply not have been rescheduled yet, so give the
      // round-robin a generous budget before declaring deadlock.
      if (++spin_rounds_ > 64 * static_cast<std::uint64_t>(live_) + 256) {
        leave_wait();
        abort_team("deadlock: all workers blocked on unsatisfiable conditions");
      }
    } else {
      spin_rounds_ = 0;
    }
    switch_from(t_worker_index, /*forced=*/true);
  }
}

void CoopScheduler::run_team(
    const std::vector<std::function<void()>>& workers) {
  const int n = static_cast<int>(workers.size());
  states_.assign(static_cast<std::size_t>(n), State::Ready);
  live_ = n;
  aborting_ = false;
  first_error_ = nullptr;
  barrier_generation_ = 0;
  steps_ = 0;
  waiting_ = 0;
  spin_rounds_ = 0;
  spinning_.assign(static_cast<std::size_t>(n), 0);
  touch();  // no quiet stretch carries over from a previous team
  trace_.clear();
  if (n == 0) return;
  decider_->begin(n);
  // Initial token grant, among all workers (none is spinning yet).
  const int first = decider_->pick(ready_peers(-1), /*current=*/-1,
                                   /*step=*/0, /*forced=*/true);

  // The driver may itself be a worker fiber of an enclosing scheduler
  // (nested regions serialize but still build a team); save its identity
  // so nested run_team calls nest cleanly.
  const int prev_index = t_worker_index;

  fiber_jobs_ = &workers;
  fiber_args_.resize(static_cast<std::size_t>(n));
  while (worker_fibers_.size() < static_cast<std::size_t>(n)) {
    worker_fibers_.push_back(std::make_unique<Fiber>());
  }
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    fiber_args_[k] = FiberArg{this, i};
    worker_fibers_[k]->start(&CoopScheduler::fiber_entry, &fiber_args_[k]);
  }

  record(/*forced=*/true, first);
  current_ = first;
  // Suspend the driver; it resumes when the last fiber completes (or the
  // abort chain has unwound every live fiber).
  transfer_to(/*me=*/-1, first);

  t_worker_index = prev_index;
  fiber_jobs_ = nullptr;

  if (first_error_) std::rethrow_exception(first_error_);
}

void CoopScheduler::transfer_to(int me, int next) {
  Fiber& from = me < 0 ? driver_fiber_
                       : *worker_fibers_[static_cast<std::size_t>(me)];
  Fiber& to = next < 0 ? driver_fiber_
                       : *worker_fibers_[static_cast<std::size_t>(next)];
  Fiber::transfer(from, to);
  // Resumed: whatever ran in between rewrote t_worker_index.
  t_worker_index = me;
}

void CoopScheduler::fiber_entry(void* arg) {
  auto* fa = static_cast<FiberArg*>(arg);
  fa->sched->fiber_worker_main(fa->index);
}

void CoopScheduler::fiber_worker_main(int i) {
  t_worker_index = i;
  try {
    if (!aborting_) (*fiber_jobs_)[static_cast<std::size_t>(i)]();
  } catch (const TeamAborted&) {
    // unwound by abort
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
    aborting_ = true;
  }
  // Completion bookkeeping.
  states_[static_cast<std::size_t>(i)] = State::Done;
  touch();
  --live_;
  maybe_release_barrier();
  int next = -1;
  if (!aborting_) {
    next = decide_next(i, /*forced=*/true);
    if (next >= 0) record(/*forced=*/true, next);
    current_ = next;  // -1 when everyone is done
  } else {
    // Abort: resume each remaining fiber in turn so TeamAborted unwinds
    // its stack before run_team returns.
    for (int k = 0; k < static_cast<int>(states_.size()); ++k) {
      if (states_[static_cast<std::size_t>(k)] != State::Done) {
        next = k;
        break;
      }
    }
    current_ = next;
  }
  // Final transfer: Done workers are never picked again, so control never
  // returns here; the next team re-arms the fiber on a fresh frame.
  transfer_to(i, next);
  // not reached -- the trampoline aborts if an entry ever returns
}

}  // namespace drbml::runtime
