// Unit tests for the cooperative deterministic scheduler, exercised
// directly (without the interpreter): token passing, barriers, blocking,
// deadlock detection, abort propagation, determinism, the
// SchedDecider::quiet_until contract, and the pinned uniform walk.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "runtime/sched.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace drbml::runtime {
namespace {

TEST(Scheduler, RunsAllWorkersToCompletion) {
  UniformDecider walk(1, 3);
  CoopScheduler sched(walk);
  std::vector<int> done(4, 0);
  std::vector<std::function<void()>> fns;
  for (int i = 0; i < 4; ++i) {
    fns.push_back([&, i] {
      for (int k = 0; k < 10; ++k) sched.yield_point();
      done[static_cast<std::size_t>(i)] = 1;
    });
  }
  sched.run_team(std::move(fns));
  for (int d : done) EXPECT_EQ(d, 1);
}

TEST(Scheduler, OnlyOneWorkerRunsAtATime) {
  UniformDecider walk(7, 1);
  CoopScheduler sched(walk);
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::vector<std::function<void()>> fns;
  for (int i = 0; i < 4; ++i) {
    fns.push_back([&] {
      for (int k = 0; k < 50; ++k) {
        const int now = inside.fetch_add(1);
        if (now != 0) overlap = true;
        inside.fetch_sub(1);
        sched.yield_point();
      }
    });
  }
  sched.run_team(std::move(fns));
  EXPECT_FALSE(overlap.load());
}

TEST(Scheduler, InterleavingIsDeterministicPerSeed) {
  auto trace_for = [](std::uint64_t seed) {
    UniformDecider walk(seed, 1);
    CoopScheduler sched(walk);
    std::string trace;
    std::vector<std::function<void()>> fns;
    for (int i = 0; i < 3; ++i) {
      fns.push_back([&, i] {
        for (int k = 0; k < 8; ++k) {
          trace += static_cast<char>('A' + i);
          sched.yield_point();
        }
      });
    }
    sched.run_team(std::move(fns));
    return trace;
  };
  EXPECT_EQ(trace_for(42), trace_for(42));
  EXPECT_NE(trace_for(42), trace_for(43));
}

TEST(Scheduler, PreemptionActuallyInterleaves) {
  UniformDecider walk(3, 1);
  CoopScheduler sched(walk);
  std::string trace;
  std::vector<std::function<void()>> fns;
  for (int i = 0; i < 2; ++i) {
    fns.push_back([&, i] {
      for (int k = 0; k < 20; ++k) {
        trace += static_cast<char>('A' + i);
        sched.yield_point();
      }
    });
  }
  sched.run_team(std::move(fns));
  // Not all of A before all of B.
  EXPECT_NE(trace, std::string(20, 'A') + std::string(20, 'B'));
  EXPECT_NE(trace, std::string(20, 'B') + std::string(20, 'A'));
}

TEST(Scheduler, BarrierSynchronizesPhases) {
  UniformDecider walk(11, 2);
  CoopScheduler sched(walk);
  std::vector<int> phase_done(3, 0);
  std::atomic<bool> violation{false};
  std::vector<std::function<void()>> fns;
  for (int i = 0; i < 3; ++i) {
    fns.push_back([&, i] {
      for (int k = 0; k < 5; ++k) sched.yield_point();
      phase_done[static_cast<std::size_t>(i)] = 1;
      sched.barrier_wait();
      // After the barrier every worker's phase-0 work must be complete.
      for (int other = 0; other < 3; ++other) {
        if (phase_done[static_cast<std::size_t>(other)] != 1) {
          violation = true;
        }
      }
    });
  }
  sched.run_team(std::move(fns));
  EXPECT_FALSE(violation.load());
}

TEST(Scheduler, RepeatedBarriers) {
  UniformDecider walk(5, 2);
  CoopScheduler sched(walk);
  std::vector<int> counters(4, 0);
  std::atomic<bool> violation{false};
  std::vector<std::function<void()>> fns;
  for (int i = 0; i < 4; ++i) {
    fns.push_back([&, i] {
      for (int round = 0; round < 6; ++round) {
        counters[static_cast<std::size_t>(i)] = round + 1;
        sched.barrier_wait();
        for (int other = 0; other < 4; ++other) {
          if (counters[static_cast<std::size_t>(other)] < round + 1) {
            violation = true;
          }
        }
        sched.barrier_wait();
      }
    });
  }
  sched.run_team(std::move(fns));
  EXPECT_FALSE(violation.load());
}

TEST(Scheduler, BlockUntilWaitsForPeerProgress) {
  UniformDecider walk(9, 1);
  CoopScheduler sched(walk);
  int flag = 0;
  int observed = -1;
  std::vector<std::function<void()>> fns;
  fns.push_back([&] {
    sched.block_until([&] { return flag == 1; });
    observed = flag;
  });
  fns.push_back([&] {
    for (int k = 0; k < 10; ++k) sched.yield_point();
    flag = 1;
  });
  sched.run_team(std::move(fns));
  EXPECT_EQ(observed, 1);
}

TEST(Scheduler, DeadlockIsDetected) {
  UniformDecider walk(13, 1);
  CoopScheduler sched(walk);
  std::vector<std::function<void()>> fns;
  // Both workers wait on conditions nobody will satisfy.
  for (int i = 0; i < 2; ++i) {
    fns.push_back([&] { sched.block_until([] { return false; }); });
  }
  EXPECT_THROW(sched.run_team(std::move(fns)), RuntimeFault);
}

TEST(Scheduler, BlockedWorkerWithOnlyABarrierPeerDeadlocks) {
  // The only peer waits at a barrier that needs the blocked worker, so no
  // Ready peer is left to make the predicate true.
  UniformDecider walk(13, 1);
  CoopScheduler sched(walk);
  std::vector<std::function<void()>> fns;
  fns.push_back([&] { sched.block_until([] { return false; }); });
  fns.push_back([&] { sched.barrier_wait(); });
  try {
    sched.run_team(std::move(fns));
    ADD_FAILURE() << "no deadlock reported";
  } catch (const RuntimeFault& e) {
    EXPECT_STREQ(e.what(), "deadlock: worker blocked with no runnable peer");
  }
}

TEST(Scheduler, StepLimitAborts) {
  UniformDecider walk(17, 1);
  CoopScheduler sched(walk);
  sched.set_step_limit(100);
  std::vector<std::function<void()>> fns;
  fns.push_back([&] {
    for (;;) sched.yield_point();
  });
  EXPECT_THROW(sched.run_team(std::move(fns)), RuntimeFault);
}

TEST(Scheduler, WorkerExceptionPropagatesAndUnwindsTeam) {
  UniformDecider walk(19, 1);
  CoopScheduler sched(walk);
  bool other_started = false;
  std::vector<std::function<void()>> fns;
  fns.push_back([&] {
    for (int k = 0; k < 3; ++k) sched.yield_point();
    throw RuntimeFault("boom");
  });
  fns.push_back([&] {
    other_started = true;
    for (;;) sched.yield_point();  // unwound via TeamAborted
  });
  EXPECT_THROW(sched.run_team(std::move(fns)), RuntimeFault);
  EXPECT_TRUE(other_started);
}

TEST(Scheduler, SingleWorkerTeamRuns) {
  UniformDecider walk(23, 1);
  CoopScheduler sched(walk);
  int count = 0;
  std::vector<std::function<void()>> fns;
  fns.push_back([&] {
    for (int k = 0; k < 100; ++k) {
      ++count;
      sched.yield_point();
    }
    sched.barrier_wait();
  });
  sched.run_team(std::move(fns));
  EXPECT_EQ(count, 100);
}

TEST(Scheduler, EmptyTeamReturnsAtOnce) {
  UniformDecider walk(37, 1);
  CoopScheduler sched(walk);
  sched.set_recording(true);
  sched.run_team({});
  EXPECT_EQ(sched.steps(), 0u);
  EXPECT_EQ(sched.live(), 0);
  EXPECT_TRUE(sched.trace().empty());

  PctDecider pct(37, 3, 64);
  CoopScheduler pct_sched(pct);
  pct_sched.set_recording(true);
  pct_sched.run_team({});
  EXPECT_EQ(pct_sched.steps(), 0u);
  EXPECT_EQ(pct_sched.live(), 0);
  EXPECT_TRUE(pct_sched.trace().empty());
}

TEST(Scheduler, LiveCountTracksCompletion) {
  UniformDecider walk(29, 1);
  CoopScheduler sched(walk);
  int live_at_end = -1;
  std::vector<std::function<void()>> fns;
  fns.push_back([&] {
    for (int k = 0; k < 5; ++k) sched.yield_point();
  });
  fns.push_back([&] {
    for (int k = 0; k < 200; ++k) sched.yield_point();
    live_at_end = sched.live();
  });
  sched.run_team(std::move(fns));
  EXPECT_EQ(live_at_end, 1);  // only this worker was still live
}

// ---- SchedDecider::quiet_until contract ---------------------------------

/// Forwards every hook to `inner` but keeps the default quiet_until, so
/// the scheduler asks should_preempt at every yield point.
class AlwaysAsk : public SchedDecider {
 public:
  explicit AlwaysAsk(SchedDecider& inner) : inner_(inner) {}
  void begin(int workers) override { inner_.begin(workers); }
  bool should_preempt(std::uint64_t step, int current,
                      const std::vector<int>& ready_peers) override {
    return inner_.should_preempt(step, current, ready_peers);
  }
  void blocked(const std::vector<int>& ready_peers) override {
    inner_.blocked(ready_peers);
  }
  int pick(const std::vector<int>& ready, int current, std::uint64_t step,
           bool forced) override {
    return inner_.pick(ready, current, step, forced);
  }
  [[nodiscard]] bool filter_spinners() const override {
    return inner_.filter_spinners();
  }

 private:
  SchedDecider& inner_;
};

/// Counts preemption queries; preempts every fifth step.
class CountingDecider : public SchedDecider {
 public:
  bool should_preempt(std::uint64_t step, int current,
                      const std::vector<int>& ready_peers) override {
    (void)current;
    (void)ready_peers;
    ++asked;
    return step % 5 == 0;
  }
  int pick(const std::vector<int>& ready, int current, std::uint64_t step,
           bool forced) override {
    (void)current;
    (void)step;
    (void)forced;
    return ready.back();
  }
  int asked = 0;
};

TEST(QuietUntil, DefaultDeciderIsAskedAtEveryYieldPoint) {
  CountingDecider decider;
  CoopScheduler sched(decider);
  int yields = 0;
  std::vector<std::function<void()>> fns;
  for (int i = 0; i < 3; ++i) {
    fns.push_back([&, i] {
      for (int k = 0; k < 20 + 7 * i; ++k) {
        ++yields;
        sched.yield_point();
      }
    });
  }
  sched.run_team(std::move(fns));
  EXPECT_EQ(yields, 81);
  EXPECT_EQ(decider.asked, yields);
}

struct TeamOutcome {
  RegionTrace trace;
  std::uint64_t steps = 0;
  std::string error;

  friend bool operator==(const TeamOutcome&, const TeamOutcome&) = default;
};

/// Runs a seeded synthetic team under `decider`: 2-5 workers doing yield
/// loops of random length in rounds, team-wide barriers after some
/// rounds, workers 1.. blocking until worker 0 has published the current
/// round, and workers that finish after fewer rounds than the rest.
TeamOutcome run_synthetic_team(std::uint64_t seed, SchedDecider& decider) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.between(2, 5));
  const int rounds = static_cast<int>(rng.between(2, 6));
  std::vector<bool> barrier_after(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    barrier_after[static_cast<std::size_t>(r)] = rng.chance(0.4);
  }
  struct Plan {
    int rounds = 0;
    std::vector<int> before, after;  // yields around the blocking wait
    std::vector<bool> waits;
  };
  std::vector<Plan> plans(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Plan& p = plans[static_cast<std::size_t>(i)];
    p.rounds = rng.chance(0.3) ? static_cast<int>(rng.between(1, rounds))
                               : rounds;
    for (int r = 0; r < rounds; ++r) {
      p.before.push_back(static_cast<int>(rng.between(0, 12)));
      p.after.push_back(static_cast<int>(rng.between(0, 12)));
      p.waits.push_back(i > 0 && rng.chance(0.5));
    }
  }

  CoopScheduler sched(decider);
  sched.set_recording(true);
  sched.set_step_limit(100'000);
  int published = -1;  // worker 0's round; 1 << 20 once it finished
  std::vector<std::function<void()>> fns;
  for (int i = 0; i < n; ++i) {
    fns.push_back([&, i] {
      const Plan& p = plans[static_cast<std::size_t>(i)];
      for (int r = 0; r < p.rounds; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (i == 0) published = r;
        for (int k = 0; k < p.before[ri]; ++k) sched.yield_point();
        if (p.waits[ri]) sched.block_until([&] { return published >= r; });
        for (int k = 0; k < p.after[ri]; ++k) sched.yield_point();
        if (barrier_after[ri]) sched.barrier_wait();
      }
      if (i == 0) published = 1 << 20;
    });
  }
  TeamOutcome out;
  try {
    sched.run_team(std::move(fns));
  } catch (const RuntimeFault& e) {
    out.error = e.what();
  }
  out.trace = sched.trace();
  out.steps = sched.steps();
  return out;
}

/// A replay trace with every third decision dropped, the kind of
/// subsequence the witness minimizer feeds back.
RegionTrace thinned(const RegionTrace& trace) {
  RegionTrace out;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (k % 3 != 1) out.push_back(trace[k]);
  }
  return out;
}

TEST(QuietUntil, QuietDecidersMatchAlwaysAskedOnes) {
  int completed = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const int depth = 2 + static_cast<int>(seed % 3);
    const std::uint64_t expected = 20 + 7 * (seed % 11);

    PctDecider quiet_pct(seed * 77, depth, expected);
    const TeamOutcome pct = run_synthetic_team(seed, quiet_pct);
    PctDecider inner_pct(seed * 77, depth, expected);
    AlwaysAsk asked_pct(inner_pct);
    EXPECT_EQ(pct, run_synthetic_team(seed, asked_pct));
    if (pct.error.empty()) ++completed;

    for (const RegionTrace& trace : {pct.trace, thinned(pct.trace)}) {
      ReplayDecider quiet_replay(trace);
      const TeamOutcome replay = run_synthetic_team(seed, quiet_replay);
      ReplayDecider inner_replay(trace);
      AlwaysAsk asked_replay(inner_replay);
      EXPECT_EQ(replay, run_synthetic_team(seed, asked_replay));
    }
    // A full trace replays the recorded schedule.
    ReplayDecider full(pct.trace);
    EXPECT_EQ(run_synthetic_team(seed, full), pct);

    UniformDecider quiet_walk(seed, 3);
    const TeamOutcome walk = run_synthetic_team(seed, quiet_walk);
    UniformDecider inner_walk(seed, 3);
    AlwaysAsk asked_walk(inner_walk);
    EXPECT_EQ(walk, run_synthetic_team(seed, asked_walk));
    ReplayDecider full_walk(walk.trace);
    EXPECT_EQ(run_synthetic_team(seed, full_walk), walk);
  }
  // The teams must mostly run to completion, or the comparison would only
  // cover deadlock prefixes.
  EXPECT_GT(completed, 100);
}

/// The uniform walk's schedules, pinned: one hash over the trace, steps
/// and error of seeds 1-120, recorded before the walk became a decider.
/// It moves if the walk counts steps instead of yield points, skips the
/// draw of a blocked step, or draws for the initial grant.
TEST(UniformWalk, SyntheticTeamsMatchPinnedHash) {
  std::string all;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    UniformDecider walk(seed, 3);
    const TeamOutcome out = run_synthetic_team(seed, walk);
    all += std::to_string(seed) + " " + std::to_string(out.steps) + " " +
           out.error + ":";
    for (const ScheduleDecision& d : out.trace) {
      all += ' ';
      all += std::to_string(d.forced) + "/" + std::to_string(d.step) + "/" +
             std::to_string(d.target);
    }
    all += "\n";
  }
  EXPECT_EQ(fnv1a64(all), 0x848986c78eb390bfULL);
}

}  // namespace
}  // namespace drbml::runtime
