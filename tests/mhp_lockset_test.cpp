// Golden tests for the barrier-aware MHP phase partition and the static
// lockset analysis: phase counts and boundary kinds for canonical
// barrier/nowait shapes, serial-region classification, and guard-set
// rendering/intersection.
#include <gtest/gtest.h>

#include "analysis/lockset.hpp"
#include "analysis/mhp.hpp"
#include "analysis/race.hpp"
#include "analysis/resolve.hpp"
#include "drb/corpus.hpp"
#include "minic/parser.hpp"

namespace drbml::analysis {
namespace {

struct Parsed {
  minic::Program prog;
  std::vector<ParallelRegion> regions;
};

Parsed collect(const char* src) {
  minic::Program prog = minic::parse_program(src);
  Resolution res = resolve(*prog.unit);
  std::vector<ParallelRegion> regions = collect_regions(*prog.unit, res);
  return {std::move(prog), std::move(regions)};
}

const AccessInfo& access(const std::vector<ParallelRegion>& regions,
                         const std::string& text, bool is_write) {
  for (const auto& region : regions) {
    for (const auto& a : region.accesses) {
      if (a.text == text && a.is_write == is_write) return a;
    }
  }
  throw std::runtime_error("no access " + text);
}

// ------------------------------------------------------- phase partition

TEST(PhasePartition, ExplicitBarrierSplitsTwoPhases) {
  const Parsed p = collect(R"(
int a[8];
int b[8];
int main() {
#pragma omp parallel num_threads(4)
  {
    a[omp_get_thread_num()] = 1;
#pragma omp barrier
    b[omp_get_thread_num()] = a[0];
  }
  return 0;
}
)");
  ASSERT_EQ(p.regions.size(), 1u);
  const PhasePartition part = PhasePartition::of(p.regions[0]);
  EXPECT_EQ(part.phases, 2);
  ASSERT_EQ(part.boundaries.size(), 1u);
  EXPECT_EQ(part.boundaries[0].kind, "barrier");
  EXPECT_EQ(part.boundaries[0].phase_after, 1);
}

TEST(PhasePartition, WorksharingJoinStartsNewPhase) {
  const Parsed p = collect(R"(
int a[100];
int total;
int main() {
  int i;
#pragma omp parallel
  {
#pragma omp for
    for (i = 0; i < 100; i++)
      a[i] = i;
#pragma omp single
    total = a[0];
  }
  return 0;
}
)");
  ASSERT_EQ(p.regions.size(), 1u);
  const PhasePartition part = PhasePartition::of(p.regions[0]);
  EXPECT_GE(part.phases, 2);
  ASSERT_FALSE(part.boundaries.empty());
  EXPECT_EQ(part.boundaries[0].kind, "for-join");
}

TEST(PhasePartition, NowaitSuppressesTheJoin) {
  const Parsed p = collect(R"(
int a[100];
int main() {
  int i;
#pragma omp parallel
  {
#pragma omp for nowait
    for (i = 0; i < 100; i++)
      a[i] = i;
  }
  return 0;
}
)");
  ASSERT_EQ(p.regions.size(), 1u);
  const PhasePartition part = PhasePartition::of(p.regions[0]);
  EXPECT_EQ(part.phases, 1);
  EXPECT_TRUE(part.boundaries.empty());
}

TEST(PhasePartition, SingleBarrierCorpusEntryGolden) {
  const drb::CorpusEntry* e = drb::find_entry("DRB037-singlebarrier-orig-no.c");
  ASSERT_NE(e, nullptr);
  minic::Program prog = minic::parse_program(e->body);
  Resolution res = resolve(*prog.unit);
  const auto regions = collect_regions(*prog.unit, res);
  ASSERT_FALSE(regions.empty());
  const PhasePartition part = PhasePartition::of(regions[0]);
  EXPECT_GE(part.phases, 2);
}

TEST(PhasePartition, PhasesSeparateAccessesAcrossTheBarrier) {
  const Parsed p = collect(R"(
int a[8];
int main() {
#pragma omp parallel num_threads(4)
  {
    a[omp_get_thread_num()] = 1;
#pragma omp barrier
    a[omp_get_thread_num() + 1] = 2;
  }
  return 0;
}
)");
  const AccessInfo& w1 = access(p.regions, "a[omp_get_thread_num()]", true);
  const AccessInfo& w2 = access(p.regions, "a[omp_get_thread_num()+1]", true);
  Evidence ev;
  EXPECT_FALSE(may_happen_in_parallel(w1, w2, "a", MhpOptions{}, ev));
  EXPECT_EQ(ev.discharge_rule, "mhp.phase");
  EXPECT_NE(ev.phase_first, ev.phase_second);
}

// --------------------------------------------------------- serial regions

TEST(SerialRegion, IfZeroFoldsSerial) {
  const Parsed p = collect(R"(
int x;
int main() {
#pragma omp parallel if(0)
  x = x + 1;
  return 0;
}
)");
  ASSERT_EQ(p.regions.size(), 1u);
  const SerialRegionInfo info = classify_serial(p.regions[0]);
  EXPECT_TRUE(info.serial);
  EXPECT_NE(info.reason.find("if"), std::string::npos);
}

TEST(SerialRegion, NumThreadsOneFoldsSerial) {
  const Parsed p = collect(R"(
int x;
int main() {
#pragma omp parallel num_threads(1)
  x = x + 1;
  return 0;
}
)");
  ASSERT_EQ(p.regions.size(), 1u);
  EXPECT_TRUE(classify_serial(p.regions[0]).serial);
}

TEST(SerialRegion, RealTeamIsNotSerial) {
  const Parsed p = collect(R"(
int x;
int main() {
#pragma omp parallel num_threads(4)
  x = x + 1;
  return 0;
}
)");
  ASSERT_EQ(p.regions.size(), 1u);
  EXPECT_FALSE(classify_serial(p.regions[0]).serial);
}

TEST(SerialRegion, NestedTeamForkDefeatsTheFold) {
  // The outer region is serial, but a nested parallel construct forks a
  // team again -- the region must not be classified serial.
  const Parsed p = collect(R"(
int x;
int main() {
#pragma omp parallel num_threads(1)
  {
#pragma omp parallel num_threads(4)
    x = x + 1;
  }
  return 0;
}
)");
  ASSERT_FALSE(p.regions.empty());
  EXPECT_FALSE(classify_serial(p.regions[0]).serial);
}

// --------------------------------------------------------------- locksets

TEST(Lockset, NamedCriticalRendersItsName) {
  const Parsed p = collect(R"(
int x;
int main() {
#pragma omp parallel
  {
#pragma omp critical(lk)
    x = x + 1;
  }
  return 0;
}
)");
  const AccessInfo& w = access(p.regions, "x", true);
  const auto guards = lockset_of(w, LocksetOptions{});
  ASSERT_EQ(guards.size(), 1u);
  EXPECT_EQ(guards[0], "critical(lk)");
}

TEST(Lockset, UnnamedAndNamedCriticalDoNotIntersect) {
  const Parsed p = collect(R"(
int x;
int main() {
#pragma omp parallel
  {
#pragma omp critical
    x = x + 1;
#pragma omp critical(other)
    x = x - 1;
  }
  return 0;
}
)");
  const AccessInfo& plus = access(p.regions, "x", true);
  AccessInfo minus = plus;
  for (const auto& region : p.regions) {
    for (const auto& a : region.accesses) {
      if (a.text == "x" && a.is_write && a.loc.line != plus.loc.line) {
        minus = a;
      }
    }
  }
  ASSERT_NE(minus.loc.line, plus.loc.line);
  EXPECT_TRUE(common_guards(plus, minus, LocksetOptions{}).empty());
}

TEST(Lockset, RuntimeLockRendersTheVariable) {
  const Parsed p = collect(R"(
omp_lock_t l;
int x;
int main() {
#pragma omp parallel
  {
    omp_set_lock(&l);
    x = x + 1;
    omp_unset_lock(&l);
  }
  return 0;
}
)");
  const AccessInfo& w = access(p.regions, "x", true);
  const auto guards = lockset_of(w, LocksetOptions{});
  ASSERT_EQ(guards.size(), 1u);
  EXPECT_EQ(guards[0], "lock:l");

  LocksetOptions no_locks;
  no_locks.model_locks = false;
  EXPECT_TRUE(lockset_of(w, no_locks).empty());
}

TEST(Lockset, NestedGuardsAccumulate) {
  const Parsed p = collect(R"(
omp_lock_t l;
int x;
int main() {
#pragma omp parallel
  {
#pragma omp critical(outer)
    {
      omp_set_lock(&l);
      x = x + 1;
      omp_unset_lock(&l);
    }
  }
  return 0;
}
)");
  const AccessInfo& w = access(p.regions, "x", true);
  const auto guards = lockset_of(w, LocksetOptions{});
  ASSERT_EQ(guards.size(), 2u);
  // Rendered sets are sorted for stable evidence text.
  EXPECT_EQ(guards[0], "critical(outer)");
  EXPECT_EQ(guards[1], "lock:l");
}

TEST(Lockset, CommonCriticalDischargesThePair) {
  const char* src = R"(
int x;
int main() {
  int i;
#pragma omp parallel for
  for (i = 0; i < 100; i++) {
#pragma omp critical
    x = x + 1;
  }
  return 0;
}
)";
  StaticRaceDetector detector;
  const RaceReport report = detector.analyze_source(src);
  EXPECT_FALSE(report.race_detected);
  ASSERT_FALSE(report.discharged.empty());
  EXPECT_EQ(report.discharged.front().evidence.discharge_rule,
            "lockset.common");
}

}  // namespace
}  // namespace drbml::analysis
