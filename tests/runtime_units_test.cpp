// Fine-grained unit tests for runtime primitives: values, vector clocks,
// memory/shadow state -- and for the analysis access collector's
// annotations (sharing classes, phases, locksets) inspected directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "analysis/access.hpp"
#include "analysis/resolve.hpp"
#include "minic/parser.hpp"
#include "runtime/memory.hpp"
#include "runtime/value.hpp"
#include "runtime/vc.hpp"
#include "support/error.hpp"

namespace drbml {
namespace {

// ------------------------------------------------------------- Value

TEST(Value, CoercionsFollowC) {
  using runtime::Value;
  EXPECT_EQ(Value::of_double(3.9).as_int(), 3);
  EXPECT_DOUBLE_EQ(Value::of_int(7).as_double(), 7.0);
  EXPECT_TRUE(Value::of_int(1).truthy());
  EXPECT_FALSE(Value::of_int(0).truthy());
  EXPECT_FALSE(Value::of_double(0.0).truthy());
  EXPECT_FALSE(Value::of_ptr({}).truthy());
  EXPECT_TRUE(Value::of_ptr({3, 0}).truthy());
}

TEST(Value, ToStringForms) {
  using runtime::Value;
  EXPECT_EQ(Value::of_int(5).to_string(), "5");
  EXPECT_EQ(Value::of_ptr({}).to_string(), "nullptr");
  EXPECT_EQ(Value::of_ptr({2, 7}).to_string(), "&obj2[7]");
}

// ------------------------------------------------------------- VectorClock

TEST(VectorClock, JoinIsPointwiseMax) {
  runtime::VectorClock a;
  runtime::VectorClock b;
  a.set(0, 3);
  a.set(2, 1);
  b.set(0, 1);
  b.set(1, 5);
  a.join(b);
  EXPECT_EQ(a.get(0), 3u);
  EXPECT_EQ(a.get(1), 5u);
  EXPECT_EQ(a.get(2), 1u);
  EXPECT_EQ(a.get(9), 0u);  // missing entries read as zero
}

TEST(VectorClock, LeqIsHappensBefore) {
  runtime::VectorClock a;
  runtime::VectorClock b;
  a.set(0, 1);
  b.set(0, 2);
  b.set(1, 1);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  // Concurrent clocks: neither leq the other.
  runtime::VectorClock c;
  c.set(1, 3);
  EXPECT_FALSE(b.leq(c));
  EXPECT_FALSE(c.leq(b));
}

TEST(VectorClock, TickAdvancesOwnComponent) {
  runtime::VectorClock a;
  a.tick(4);
  a.tick(4);
  EXPECT_EQ(a.get(4), 2u);
  EXPECT_EQ(a.get(0), 0u);
}

TEST(Epoch, BeforeChecksSingleComponent) {
  runtime::Epoch e{2, 5};
  runtime::VectorClock c;
  c.set(2, 5);
  EXPECT_TRUE(e.before(c));
  c.set(2, 4);
  EXPECT_FALSE(runtime::Epoch({2, 5}).before(c));
  EXPECT_TRUE(runtime::Epoch{}.before(c));  // invalid epoch precedes all
}

// ----------------------------------------------------- AdaptiveReadClock
//
// A shadow cell's reads: an epoch while one thread reads, an entry in the
// run's ReadSets once a second thread does.

/// A read by `tid` at clock `now`, recorded in `cell`.
void read(runtime::ReadSets& sets, runtime::ShadowCell& cell, int tid,
          std::uint32_t now) {
  sets.record(cell, now, runtime::AccessStamp{nullptr, {}, tid});
}

TEST(AdaptiveReadClock, StaysEpochForSingleReader) {
  runtime::ReadSets sets;
  runtime::ShadowCell cell;
  EXPECT_EQ(cell.read_set, runtime::kNoReadSet);
  read(sets, cell, 3, 5);
  read(sets, cell, 3, 9);  // same thread: epoch overwritten, no promotion
  EXPECT_EQ(cell.read_set, runtime::kNoReadSet);
  EXPECT_EQ(cell.read.tid, 3);
  EXPECT_EQ(cell.read.clock, 9u);
  EXPECT_EQ(cell.read_stamp.tid, 3);
  EXPECT_EQ(sets.get(cell, 3), 9u);
  EXPECT_EQ(sets.get(cell, 0), 0u);
}

TEST(AdaptiveReadClock, PromotesOnSecondDistinctReader) {
  runtime::ReadSets sets;
  runtime::ShadowCell cell;
  read(sets, cell, 2, 6);
  read(sets, cell, 1, 4);
  ASSERT_NE(cell.read_set, runtime::kNoReadSet);
  // Promotion preserved the first reader's component exactly.
  EXPECT_EQ(sets.get(cell, 1), 4u);
  EXPECT_EQ(sets.get(cell, 2), 6u);
  // Each reader's provenance, ascending by thread id.
  const auto& readers = sets.readers(cell);
  ASSERT_EQ(readers.size(), 2u);
  EXPECT_EQ(readers[0].tid, 1);
  EXPECT_EQ(readers[1].tid, 2);
  read(sets, cell, 0, 1);
  read(sets, cell, 2, 8);
  ASSERT_EQ(sets.readers(cell).size(), 3u);
  EXPECT_EQ(sets.readers(cell)[0].tid, 0);
  EXPECT_EQ(sets.get(cell, 2), 8u);
}

TEST(AdaptiveReadClock, LeqMatchesEpochSemantics) {
  runtime::ReadSets sets;
  runtime::ShadowCell cell;
  EXPECT_TRUE(sets.leq(cell, runtime::VectorClock{}));  // no reads
  read(sets, cell, 2, 5);
  runtime::VectorClock c;
  c.set(2, 5);
  EXPECT_TRUE(sets.leq(cell, c));
  c.set(2, 4);
  EXPECT_FALSE(sets.leq(cell, c));
}

TEST(AdaptiveReadClock, ClearResetsToEpochMode) {
  runtime::ReadSets sets;
  runtime::ShadowCell cell;
  read(sets, cell, 0, 1);
  read(sets, cell, 1, 1);
  ASSERT_NE(cell.read_set, runtime::kNoReadSet);
  sets.clear(cell);  // a write
  EXPECT_EQ(cell.read_set, runtime::kNoReadSet);
  EXPECT_FALSE(cell.read.valid());
  EXPECT_TRUE(sets.leq(cell, runtime::VectorClock{}));
}

// Randomized oracle: cells fed an arbitrary interleaving of (tid, clock)
// reads and writes must answer every leq() and get() query exactly like
// full VectorClocks that recorded the same reads since the last write.
// Clocks per thread are nondecreasing, as in a real execution (a thread's
// own clock only advances). The cells share one ReadSets, so a write
// hands its entry back and a later promotion of any cell reuses it. This
// is the promotion-never-changes-the-HB-answer proof, executed.
TEST(AdaptiveReadClock, AgreesWithVectorClockOracle) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  runtime::ReadSets sets;
  std::size_t reused = 0;  // promotions into a recycled entry
  for (int trial = 0; trial < 200; ++trial) {
    constexpr int kCells = 3;
    runtime::ShadowCell cells[kCells];
    runtime::VectorClock oracle[kCells];
    std::uint32_t clocks[4] = {1, 1, 1, 1};
    std::set<std::uint32_t> returned;  // entries writes handed back
    sets.reset();

    const int events = static_cast<int>(next() % 16);
    for (int e = 0; e < events; ++e) {
      const int k = static_cast<int>(next() % kCells);
      if (next() % 5 == 0) {  // a write resets the cell's reads
        if (cells[k].read_set != runtime::kNoReadSet) {
          returned.insert(cells[k].read_set);
        }
        sets.clear(cells[k]);
        oracle[k] = runtime::VectorClock{};
        continue;
      }
      const int tid = static_cast<int>(next() % 4);
      clocks[tid] += static_cast<std::uint32_t>(next() % 3);
      const bool promotes = cells[k].read_set == runtime::kNoReadSet &&
                            cells[k].read.valid() &&
                            cells[k].read.tid != tid;
      read(sets, cells[k], tid, clocks[tid]);
      if (promotes && returned.erase(cells[k].read_set) != 0) ++reused;
      // The oracle keeps the last read per thread, like the promoted VC.
      oracle[k].set(tid, clocks[tid]);
    }

    for (int k = 0; k < kCells; ++k) {
      for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(sets.get(cells[k], t), oracle[k].get(t))
            << "trial " << trial << " cell " << k << " tid " << t;
      }
      for (int q = 0; q < 8; ++q) {
        runtime::VectorClock query;
        for (int t = 0; t < 4; ++t) {
          query.set(t, static_cast<std::uint32_t>(next() % 8));
        }
        EXPECT_EQ(sets.leq(cells[k], query), oracle[k].leq(query))
            << "trial " << trial << " cell " << k << " query " << q
            << (cells[k].read_set != runtime::kNoReadSet ? " (promoted)"
                                                         : " (epoch mode)");
      }
    }
  }
  EXPECT_GT(reused, 0u);
}

// A write hands the entry back; the next promotion, of another cell,
// takes the same entry, starts it empty, and a copy of the table keeps
// both cells' answers.
TEST(AdaptiveReadClock, RecycledEntryStartsEmpty) {
  runtime::ReadSets sets;
  runtime::ShadowCell a;
  runtime::ShadowCell b;
  read(sets, a, 0, 7);
  read(sets, a, 1, 7);
  const std::uint32_t entry = a.read_set;
  sets.clear(a);
  read(sets, b, 2, 3);
  read(sets, b, 3, 4);
  EXPECT_EQ(b.read_set, entry);
  EXPECT_EQ(sets.get(b, 0), 0u);
  EXPECT_EQ(sets.get(b, 1), 0u);
  EXPECT_EQ(sets.get(b, 2), 3u);
  ASSERT_EQ(sets.readers(b).size(), 2u);
  EXPECT_EQ(sets.readers(b)[0].tid, 2);

  runtime::ReadSets copy;
  copy = sets;
  EXPECT_EQ(copy.get(b, 3), 4u);
  read(copy, a, 0, 1);
  read(copy, a, 1, 1);
  EXPECT_NE(a.read_set, b.read_set);
  EXPECT_EQ(copy.get(b, 3), 4u);
}

// ------------------------------------------------------------- Memory

const std::string kA = "a";
const std::string kH = "h";

TEST(Memory, AllocateLoadStore) {
  runtime::Memory mem;
  const std::int64_t dims[] = {4};
  const int id = mem.allocate(&kA, nullptr, dims, 4,
                              runtime::Value::of_int(9), false);
  EXPECT_EQ(mem.load({id, 3}).as_int(), 9);
  mem.store({id, 2}, runtime::Value::of_int(42));
  EXPECT_EQ(mem.load({id, 2}).as_int(), 42);
  EXPECT_EQ(mem.object(id).size(), 4);
  ASSERT_EQ(mem.dims(mem.object(id)).size(), 1u);
  EXPECT_EQ(mem.dims(mem.object(id))[0], 4);
  // A second object's elements do not alias the first's.
  const int other = mem.allocate(&kH, nullptr, {}, 2,
                                 runtime::Value::of_int(0), false);
  mem.store({other, 0}, runtime::Value::of_int(5));
  EXPECT_EQ(mem.load({id, 3}).as_int(), 9);
  EXPECT_EQ(mem.load({other, 0}).as_int(), 5);
  // A store converts to the element type.
  mem.object(other).elem_float = true;
  mem.store({other, 1}, runtime::Value::of_int(3));
  EXPECT_EQ(mem.load({other, 1}).kind(), runtime::Value::Kind::Double);
}

TEST(Memory, BoundsChecked) {
  runtime::Memory mem;
  const int id = mem.allocate(&kA, nullptr, {}, 2,
                              runtime::Value::of_int(0), false);
  (void)mem.allocate(&kH, nullptr, {}, 2, runtime::Value::of_int(0), false);
  // Out of range faults rather than reading the next object's elements.
  EXPECT_THROW((void)mem.load({id, 2}), RuntimeFault);
  EXPECT_THROW((void)mem.load({id, -1}), RuntimeFault);
  EXPECT_THROW(mem.store({id, 2}, runtime::Value::of_int(1)), RuntimeFault);
  EXPECT_THROW((void)mem.object(99), RuntimeFault);
  try {
    (void)mem.load({id, 2});
  } catch (const RuntimeFault& e) {
    EXPECT_STREQ(e.what(), "out-of-bounds access to 'a' at index 2 (size 2)");
  }
}

TEST(Memory, FreedObjectsFault) {
  runtime::Memory mem;
  const int id = mem.allocate(&runtime::Memory::kHeapName, nullptr, {}, 2,
                              runtime::Value::of_int(0), false);
  mem.object(id).freed = true;
  EXPECT_THROW((void)mem.load({id, 0}), RuntimeFault);
  try {
    (void)mem.load({id, 0});
  } catch (const RuntimeFault& e) {
    EXPECT_STREQ(e.what(), "use after free of '<heap>'");
  }
}

TEST(Memory, OversizeAllocationRejected) {
  runtime::Memory mem;
  EXPECT_THROW(mem.allocate(&kA, nullptr, {}, (1 << 25),
                            runtime::Value::of_int(0), false),
               RuntimeFault);
  EXPECT_THROW(mem.allocate(&kA, nullptr, {}, -1,
                            runtime::Value::of_int(0), false),
               RuntimeFault);
  // The cap counts every object of the run; clear() starts a new run.
  (void)mem.allocate(&kA, nullptr, {}, runtime::Memory::kMaxRunElements - 1,
                     runtime::Value::of_int(0), true);
  EXPECT_THROW(mem.allocate(&kA, nullptr, {}, 2, runtime::Value::of_int(0),
                            true),
               RuntimeFault);
  mem.clear();
  EXPECT_NO_THROW(mem.allocate(&kA, nullptr, {}, 2, runtime::Value::of_int(0),
                               true));
}

TEST(Memory, CopiesAndClonesKeepObjectsApart) {
  runtime::Memory mem;
  const std::int64_t dims[] = {2, 3};
  const int id = mem.allocate(&kA, nullptr, dims, 6,
                              runtime::Value::of_int(1), false);
  mem.store({id, 5}, runtime::Value::of_int(7));
  const int copy = mem.clone(id, nullptr, /*copy_values=*/true);
  const int fresh = mem.clone(id, nullptr, /*copy_values=*/false);
  EXPECT_TRUE(mem.object(copy).thread_local_object);
  EXPECT_EQ(mem.object(copy).name, &kA);
  EXPECT_EQ(mem.load({copy, 5}).as_int(), 7);
  EXPECT_EQ(mem.load({fresh, 5}).as_int(), 0);
  ASSERT_EQ(mem.dims(mem.object(copy)).size(), 2u);
  EXPECT_EQ(mem.dims(mem.object(copy))[1], 3);

  runtime::Memory snapshot = mem;
  mem.store({id, 5}, runtime::Value::of_int(8));
  EXPECT_EQ(snapshot.load({id, 5}).as_int(), 7);
  mem = snapshot;
  EXPECT_EQ(mem.load({id, 5}).as_int(), 7);
}

// ------------------------------------------------------------- Collector

/// Parses source, resolves, and collects the (single expected) region.
analysis::ParallelRegion collect_one(const char* src) {
  static std::vector<std::unique_ptr<minic::Program>> keep_alive;
  keep_alive.push_back(
      std::make_unique<minic::Program>(minic::parse_program(src)));
  minic::Program& p = *keep_alive.back();
  static std::vector<std::unique_ptr<analysis::Resolution>> res_alive;
  res_alive.push_back(std::make_unique<analysis::Resolution>(
      analysis::resolve(*p.unit)));
  auto regions = analysis::collect_regions(*p.unit, *res_alive.back());
  EXPECT_EQ(regions.size(), 1u);
  return std::move(regions.front());
}

const analysis::AccessInfo* find_access(const analysis::ParallelRegion& r,
                                        const std::string& text,
                                        bool is_write) {
  for (const auto& a : r.accesses) {
    if (a.text == text && a.is_write == is_write) return &a;
  }
  return nullptr;
}

TEST(Collector, SharingClasses) {
  auto region = collect_one(
      "int g;\n"
      "int main() {\n"
      "  int sum = 0;\n"
      "  int priv = 0;\n"
      "  int a[10];\n"
      "#pragma omp parallel for private(priv) reduction(+:sum)\n"
      "  for (int i = 0; i < 10; i++) {\n"
      "    int local = i;\n"
      "    priv = local;\n"
      "    sum = sum + a[i] + g;\n"
      "  }\n"
      "  return sum;\n"
      "}\n");
  const auto* priv = find_access(region, "priv", true);
  ASSERT_NE(priv, nullptr);
  EXPECT_EQ(priv->sharing, analysis::Sharing::Private);
  const auto* sum = find_access(region, "sum", true);
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->sharing, analysis::Sharing::Reduction);
  // Declarations are not write accesses; the read in `priv = local` shows
  // the region-declared variable classifying as private.
  const auto* local = find_access(region, "local", false);
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(local->sharing, analysis::Sharing::Private);
  const auto* g = find_access(region, "g", false);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->sharing, analysis::Sharing::Shared);
  const auto* arr = find_access(region, "a[i]", false);
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->sharing, analysis::Sharing::Shared);
  ASSERT_EQ(arr->dist_loops.size(), 1u);
  EXPECT_EQ(arr->dist_loops[0].lower, 0);
  EXPECT_EQ(arr->dist_loops[0].upper, 9);
}

TEST(Collector, BarrierPhases) {
  auto region = collect_one(
      "int main() {\n"
      "  int x = 0;\n"
      "  int y = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "    x = 1;\n"
      "#pragma omp barrier\n"
      "    y = 2;\n"
      "  }\n"
      "  return x + y;\n"
      "}\n");
  const auto* x = find_access(region, "x", true);
  const auto* y = find_access(region, "y", true);
  ASSERT_NE(x, nullptr);
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(x->ctx.phase, 0);
  EXPECT_EQ(y->ctx.phase, 1);
}

TEST(Collector, LocksetsTracked) {
  auto region = collect_one(
      "int main() {\n"
      "  omp_lock_t l;\n"
      "  int c = 0;\n"
      "  int d = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "    omp_set_lock(&l);\n"
      "    c = c + 1;\n"
      "    omp_unset_lock(&l);\n"
      "    d = d + 1;\n"
      "  }\n"
      "  return c + d;\n"
      "}\n");
  const auto* c = find_access(region, "c", true);
  const auto* d = find_access(region, "d", true);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(c->ctx.locks.size(), 1u);
  EXPECT_TRUE(d->ctx.locks.empty());
}

TEST(Collector, CriticalAndAtomicContexts) {
  auto region = collect_one(
      "int main() {\n"
      "  int c = 0;\n"
      "  int at = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp critical (tag)\n"
      "    { c = c + 1; }\n"
      "#pragma omp atomic\n"
      "    at += 1;\n"
      "  }\n"
      "  return c + at;\n"
      "}\n");
  const auto* c = find_access(region, "c", true);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->ctx.in_critical);
  EXPECT_EQ(c->ctx.critical_name, "tag");
  const auto* at = find_access(region, "at", true);
  ASSERT_NE(at, nullptr);
  EXPECT_TRUE(at->ctx.atomic);
}

TEST(Collector, SingleAndMasterIdentity) {
  auto region = collect_one(
      "int main() {\n"
      "  int s = 0;\n"
      "  int m = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp single nowait\n"
      "    { s = 1; }\n"
      "#pragma omp master\n"
      "    { m = 1; }\n"
      "  }\n"
      "  return s + m;\n"
      "}\n");
  const auto* s = find_access(region, "s", true);
  const auto* m = find_access(region, "m", true);
  ASSERT_NE(s, nullptr);
  ASSERT_NE(m, nullptr);
  EXPECT_GE(s->ctx.exec_once_id, 0);
  EXPECT_EQ(m->ctx.exec_once_id, -2);  // master blocks share identity
  EXPECT_NE(s->ctx.exec_once_id, m->ctx.exec_once_id);
}

TEST(Collector, TaskContexts) {
  auto region = collect_one(
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "#pragma omp single\n"
      "  {\n"
      "#pragma omp task depend(out: x)\n"
      "    { x = 1; }\n"
      "#pragma omp taskwait\n"
      "#pragma omp task\n"
      "    { x = 2; }\n"
      "  }\n"
      "  return x;\n"
      "}\n");
  std::vector<const analysis::AccessInfo*> writes;
  for (const auto& a : region.accesses) {
    if (a.var != nullptr && a.var->name == "x" && a.is_write) {
      writes.push_back(&a);
    }
  }
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_NE(writes[0]->ctx.task_id, writes[1]->ctx.task_id);
  EXPECT_NE(writes[0]->ctx.task_phase, writes[1]->ctx.task_phase);
  ASSERT_EQ(writes[0]->ctx.depends.size(), 1u);
  EXPECT_EQ(writes[0]->ctx.depends[0].first, "out");
  EXPECT_EQ(writes[0]->ctx.depends[0].second, "x");
}

}  // namespace
}  // namespace drbml
