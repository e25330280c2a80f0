// Tests for the schedule-exploration engine: PCT priority schedules,
// interleaving coverage, witness minimization, and bit-identical replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "explore/explore.hpp"
#include "explore/minimize.hpp"
#include "explore/witness.hpp"
#include "minic/parser.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "runtime/dynamic.hpp"
#include "runtime/interp.hpp"
#include "runtime/strategy.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace drbml::explore {
namespace {

// DRB001-style loop-carried race: every interleaving with two threads in
// the region exposes it, so uniform random walks find it immediately.
constexpr const char* kRacySrc = R"(
int a[64];
int main(void) {
  #pragma omp parallel for num_threads(4)
  for (int i = 0; i < 63; i++) {
    a[i] = a[i + 1] + 1;
  }
  return 0;
}
)";

constexpr const char* kSafeSrc = R"(
int a[64];
int main(void) {
  #pragma omp parallel for num_threads(4)
  for (int i = 0; i < 64; i++) {
    a[i] = i * 2;
  }
  int s = 0;
  for (int i = 0; i < 64; i++) {
    s = s + a[i];
  }
  printf("%d", s);
  return 0;
}
)";

// Lock-window race: t1 only observes the unsynchronized `data` write if
// it wins the critical section first. Under the legacy uniform walk
// worker 0 takes the token first and finishes its critical section
// before the first preemption window, so the racy order needs a
// priority inversion at the start of the region -- PCT's randomized
// base priorities produce it with probability ~1/2 per schedule.
constexpr const char* kLockWindowSrc = R"(
int data = 0;
int sync = 0;
int main(void) {
  #pragma omp parallel num_threads(2)
  {
    if (omp_get_thread_num() == 0) {
      data = 1;
      #pragma omp critical
      { sync = sync + 1; }
    } else {
      #pragma omp critical
      { sync = sync + 1; }
      int r = data;
      r = r + 0;
    }
  }
  return 0;
}
)";

constexpr const char* kSpinSrc = R"(
int x = 0;
int main(void) {
  #pragma omp parallel num_threads(2)
  {
    while (1) {
      x = x + 1;
    }
  }
  return 0;
}
)";

runtime::RunResult run_src(const char* src, runtime::RunOptions opts) {
  minic::Program p = minic::parse_program(src);
  analysis::Resolution res = analysis::resolve(*p.unit);
  return runtime::run_program(*p.unit, res, opts);
}

bool same_result(const runtime::RunResult& a, const runtime::RunResult& b) {
  return a.output == b.output && a.exit_code == b.exit_code &&
         a.faulted == b.faulted && a.steps == b.steps &&
         a.report.race_detected == b.report.race_detected &&
         a.report.pairs == b.report.pairs;
}

bool is_subsequence(const runtime::ScheduleTrace& small,
                    const runtime::ScheduleTrace& big) {
  if (small.regions.size() > big.regions.size()) return false;
  for (std::size_t r = 0; r < small.regions.size(); ++r) {
    std::size_t j = 0;
    for (const runtime::ScheduleDecision& d : small.regions[r]) {
      while (j < big.regions[r].size() && !(big.regions[r][j] == d)) ++j;
      if (j == big.regions[r].size()) return false;
      ++j;
    }
  }
  return true;
}

std::string fingerprint(const ExploreResult& r) {
  std::string s;
  s += r.race_detected ? "race;" : "clean;";
  s += std::to_string(r.schedules_run) + ";";
  s += std::to_string(r.first_race_schedule) + ";";
  s += std::to_string(r.first_race_seed) + ";";
  s += r.stopped_on_plateau ? "plateau;" : "-;";
  for (std::uint64_t h : r.coverage) s += std::to_string(h) + ",";
  s += ";";
  for (const ScheduleStats& st : r.schedules) {
    s += std::to_string(st.seed) + ":" + (st.raced ? "r" : "-") +
         (st.faulted ? "f" : "-") + ":" + std::to_string(st.steps) + ":" +
         std::to_string(st.new_coverage) + ",";
  }
  s += ";" + r.witness + ";";
  s += std::to_string(r.original_decisions) + ";" +
       std::to_string(r.witness_decisions) + ";";
  for (const auto& p : r.report.pairs) {
    s += std::to_string(p.first.loc.line) + ":" +
         std::to_string(p.first.loc.col) + "/" +
         std::to_string(p.second.loc.line) + ":" +
         std::to_string(p.second.loc.col) + ",";
  }
  return s;
}

// ------------------------------------------------------------ PCT decider

TEST(PctDecider, DistinctPrioritiesAndDeterministicForSeed) {
  runtime::PctDecider a(42, 3, 100);
  runtime::PctDecider b(42, 3, 100);
  a.begin(4);
  b.begin(4);
  std::vector<int> seen;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.priority(i), b.priority(i));
    seen.push_back(a.priority(i));
  }
  std::sort(seen.begin(), seen.end());
  // Base priorities are a permutation of d..d+n-1 (all above change-point
  // demotion values, which are negative).
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5, 6}));
}

TEST(PctDecider, PicksHighestPriorityReady) {
  runtime::PctDecider d(7, 3, 100);
  d.begin(4);
  int best = 0;
  for (int i = 1; i < 4; ++i) {
    if (d.priority(i) > d.priority(best)) best = i;
  }
  std::vector<int> all{0, 1, 2, 3};
  EXPECT_EQ(d.pick(all, -1, 0, true), best);
}

TEST(PctDecider, DifferentSeedsChangeSchedules) {
  // Not guaranteed for any single pair, but across a handful of seeds at
  // least two must disagree on the priority permutation.
  std::vector<std::vector<int>> perms;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    runtime::PctDecider d(seed, 3, 100);
    d.begin(4);
    std::vector<int> p;
    for (int i = 0; i < 4; ++i) p.push_back(d.priority(i));
    perms.push_back(p);
  }
  bool differs = false;
  for (const auto& p : perms) {
    if (p != perms[0]) differs = true;
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------------------- replay

TEST(Replay, UniformTraceReplaysBitIdentically) {
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    runtime::RunOptions rec;
    rec.seed = seed;
    rec.capture_trace = true;
    runtime::RunResult first = run_src(kRacySrc, rec);

    runtime::RunOptions rep = rec;
    rep.strategy = runtime::ScheduleStrategy::Replay;
    rep.replay = nullptr;
    runtime::ScheduleTrace trace = first.trace;
    rep.replay = &trace;
    runtime::RunResult second = run_src(kRacySrc, rep);
    EXPECT_TRUE(same_result(first, second)) << "seed " << seed;
    EXPECT_EQ(second.trace, trace);
  }
}

TEST(Replay, PctTraceReplaysBitIdentically) {
  for (std::uint64_t seed : {3ULL, 11ULL, 1234ULL}) {
    runtime::RunOptions rec;
    rec.seed = seed;
    rec.strategy = runtime::ScheduleStrategy::Pct;
    rec.capture_trace = true;
    runtime::RunResult first = run_src(kLockWindowSrc, rec);

    runtime::RunOptions rep = rec;
    rep.strategy = runtime::ScheduleStrategy::Replay;
    runtime::ScheduleTrace trace = first.trace;
    rep.replay = &trace;
    runtime::RunResult second = run_src(kLockWindowSrc, rep);
    EXPECT_TRUE(same_result(first, second)) << "seed " << seed;
  }
}

TEST(Replay, EmptyTraceIsDeterministicFallback) {
  runtime::ScheduleTrace empty;
  runtime::RunOptions rep;
  rep.strategy = runtime::ScheduleStrategy::Replay;
  rep.replay = &empty;
  runtime::RunResult a = run_src(kSafeSrc, rep);
  runtime::RunResult b = run_src(kSafeSrc, rep);
  EXPECT_TRUE(same_result(a, b));
  EXPECT_FALSE(a.faulted);
  EXPECT_EQ(a.output, "4032");
}

// Satellite fix: a step-budget abort must still surface the decision
// prefix recorded so far, so aborted schedules stay replayable.
TEST(Replay, PartialTraceSurvivesStepBudgetAbort) {
  runtime::RunOptions opts;
  opts.seed = 5;
  opts.num_threads = 2;
  opts.step_limit = 400;
  opts.capture_trace = true;
  runtime::RunResult r = run_src(kSpinSrc, opts);
  EXPECT_TRUE(r.faulted);
  ASSERT_FALSE(r.trace.regions.empty());
  EXPECT_GT(r.trace.total_decisions(), 0u);

  // The surfaced prefix replays deterministically.
  runtime::RunOptions rep = opts;
  rep.strategy = runtime::ScheduleStrategy::Replay;
  rep.replay = &r.trace;
  runtime::RunResult again = run_src(kSpinSrc, rep);
  EXPECT_TRUE(same_result(r, again));
}

// ------------------------------------------------------------- witness

TEST(Witness, EncodeDecodeRoundTrip) {
  Witness w;
  w.num_threads = 3;
  w.preempt_every = 5;
  w.step_limit = 1000;
  w.trace.regions.resize(2);
  w.trace.regions[0].push_back({true, 0, 2});
  w.trace.regions[0].push_back({false, 17, 1});
  const std::string text = encode_witness(w);
  Witness back = decode_witness(text);
  EXPECT_TRUE(w == back);
  EXPECT_EQ(encode_witness(back), text);
}

TEST(Witness, DecodeRejectsMalformedInput) {
  EXPECT_THROW(decode_witness(""), Error);
  EXPECT_THROW(decode_witness("bogus-v9;threads=2"), Error);
  EXPECT_THROW(decode_witness("drbml-witness-v1;threads=0;preempt=7;limit=1"),
               Error);
  EXPECT_THROW(decode_witness("drbml-witness-v1;threads=99;preempt=7;limit=1"),
               Error);
  EXPECT_THROW(
      decode_witness("drbml-witness-v1;threads=2;preempt=7;limit=1;region=z1:0"),
      Error);
  EXPECT_THROW(
      decode_witness("drbml-witness-v1;threads=2;preempt=7;limit=1;bogus=3"),
      Error);
  // Numbers too large for their field are rejected, not wrapped into
  // range (2^32 + 4 threads, 2^32 + 1 preempt, target 2^32).
  EXPECT_THROW(
      decode_witness("drbml-witness-v1;threads=4294967300;preempt=7;limit=1"),
      Error);
  EXPECT_THROW(
      decode_witness("drbml-witness-v1;threads=2;preempt=4294967297;limit=1"),
      Error);
  EXPECT_THROW(decode_witness("drbml-witness-v1;threads=2;preempt=7;limit=1;"
                              "region=f0:4294967296"),
               Error);
  // A limit above the default step limit, which every witness the tool
  // writes carries, would let the string set a replay's run time.
  EXPECT_NO_THROW(
      decode_witness("drbml-witness-v1;threads=2;preempt=7;limit=2000000"));
  for (const char* limit : {"2000001", "10000000000000"}) {
    try {
      (void)decode_witness(
          std::string("drbml-witness-v1;threads=2;preempt=7;limit=") + limit);
      ADD_FAILURE() << "limit=" << limit << " decoded";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "witness: limit out of range") << limit;
    }
  }
}

/// One random edit of a witness string: a byte overwritten, a span deleted
/// or duplicated, a number replaced by an edge value, a field spliced in
/// from another witness, or the tail cut off.
std::string mutate_witness(std::string s, const std::vector<std::string>& pool,
                           std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto digit = [&](std::size_t i) {
    return std::isdigit(static_cast<unsigned char>(s[i])) != 0;
  };
  static const char* const kEdges[] = {
      "0",  "1",          "15",         "16",
      "17", "2147483648", "4294967297", "18446744073709551615",
      "",   "-1",         "99999999999999999999"};
  static const char kBytes[] = "0123456789;=,:fvr- \t\x01\xff";
  switch (pick(6)) {
    case 0:
      if (!s.empty()) s[pick(s.size())] = kBytes[pick(sizeof kBytes - 1)];
      break;
    case 1:
      if (!s.empty()) s.erase(pick(s.size()), 1 + pick(8));
      break;
    case 2:
      if (!s.empty()) {
        const std::size_t at = pick(s.size());
        s.insert(at, s.substr(at, 1 + pick(24)));
      }
      break;
    case 3: {
      std::vector<std::size_t> numbers;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (digit(i) && (i == 0 || !digit(i - 1))) numbers.push_back(i);
      }
      if (numbers.empty()) break;
      const std::size_t at = numbers[pick(numbers.size())];
      std::size_t end = at;
      while (end < s.size() && digit(end)) ++end;
      s.replace(at, end - at, kEdges[pick(std::size(kEdges))]);
      break;
    }
    case 4: {
      const std::string& other = pool[pick(pool.size())];
      const std::size_t cut = other.find(';', pick(other.size()));
      if (cut != std::string::npos) s += other.substr(cut);
      break;
    }
    default:
      s.resize(pick(s.size() + 1));
      break;
  }
  return s;
}

TEST(WitnessFuzz, MutantsOfCorpusWitnessesFailOrReplayCleanly) {
  // Fixed seed, fixed budget: every mutant of a corpus witness either
  // fails to decode with a "witness: ..." Error or replays, under a capped
  // step limit, to a result or a structured fault -- never a crash, a hang
  // or a sanitizer report.
  struct Sample {
    std::string code;
    std::string witness;
  };
  std::vector<Sample> samples;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    if (!e.race || samples.size() == 40) continue;
    ExploreOptions opts;
    opts.max_schedules = 8;
    try {
      const ExploreResult r = explore_source(e.body, opts);
      if (!r.witness.empty()) samples.push_back({e.body, r.witness});
    } catch (const Error&) {
    }
  }
  ASSERT_EQ(samples.size(), 40u);
  std::vector<std::string> pool;
  for (const Sample& s : samples) pool.push_back(s.witness);

  std::mt19937_64 rng(0x3177e55);
  int rejected = 0;
  int replayed = 0;
  for (int i = 0; i < 4000; ++i) {
    const Sample& sample = samples[rng() % samples.size()];
    std::string text = sample.witness;
    const int edits = 1 + static_cast<int>(rng() % 2);
    for (int k = 0; k < edits; ++k) text = mutate_witness(text, pool, rng);
    Witness w;
    try {
      w = decode_witness(text);
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("witness: ", 0), 0u) << e.what();
      ++rejected;
      continue;
    }
    w.step_limit = std::min<std::uint64_t>(w.step_limit, 20'000);
    const runtime::RunResult r = replay_witness(sample.code, w);
    ++replayed;
    if (r.faulted) {
      EXPECT_FALSE(r.fault_message.empty()) << text;
    }
  }
  // The budget must reach the replay, not only the decoder.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(replayed, 500);
}

// ------------------------------------------------------------- explorer

TEST(Explore, DeterministicForFixedSeed) {
  ExploreOptions opts;
  opts.max_schedules = 8;
  ExploreResult a = explore_source(kRacySrc, opts);
  ExploreResult b = explore_source(kRacySrc, opts);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_TRUE(a.race_detected);
}

TEST(Explore, WitnessStillRacesAndIsSubsequenceOfOriginal) {
  for (runtime::ScheduleStrategy strat :
       {runtime::ScheduleStrategy::Uniform, runtime::ScheduleStrategy::Pct}) {
    ExploreOptions opts;
    opts.strategy = strat;
    opts.max_schedules = 16;
    ExploreResult r = explore_source(kRacySrc, opts);
    ASSERT_TRUE(r.race_detected) << runtime::strategy_name(strat);
    ASSERT_FALSE(r.witness.empty());
    EXPECT_LE(r.witness_decisions, r.original_decisions);

    Witness w = decode_witness(r.witness);
    runtime::RunResult replayed = replay_witness(kRacySrc, w, opts.run);
    EXPECT_TRUE(replayed.report.race_detected)
        << runtime::strategy_name(strat);

    // Recover the original racy trace from the recorded seed and check
    // the minimized witness is a subsequence of it.
    runtime::RunOptions orig = opts.run;
    orig.seed = r.first_race_seed;
    orig.strategy = strat;
    orig.pct_depth = opts.pct_depth;
    orig.pct_expected_steps = opts.pct_expected_steps;
    orig.capture_trace = true;
    runtime::RunResult original = run_src(kRacySrc, orig);
    ASSERT_TRUE(original.report.race_detected);
    EXPECT_EQ(original.trace.total_decisions(), r.original_decisions);
    EXPECT_TRUE(is_subsequence(w.trace, original.trace));
  }
}

TEST(Explore, WitnessReplayIsBitIdenticalTwice) {
  ExploreOptions opts;
  opts.max_schedules = 8;
  ExploreResult r = explore_source(kRacySrc, opts);
  ASSERT_TRUE(r.race_detected);
  Witness w = decode_witness(r.witness);
  runtime::RunResult a = replay_witness(kRacySrc, w, opts.run);
  runtime::RunResult b = replay_witness(kRacySrc, w, opts.run);
  EXPECT_TRUE(same_result(a, b));
  EXPECT_TRUE(a.report.race_detected);
}

TEST(Explore, SafeProgramStopsOnCoveragePlateau) {
  ExploreOptions opts;
  opts.max_schedules = 64;
  opts.plateau_window = 4;
  ExploreResult r = explore_source(kSafeSrc, opts);
  EXPECT_FALSE(r.race_detected);
  EXPECT_TRUE(r.witness.empty());
  EXPECT_TRUE(r.stopped_on_plateau);
  EXPECT_LT(r.schedules_run, opts.max_schedules);
  EXPECT_FALSE(r.coverage.empty());
  ASSERT_FALSE(r.report.diagnostics.empty());
  EXPECT_NE(r.report.diagnostics.back().find("coverage plateau"),
            std::string::npos);
}

TEST(Explore, PctFindsLockWindowRaceUniformMisses) {
  ExploreOptions uniform;
  uniform.strategy = runtime::ScheduleStrategy::Uniform;
  uniform.max_schedules = 16;
  uniform.plateau_window = 0;
  ExploreResult u = explore_source(kLockWindowSrc, uniform);
  EXPECT_FALSE(u.race_detected);
  EXPECT_EQ(u.schedules_run, 16);

  ExploreOptions pct = uniform;
  pct.strategy = runtime::ScheduleStrategy::Pct;
  ExploreResult p = explore_source(kLockWindowSrc, pct);
  EXPECT_TRUE(p.race_detected);
  ASSERT_FALSE(p.witness.empty());
  Witness w = decode_witness(p.witness);
  runtime::RunResult replayed = replay_witness(kLockWindowSrc, w, pct.run);
  EXPECT_TRUE(replayed.report.race_detected);
}

TEST(Explore, ResultsStableAcrossJobs) {
  const std::vector<const char*> sources{kRacySrc, kSafeSrc, kLockWindowSrc,
                                         kRacySrc, kSafeSrc, kLockWindowSrc};
  auto explore_one = [](const char* src) {
    ExploreOptions opts;
    opts.max_schedules = 6;
    return fingerprint(explore_source(src, opts));
  };
  std::vector<std::string> serial =
      support::parallel_map(1, sources, explore_one);
  std::vector<std::string> parallel =
      support::parallel_map(8, sources, explore_one);
  EXPECT_EQ(serial, parallel);
}

TEST(Explore, ParseStrategyAcceptsKnownNamesOnly) {
  using runtime::ScheduleStrategy;
  for (ScheduleStrategy s :
       {ScheduleStrategy::Uniform, ScheduleStrategy::Pct}) {
    EXPECT_EQ(runtime::parse_strategy(runtime::strategy_name(s)), s);
  }
  EXPECT_STREQ(runtime::strategy_name(ScheduleStrategy::Replay), "replay");
  // Replay needs a recorded trace, so no name selects it.
  EXPECT_THROW(static_cast<void>(runtime::parse_strategy("replay")), Error);
  EXPECT_THROW(static_cast<void>(runtime::parse_strategy("chaos")), Error);
}

TEST(Explore, ReplayStrategyIsRejected) {
  ExploreOptions opts;
  opts.strategy = runtime::ScheduleStrategy::Replay;
  EXPECT_THROW(static_cast<void>(explore_source(kRacySrc, opts)), Error);
}

// ------------------------------------------------------------ minimizer

TEST(Minimize, ReducesToEmptyWhenPredicateIgnoresTrace) {
  runtime::ScheduleTrace t;
  t.regions.resize(1);
  for (int i = 0; i < 10; ++i) t.regions[0].push_back({false, 10u + i, 1});
  MinimizeResult r = minimize_trace(
      t, [](const runtime::ScheduleTrace&) { return true; }, 64);
  EXPECT_EQ(r.trace.total_decisions(), 0u);
  EXPECT_GT(r.replays, 0);
}

TEST(Minimize, KeepsRequiredDecision) {
  runtime::ScheduleTrace t;
  t.regions.resize(1);
  for (int i = 0; i < 8; ++i) t.regions[0].push_back({false, 10u + i, i % 3});
  const runtime::ScheduleDecision needle = t.regions[0][5];
  auto wants_needle = [&](const runtime::ScheduleTrace& cand) {
    for (const auto& d : cand.regions[0]) {
      if (d == needle) return true;
    }
    return false;
  };
  MinimizeResult r = minimize_trace(t, wants_needle, 256);
  EXPECT_EQ(r.trace.total_decisions(), 1u);
  ASSERT_EQ(r.trace.regions.size(), 1u);
  ASSERT_EQ(r.trace.regions[0].size(), 1u);
  EXPECT_TRUE(r.trace.regions[0][0] == needle);
}

TEST(Minimize, RespectsReplayBudget) {
  runtime::ScheduleTrace t;
  t.regions.resize(1);
  for (int i = 0; i < 64; ++i) t.regions[0].push_back({false, 10u + i, 0});
  int budget = 5;
  MinimizeResult r = minimize_trace(
      t, [](const runtime::ScheduleTrace&) { return false; }, budget);
  EXPECT_LE(r.replays, budget);
  EXPECT_EQ(r.trace.total_decisions(), 64u);
}

TEST(Minimize, SaysWhetherItReplayedItsTrace) {
  runtime::ScheduleTrace t;
  t.regions.resize(1);
  for (int i = 0; i < 8; ++i) t.regions[0].push_back({false, 10u + i, 0});
  const auto always = [](const runtime::ScheduleTrace&) { return true; };
  EXPECT_TRUE(minimize_trace(t, always, 64).replayed);
  const auto never = [](const runtime::ScheduleTrace&) { return false; };
  const MinimizeResult none = minimize_trace(t, never, 64);
  EXPECT_FALSE(none.replayed);
  EXPECT_TRUE(none.trace == t);
  // One decision is needed: ddmin accepts a smaller candidate.
  const runtime::ScheduleDecision needle = t.regions[0][5];
  const MinimizeResult one = minimize_trace(
      t,
      [&](const runtime::ScheduleTrace& c) {
        return std::find(c.regions[0].begin(), c.regions[0].end(), needle) !=
               c.regions[0].end();
      },
      64);
  EXPECT_TRUE(one.replayed);
  EXPECT_EQ(one.trace.total_decisions(), 1u);
}

// ------------------------------------------------------- repeated schedules

/// Everything a run returns that a repeat must reproduce.
std::string describe(const runtime::RunResult& r) {
  std::string s = "exit=" + std::to_string(r.exit_code) +
                  " steps=" + std::to_string(r.steps) +
                  " faulted=" + std::to_string(r.faulted ? 1 : 0) +
                  " fault=" + r.fault_message + " pairs=";
  for (const auto& p : r.report.pairs) {
    s += p.first.expr_text + "@" + std::to_string(p.first.loc.line) + ":" +
         std::to_string(p.first.loc.col) + p.first.op + "/" +
         p.second.expr_text + "@" + std::to_string(p.second.loc.line) +
         ":" + std::to_string(p.second.loc.col) + p.second.op + ",";
  }
  s += " trace=";
  for (const runtime::RegionTrace& region : r.trace.regions) {
    s += "(";
    for (const runtime::ScheduleDecision& d : region) {
      s += std::to_string(d.step) + (d.forced ? "f" : "v") +
           std::to_string(d.target) + ",";
    }
    s += ")";
  }
  s += " coverage=";
  for (std::uint64_t c : r.coverage) s += std::to_string(c) + ",";
  return s + " output=" + r.output;
}

/// The options of an explored PCT schedule, as explore_source sets them.
runtime::RunOptions pct_schedule(std::uint64_t seed, int depth) {
  runtime::RunOptions o;
  o.seed = seed;
  o.strategy = runtime::ScheduleStrategy::Pct;
  o.pct_depth = depth;
  o.capture_trace = true;
  o.collect_coverage = true;
  return o;
}

struct RepeatCheck {
  int repeats = 0;
  std::vector<std::string> mismatches;
};

/// Runs the schedules `explore_source` explores for `code` at `depth`,
/// and every schedule the repeat rule calls a repeat of an earlier one as
/// well; lists the repeats whose result differs from their match's.
RepeatCheck check_repeats(const std::string& name, const std::string& code,
                          int depth) {
  RepeatCheck check;
  ExploreOptions eopts;
  eopts.pct_depth = depth;
  eopts.max_schedules = 24;
  eopts.plateau_window = 0;
  eopts.minimize = false;
  ExploreResult explored;
  std::unique_ptr<runtime::CompiledProgram> program;
  try {
    explored = explore_source(code, eopts);
    program = std::make_unique<runtime::CompiledProgram>(code);
  } catch (const Error&) {
    return check;
  }
  struct Ran {
    runtime::RunOptions opts;
    std::vector<runtime::TeamRecord> regions;
    runtime::PctPlans plans;
    std::string result;
  };
  std::vector<Ran> ran;
  for (const ScheduleStats& stats : explored.schedules) {
    const runtime::RunOptions opts = pct_schedule(stats.seed, depth);
    runtime::PctPlans plans;
    plans.reset(opts);
    const Ran* match = nullptr;
    for (Ran& r : ran) {
      if (runtime::repeats_run(r.opts, r.regions, r.plans, opts, plans)) {
        match = &r;
        break;
      }
    }
    const runtime::RunResult result = program->run(opts);
    const std::span<const runtime::TeamRecord> regions = program->regions();
    if (match != nullptr) {
      ++check.repeats;
      const std::string got = describe(result);
      if (got != match->result ||
          !std::equal(regions.begin(), regions.end(), match->regions.begin(),
                      match->regions.end())) {
        check.mismatches.push_back(name + " depth " + std::to_string(depth) +
                                   " seed " + std::to_string(stats.seed) +
                                   ":\n  match:  " + match->result +
                                   "\n  repeat: " + got);
      }
      continue;
    }
    ran.push_back({opts,
                   {regions.begin(), regions.end()},
                   std::move(plans),
                   describe(result)});
  }
  return check;
}

TEST(ExploreRepeat, SkippedSchedulesRepeatTheirMatch) {
  std::vector<std::pair<std::string, std::string>> programs;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    programs.emplace_back(e.name, e.body);
  }
  drb::SynthConfig config;
  config.count = 200;
  config.seed = 7;
  for (drb::SynthEntry& e : drb::synthesize(config)) {
    programs.emplace_back(std::move(e.name), std::move(e.code));
  }
  for (int depth : {1, 3}) {
    const std::vector<RepeatCheck> checks = support::parallel_map(
        4, programs, [&](const std::pair<std::string, std::string>& p) {
          return check_repeats(p.first, p.second, depth);
        });
    int repeats = 0;
    int mismatched = 0;
    for (const RepeatCheck& c : checks) {
      repeats += c.repeats;
      for (const std::string& m : c.mismatches) {
        if (++mismatched <= 5) ADD_FAILURE() << m;
      }
    }
    EXPECT_EQ(mismatched, 0) << "depth " << depth;
    // Not vacuous: most 4-thread teams are shorter than PCT's change-point
    // range, and a team of 4 has only 24 priority orders.
    EXPECT_GT(repeats, 1000) << "depth " << depth;
  }
}

/// Two PCT runs of one team that draw the same priorities but different
/// (single) change points: the rule compares the change points of a team
/// that reaches them, and only those.
TEST(ExploreRepeat, ChangePointsCountUpToTheTeamsSteps) {
  runtime::PctPlan a;
  a.workers = 2;
  a.priorities = {3, 4};
  a.change_count = 2;
  a.change_points = {10, 50};
  runtime::PctPlan b = a;
  b.change_points = {10, 51};
  EXPECT_TRUE(a.agrees_with(b, 49));
  EXPECT_FALSE(a.agrees_with(b, 50));  // at S_r: compared
  b.change_points = {10, 60};
  a.change_points = {10, 51};
  EXPECT_TRUE(a.agrees_with(b, 50));  // at S_r + 1: not compared
  EXPECT_FALSE(a.agrees_with(b, 51));
  b = a;
  b.priorities = {4, 3};
  EXPECT_FALSE(a.agrees_with(b, 0));

  // The same boundary through repeats_run: find a seed whose team of 4
  // draws seed 1's priorities and a different change point.
  const runtime::RunOptions first = pct_schedule(1, 2);
  const runtime::PctPlan mine = runtime::PctPlan::draw(1, 0, 2, 4096, 4);
  std::uint64_t seed = 2;
  runtime::PctPlan theirs;
  for (;; ++seed) {
    theirs = runtime::PctPlan::draw(seed, 0, 2, 4096, 4);
    if (theirs.priorities == mine.priorities &&
        theirs.change_points[0] != mine.change_points[0]) {
      break;
    }
  }
  const runtime::RunOptions second = pct_schedule(seed, 2);
  const std::uint64_t low =
      std::min(mine.change_points[0], theirs.change_points[0]);
  runtime::PctPlans a_plans;
  runtime::PctPlans b_plans;
  a_plans.reset(first);
  b_plans.reset(second);
  const std::vector<runtime::TeamRecord> reached = {{4, low}};
  EXPECT_FALSE(
      runtime::repeats_run(first, reached, a_plans, second, b_plans));
  const std::vector<runtime::TeamRecord> short_of_it = {{4, low - 1}};
  EXPECT_TRUE(
      runtime::repeats_run(first, short_of_it, a_plans, second, b_plans));
  // Another team size draws another plan.
  const std::vector<runtime::TeamRecord> three = {{3, low - 1}};
  EXPECT_EQ(runtime::repeats_run(first, three, a_plans, second, b_plans),
            runtime::PctPlan::draw(1, 0, 2, 4096, 3)
                .agrees_with(runtime::PctPlan::draw(seed, 0, 2, 4096, 3),
                             low - 1));
}

constexpr const char* kFaultingTeamSrc = R"(
int a[8];
int main(void) {
  #pragma omp parallel num_threads(4)
  {
    int t = omp_get_thread_num();
    a[t] = 1;
    a[t + 4] = a[t] * 2;
    a[t] = 10 / (3 - t);
  }
  return 0;
}
)";

TEST(ExploreRepeat, TeamThatFaultsIsRecordedAndRepeats) {
  runtime::CompiledProgram program(kFaultingTeamSrc);
  std::vector<std::pair<runtime::RunOptions, std::string>> ran;
  std::vector<std::vector<runtime::TeamRecord>> ran_regions;
  std::vector<runtime::PctPlans> ran_plans;
  int repeats = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const runtime::RunOptions opts = pct_schedule(seed, 1);
    runtime::PctPlans plans;
    plans.reset(opts);
    int match = -1;
    for (std::size_t k = 0; k < ran.size(); ++k) {
      if (runtime::repeats_run(ran[k].first, ran_regions[k], ran_plans[k],
                               opts, plans)) {
        match = static_cast<int>(k);
        break;
      }
    }
    const runtime::RunResult r = program.run(opts);
    ASSERT_TRUE(r.faulted);
    EXPECT_EQ(r.fault_message, "integer division by zero");
    ASSERT_EQ(program.regions().size(), 1u);
    EXPECT_EQ(program.regions()[0].workers, 4);
    EXPECT_GT(program.regions()[0].steps, 0u);
    EXPECT_LE(program.regions()[0].steps, r.steps);
    if (match >= 0) {
      ++repeats;
      EXPECT_EQ(describe(r), ran[static_cast<std::size_t>(match)].second)
          << "seed " << seed;
      continue;
    }
    ran.emplace_back(opts, describe(r));
    ran_regions.emplace_back(program.regions().begin(),
                             program.regions().end());
    ran_plans.push_back(std::move(plans));
  }
  // 48 seeds over 24 priority orders.
  EXPECT_GE(repeats, 24);
}

TEST(ExploreRepeat, RunWithoutTeamRepeatsUnderAnySeed) {
  constexpr const char* kSerial =
      "int main(void) { int s = 0;\n"
      "  for (int i = 0; i < 10; i++) s = s + i;\n"
      "  printf(\"%d\\n\", s); return 0; }\n";
  for (runtime::ScheduleStrategy strategy :
       {runtime::ScheduleStrategy::Uniform, runtime::ScheduleStrategy::Pct}) {
    runtime::CompiledProgram program(kSerial);
    runtime::RunOptions first;
    first.strategy = strategy;
    first.seed = 1;
    const std::string want = describe(program.run(first));
    const std::vector<runtime::TeamRecord> regions(
        program.regions().begin(), program.regions().end());
    EXPECT_TRUE(regions.empty());
    runtime::RunOptions later = first;
    later.seed = 99;
    runtime::PctPlans a_plans;
    runtime::PctPlans b_plans;
    a_plans.reset(first);
    b_plans.reset(later);
    EXPECT_TRUE(runtime::repeats_run(first, regions, a_plans, later, b_plans))
        << runtime::strategy_name(strategy);
    EXPECT_EQ(describe(program.run(later)), want);
  }
  // A team-forking program repeats under uniform only with its own seed.
  runtime::CompiledProgram program(kSafeSrc);
  runtime::RunOptions first;
  (void)program.run(first);
  const std::vector<runtime::TeamRecord> regions(program.regions().begin(),
                                                 program.regions().end());
  ASSERT_EQ(regions.size(), 1u);
  runtime::RunOptions later = first;
  later.seed = 2;
  runtime::PctPlans a_plans;
  runtime::PctPlans b_plans;
  a_plans.reset(first);
  b_plans.reset(later);
  EXPECT_FALSE(runtime::repeats_run(first, regions, a_plans, later, b_plans));
}

TEST(ExploreRepeat, OptionsThatShapeTheRunNeverRepeat) {
  const runtime::RunOptions base = pct_schedule(1, 3);
  runtime::RunOptions threads = base;
  threads.num_threads = 2;
  runtime::RunOptions limit = base;
  limit.step_limit = 1000;
  runtime::RunOptions depth = base;
  depth.pct_depth = 2;
  runtime::RunOptions expected = base;
  expected.pct_expected_steps = 64;
  runtime::RunOptions uniform = base;
  uniform.strategy = runtime::ScheduleStrategy::Uniform;
  runtime::RunOptions preempt = base;
  preempt.preempt_every = 3;
  const std::vector<runtime::TeamRecord> none;
  const std::vector<runtime::TeamRecord> team = {{4, 0}};
  for (const runtime::RunOptions* other :
       {&threads, &limit, &depth, &expected, &uniform, &preempt}) {
    runtime::PctPlans a_plans;
    runtime::PctPlans b_plans;
    a_plans.reset(base);
    b_plans.reset(*other);
    // Not even the team-less run, which took no decision.
    EXPECT_FALSE(runtime::repeats_run(base, none, a_plans, *other, b_plans));
    EXPECT_FALSE(runtime::repeats_run(base, team, a_plans, *other, b_plans));
  }
  // The same options and seed always repeat; capture flags do not count.
  runtime::RunOptions quiet = base;
  quiet.capture_trace = false;
  quiet.collect_coverage = false;
  runtime::PctPlans a_plans;
  runtime::PctPlans b_plans;
  a_plans.reset(base);
  b_plans.reset(quiet);
  EXPECT_TRUE(runtime::repeats_run(base, team, a_plans, quiet, b_plans));
  // Deeper than a plan holds: never a repeat of a run that forked a team.
  runtime::RunOptions deep = pct_schedule(1, runtime::PctPlan::kMaxChangePoints + 2);
  a_plans.reset(deep);
  b_plans.reset(deep);
  EXPECT_FALSE(runtime::repeats_run(deep, team, a_plans, deep, b_plans));
  EXPECT_TRUE(runtime::repeats_run(deep, none, a_plans, deep, b_plans));
}

TEST(ExploreRepeat, RunsCountTheSchedulesNotRepeated) {
  obs::MetricsRegistry& m = obs::metrics();
  obs::Counter& runs = m.counter(obs::kVmRuns);
  obs::Counter& schedules = m.counter(obs::kExploreSchedules);
  obs::Counter& repeated = m.counter(obs::kExploreSchedulesRepeated);
  obs::Counter& replays = m.counter(obs::kExploreMinimizeReplays);
  ExploreOptions opts;
  opts.plateau_window = 0;
  std::uint64_t total_repeated = 0;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    const std::uint64_t runs0 = runs.value();
    const std::uint64_t schedules0 = schedules.value();
    const std::uint64_t repeated0 = repeated.value();
    const std::uint64_t replays0 = replays.value();
    ExploreResult r;
    try {
      r = explore_source(e.body, opts);
    } catch (const Error&) {
      continue;
    }
    const std::uint64_t explored = schedules.value() - schedules0;
    const std::uint64_t skipped = repeated.value() - repeated0;
    EXPECT_EQ(explored, static_cast<std::uint64_t>(r.schedules_run));
    // The final check replays a witness only when ddmin kept every
    // decision, having accepted no smaller trace.
    const std::uint64_t final_check =
        r.race_detected && r.witness_decisions == r.original_decisions ? 1
                                                                       : 0;
    EXPECT_EQ(runs.value() - runs0,
              explored - skipped + (replays.value() - replays0) + final_check)
        << e.name;
    total_repeated += skipped;
  }
  EXPECT_GT(total_repeated, 0u);
}

}  // namespace
}  // namespace drbml::explore
