// Bytecode-VM benchmark: the dynamic stage's compile-once-execute-many
// contract, measured. Every corpus entry is parsed and resolved once,
// compiled to a verified module once, and then executed for a batch of
// schedule seeds against that module, as the dynamic detector and the
// exploration engine do.
//
// Prints wall clock, schedules/sec, steps, and compile time, and writes
// them to BENCH_vm.json (override with --out FILE). Correctness of the
// runs is pinned by tests/golden/runtime_fingerprints.txt, not here.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/resolve.hpp"
#include "bench_util.hpp"
#include "drb/corpus.hpp"
#include "minic/parser.hpp"
#include "runtime/bc/bc.hpp"
#include "runtime/bc/compile.hpp"
#include "runtime/interp.hpp"
#include "support/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace drbml;

constexpr int kSeedsPerEntry = 20;

struct PreparedEntry {
  minic::Program prog;
  analysis::Resolution res;
};

struct Sweep {
  double wall_ms = 0;
  double compile_ms = 0;  // module lowering, amortized over seeds
  std::uint64_t schedules = 0;
  std::uint64_t steps = 0;

  [[nodiscard]] double schedules_per_sec() const {
    return wall_ms > 0 ? 1000.0 * static_cast<double>(schedules) / wall_ms
                       : 0.0;
  }
};

PreparedEntry prepare(const drb::CorpusEntry& e) {
  PreparedEntry p;
  p.prog = minic::parse_program(e.body);
  p.res = analysis::resolve(*p.prog.unit);
  return p;
}

Sweep run_sweep(const std::vector<PreparedEntry>& entries) {
  Sweep result;
  const auto start = Clock::now();
  for (const PreparedEntry& e : entries) {
    const auto c0 = Clock::now();
    const runtime::bc::Module module =
        runtime::bc::compile_verified(*e.prog.unit);
    result.compile_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - c0).count();

    runtime::RunOptions opts;
    opts.capture_trace = true;
    opts.module = &module;
    for (int s = 0; s < kSeedsPerEntry; ++s) {
      opts.seed = static_cast<std::uint64_t>(s) + 1;
      const runtime::RunResult r =
          runtime::run_program(*e.prog.unit, e.res, opts);
      ++result.schedules;
      result.steps += r.steps;
    }
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  obs::consume_obs_flags(args);
  std::string out_path = "BENCH_vm.json";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      std::fprintf(stderr, "usage: bench_vm [--out FILE]\n");
      return 2;
    }
  }

  std::printf("%s", heading("Bytecode VM -- dynamic stage sweep").c_str());

  std::vector<PreparedEntry> entries;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    entries.push_back(prepare(e));
  }

  // Warm-up pass (page in code, allocator steady-state), then measure.
  {
    std::vector<PreparedEntry> warm;
    for (std::size_t i = 0; i < 8 && i < drb::corpus().size(); ++i) {
      warm.push_back(prepare(drb::corpus()[i]));
    }
    (void)run_sweep(warm);
  }

  const Sweep vm = run_sweep(entries);

  TextTable t({"Schedules", "Wall (ms)", "Sched/s", "Steps", "Compile (ms)"});
  t.add_row({std::to_string(vm.schedules), format_double(vm.wall_ms, 1),
             format_double(vm.schedules_per_sec(), 0),
             std::to_string(vm.steps), format_double(vm.compile_ms, 1)});
  std::printf("%s", t.render().c_str());
  std::printf(
      "\n[vm] %zu entries x %d seeds | compile %.1f ms (amortized "
      "%.3f ms/schedule) | %.0f schedules/s\n",
      entries.size(), kSeedsPerEntry, vm.compile_ms,
      vm.schedules > 0 ? vm.compile_ms / static_cast<double>(vm.schedules)
                       : 0.0,
      vm.schedules_per_sec());

  json::Object root;
  root.set("entries", json::Value(static_cast<std::int64_t>(entries.size())));
  root.set("seeds_per_entry",
           json::Value(static_cast<std::int64_t>(kSeedsPerEntry)));
  json::Object o;
  o.set("wall_ms", json::Value(vm.wall_ms));
  o.set("schedules", json::Value(static_cast<std::int64_t>(vm.schedules)));
  o.set("schedules_per_sec", json::Value(vm.schedules_per_sec()));
  o.set("steps", json::Value(static_cast<std::int64_t>(vm.steps)));
  o.set("compile_ms", json::Value(vm.compile_ms));
  root.set("vm", json::Value(std::move(o)));

  std::ofstream out(out_path, std::ios::trunc);
  out << json::Value(std::move(root)).dump_pretty() << "\n";
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
