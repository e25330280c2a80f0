// Schedule-exploration study: uniform random walks vs PCT priority
// schedules at equal budget over the race-labeled corpus. PCT must match
// or beat uniform on detections at the same budget (Burckhardt et al.'s
// probabilistic guarantee bounds the per-schedule hit rate at
// 1/(n*k^(d-1)) for an order-dependent race of depth d), and the
// OnlyHere column shows the races only one strategy exposes.
#include <cstdio>

#include "bench_util.hpp"
#include "explore/explore.hpp"

int main(int argc, char** argv) {
  drbml::bench::init_bench(argc, argv);
  using namespace drbml;
  std::printf("%s",
              heading("Schedule exploration -- uniform vs PCT at equal "
                      "budget (race-labeled corpus)").c_str());

  explore::ExploreOptions base;
  base.max_schedules = 12;  // the stats/check gate budget
  const int rc = bench::print_with_speedup(
      [&](const eval::ExperimentOptions& o) {
        return bench::exploration_table(eval::exploration_rows(base, o));
      });
  bench::print_reference(
      "\nReading the table: Detected counts race-labeled entries whose\n"
      "race the strategy exposed within the budget; OnlyHere counts the\n"
      "entries only that strategy caught (the lock-window family is\n"
      "order-dependent, so uniform's single legacy walk misses it);\n"
      "WitnessDec sums minimized-witness decision counts -- order-\n"
      "independent races minimize to the empty trace.\n");
  return rc;
}
