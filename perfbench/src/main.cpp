// Benchmark binary: runs one workload in this process and prints one JSON
// line with its set-up time, checks, operation counts, metrics and run
// metadata. perfbench/run.py builds this binary and calls it; see
// perfbench/WORKLOADS.md for the workloads and metrics.
//
//   perfbench --workload static-sweep|pct-campaign|serve-fleet --seed N
//             --seconds S [--trace 0|1] [--setup-only] [--tiny]
//             [--spawn-ns NS] [--trace-out FILE]
//
// Exit codes: 0 all output checks passed, 2 usage or configuration error,
// 3 an output check failed (the JSON line still prints).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Config;
using perfbench::Report;

// The measured configuration is the program's default one; these
// variables would change what runs, so a set one refuses the run.
constexpr const char* kRefusedEnv[] = {"DRBML_BACKEND",      "DRBML_VM_THREADS",
                                       "DRBML_JOBS",         "DRBML_CACHE_BUDGET",
                                       "DRBML_TRACE",        "DRBML_METRICS"};

int usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      return usage(std::string(name) +
                   " is set; unset it to measure the default configuration");
    }
  }
  Config cfg;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value()) != 0;
      } else if (arg == "--setup-only") {
        cfg.setup_only = true;
      } else if (arg == "--tiny") {
        cfg.tiny = true;
      } else if (arg == "--spawn-ns") {
        cfg.spawn_ns = std::stoull(value());
      } else if (arg == "--trace-out") {
        cfg.trace_out = value();
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(std::string("bad arguments: ") + e.what());
  }
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");

  Report report;
  try {
    if (cfg.workload == "static-sweep") {
      report = perfbench::run_static_sweep(cfg);
    } else if (cfg.workload == "pct-campaign") {
      report = perfbench::run_pct_campaign(cfg);
    } else if (cfg.workload == "serve-fleet") {
      report = perfbench::run_serve_fleet(cfg);
    } else {
      return usage("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 3;
  }

  namespace json = perfbench::json;
  report.meta.set("workload", json::Value(cfg.workload));
  report.meta.set("seed", json::Value(std::to_string(cfg.seed)));
  report.meta.set("build_type", json::Value(PERFBENCH_BUILD_TYPE));
  report.meta.set("corpus_verdict_misses",
                  json::Value(static_cast<std::int64_t>(report.corpus_misses)));
  json::Array failures;
  for (const std::string& f : report.check_failures) failures.push_back(json::Value(f));
  json::Object out;
  out.set("setup_s", json::Value(report.setup_s));
  out.set("correct", json::Value(report.check_failures.empty()));
  out.set("attempted", json::Value(static_cast<std::int64_t>(report.attempted)));
  out.set("failed", json::Value(static_cast<std::int64_t>(report.failed)));
  out.set("metrics", json::Value(std::move(report.metrics)));
  out.set("meta", json::Value(std::move(report.meta)));
  out.set("check_failures", json::Value(std::move(failures)));
  std::printf("%s\n", json::Value(std::move(out)).dump().c_str());
  return report.check_failures.empty() ? 0 : 3;
}
