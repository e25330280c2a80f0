// drbml -- command line interface to the library.
//
//   drbml analyze  [--detector SPEC] [--jobs N] [--explain]
//                  [--format text|json] FILE.c...
//                                               analyze programs (many
//                                               files fan out over N
//                                               worker threads); --explain
//                                               prints the evidence chain
//                                               behind every reported and
//                                               discharged pair
//   drbml graph    [--dot] FILE.c               print its dependence graph
//   drbml lint     [--format text|json|sarif] [--check] [--jobs N]
//                  [FILE.c... | --entry NAME | --corpus | --synth N]
//                                               run the OpenMP correctness
//                                               linter (SARIF 2.1.0 capable)
//   drbml fix      [--strategy auto|lint|sync|serialize] [--dry-run]
//                  [--diff] [--check] [--min-fix-rate PCT] [--jobs N]
//                  [FILE.c... | --entry NAME | --corpus | --synth N]
//                                               detector-verified automatic
//                                               race repair; FILE args are
//                                               rewritten in place unless
//                                               --dry-run
//   drbml explore  [--strategy uniform|pct] [--budget N] [--depth D]
//                  [--plateau W] [--seed S] [--no-minimize] [--jobs N]
//                  [--check]
//                  [FILE.c... | --entry NAME | --corpus | --synth N]
//                                               budgeted schedule exploration
//                                               (PCT priority schedules or a
//                                               uniform random walk); races
//                                               ship a minimized replayable
//                                               witness
//   drbml explore  --replay WITNESS FILE.c      re-run a recorded witness
//                                               bit-identically
//   drbml stats    [--jobs N] [--no-repair] [--no-explore] [--cache FILE]
//                                               run the full corpus pipeline
//                                               and print per-stage timings
//                                               plus the deterministic
//                                               counter snapshot
//   drbml serve    [--socket PATH] [--jobs N] [--queue-limit N]
//                  [--deadline-ms N] [--cache-budget BYTES] [--cache FILE]
//                                               long-lived detection daemon:
//                                               NDJSON requests on stdin (or
//                                               a unix socket), responses on
//                                               stdout; bounded admission
//                                               queue, priority scheduling,
//                                               graceful SIGINT/SIGTERM
//                                               drain (see docs/SERVE.md)
//   drbml corpus   [--pattern P] [--limit N]    list corpus entries
//   drbml entry    NAME                         print one entry's DRB file
//   drbml dataset  [--out DIR]                  write DRB-ML JSON to disk
//   drbml synth    [--count N] [--seed S] [--out DIR]  generate kernels
//   drbml detectors                             list detector specs
//   drbml help
//
// Every subcommand also accepts the global observability flags
//   --trace FILE     write a Chrome trace (chrome://tracing, Perfetto)
//   --metrics FILE   write the deterministic metrics JSON at exit
// and honours the DRBML_TRACE / DRBML_METRICS environment variables.
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/depgraph.hpp"
#include "core/detector.hpp"
#include "dataset/drbml.hpp"
#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "eval/artifact_cache.hpp"
#include "eval/experiments.hpp"
#include "explore/explore.hpp"
#include "explore/witness.hpp"
#include "lint/lint.hpp"
#include "obs/catalog.hpp"
#include "repair/repair.hpp"
#include "runtime/interp.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace drbml;

int usage() {
  std::printf(
      "drbml -- data race detection substrate (LLM study reproduction)\n"
      "\n"
      "usage:\n"
      "  drbml analyze [--detector SPEC] [--jobs N] [--explain]\n"
      "                [--format text|json] FILE.c...\n"
      "  drbml graph [--dot] FILE.c\n"
      "  drbml lint [--format text|json|sarif] [--check] [--jobs N]\n"
      "             [FILE.c... | --entry NAME | --corpus | --synth N "
      "[--seed S]]\n"
      "  drbml fix [--strategy auto|lint|sync|serialize] [--dry-run] "
      "[--diff]\n"
      "            [--check] [--min-fix-rate PCT] [--jobs N]\n"
      "            [FILE.c... | --entry NAME | --corpus | --synth N "
      "[--seed S]]\n"
      "  drbml explore [--strategy uniform|pct] [--budget N] [--depth D]\n"
      "                [--plateau W] [--seed S] [--no-minimize] [--jobs N]\n"
      "                [--check]\n"
      "                [FILE.c... | --entry NAME | --corpus | --synth N]\n"
      "  drbml explore --replay WITNESS FILE.c\n"
      "  drbml stats [--jobs N] [--no-repair] [--no-explore] [--cache FILE]\n"
      "  drbml serve [--socket PATH] [--jobs N] [--queue-limit N]\n"
      "              [--deadline-ms N] [--cache-budget BYTES] [--cache "
      "FILE]\n"
      "  drbml corpus [--pattern P] [--limit N]\n"
      "  drbml entry NAME\n"
      "  drbml dataset [--out DIR]\n"
      "  drbml synth [--count N] [--seed S] [--out DIR]\n"
      "  drbml detectors\n"
      "\n"
      "detector specs: static | dynamic | hybrid | lint | "
      "explore[:uniform|:pct] |\n"
      "                llm:<persona>[:<prompt>]\n"
      "personas: gpt35, gpt4, starchat, llama2; prompts: p1, p2, p3, bp2\n"
      "--jobs N: worker threads for multi-file analyze (0 = auto from\n"
      "          DRBML_JOBS or hardware; results identical at any N)\n"
      "global flags (any subcommand): --trace FILE (Chrome trace JSON),\n"
      "          --metrics FILE (deterministic metrics JSON at exit);\n"
      "          DRBML_TRACE / DRBML_METRICS env vars do the same\n");
  return 2;
}

/// The value of the flag at args[i], consumed. A value flag with nothing
/// after it is a usage error, not a file name.
const std::string& flag_value(const std::vector<std::string>& args,
                              std::size_t& i) {
  if (i + 1 >= args.size()) throw Error(args[i] + " expects a value");
  return args[++i];
}

/// Strict integer flag value: rejects the std::atoi garbage-becomes-0
/// behaviour with a usage error instead.
std::int64_t int_flag(const std::vector<std::string>& args, std::size_t& i) {
  const std::string& flag = args[i];
  const std::string& value = flag_value(args, i);
  const std::optional<std::int64_t> parsed = parse_int(value);
  if (!parsed.has_value()) {
    throw Error(flag + " expects an integer, got '" + value + "'");
  }
  return *parsed;
}

/// A positional argument. Anything starting with `--` that no flag
/// matched is a usage error, not a file name.
const std::string& operand(const std::string& arg) {
  if (starts_with(arg, "--")) throw Error("unknown flag '" + arg + "'");
  return arg;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("cannot open " + path);
  std::ostringstream ss;
  ss << file.rdbuf();
  return ss.str();
}

/// One program to analyze, lint, fix or explore.
struct Source {
  std::string name;
  std::string code;
  bool is_file = false;  // fix rewrites it in place (unless --dry-run)
  int race_label = -1;   // ground truth: 1 race, 0 no race, -1 unknown
};

/// FILE operands as sources, all read before any is analyzed: an
/// unreadable file fails the run.
std::vector<Source> read_sources(const std::vector<std::string>& paths) {
  std::vector<Source> out;
  out.reserve(paths.size());
  for (const auto& path : paths) out.push_back({path, read_file(path), true});
  return out;
}

/// The programs of lint, fix and explore: FILE operands, then --entry
/// NAME (repeatable), --corpus and --synth N kernels, in that order.
class SourceArgs {
 public:
  /// `seed_flag` names the synth seed: explore's own --seed seeds its
  /// schedules.
  explicit SourceArgs(const char* seed_flag) : seed_flag_(seed_flag) {}

  /// Takes args[i] (and its value) as a source flag or a FILE operand.
  void take(const std::vector<std::string>& args, std::size_t& i) {
    const std::string& a = args[i];
    if (a == "--entry") {
      entries_.push_back(flag_value(args, i));
    } else if (a == "--corpus") {
      corpus_ = true;
    } else if (a == "--synth") {
      synth_.count = static_cast<int>(int_flag(args, i));
    } else if (a == seed_flag_) {
      synth_.seed = static_cast<std::uint64_t>(int_flag(args, i));
    } else {
      paths_.push_back(operand(a));
    }
  }

  [[nodiscard]] const std::vector<std::string>& paths() const {
    return paths_;
  }

  [[nodiscard]] std::vector<Source> collect() const {
    std::vector<Source> out = read_sources(paths_);
    for (const auto& name : entries_) {
      const drb::CorpusEntry* e = drb::find_entry(name);
      if (e == nullptr) throw Error("no such entry: " + name);
      out.push_back({e->name, drb::drb_code(*e), false, e->race ? 1 : 0});
    }
    if (corpus_) {
      for (const auto& e : drb::corpus()) {
        out.push_back({e.name, drb::drb_code(e), false, e.race ? 1 : 0});
      }
    }
    if (synth_.count > 0) {
      for (const drb::SynthEntry& e : drb::synthesize(synth_)) {
        out.push_back({e.name, e.code, false, e.race ? 1 : 0});
      }
    }
    return out;
  }

 private:
  std::string seed_flag_;
  std::vector<std::string> paths_;
  std::vector<std::string> entries_;
  bool corpus_ = false;
  drb::SynthConfig synth_{.count = 0, .seed = 0};
};

/// One source's result, or the Error that stopped it: a parse failure
/// fails that source, not the run.
template <typename T>
struct Outcome {
  T value{};
  std::string error;
};

/// Runs `fn` on every source's code over `jobs` workers, in input order:
/// the one fan-out of analyze, lint, fix and explore.
template <typename Fn>
auto run_each(int jobs, const std::vector<Source>& sources, const Fn& fn) {
  return support::parallel_map(jobs, sources, [&](const Source& src) {
    Outcome<decltype(fn(src.code))> o;
    try {
      o.value = fn(src.code);
    } catch (const Error& e) {
      o.error = e.what();
    }
    return o;
  });
}

/// True if the source failed, after printing `<name>: error: <what>` on
/// stderr.
template <typename T>
bool failed(const Source& src, const Outcome<T>& o) {
  if (o.error.empty()) return false;
  std::fprintf(stderr, "%s: error: %s\n", src.name.c_str(), o.error.c_str());
  return true;
}

void print_pairs(const std::vector<analysis::RacePair>& pairs) {
  for (const auto& pair : pairs) {
    std::printf("  %s@%d:%d:%c vs. %s@%d:%d:%c\n",
                pair.first.expr_text.c_str(), pair.first.loc.line,
                pair.first.loc.col, pair.first.op,
                pair.second.expr_text.c_str(), pair.second.loc.line,
                pair.second.loc.col, pair.second.op);
  }
}

void print_verdict(const core::RaceVerdict& v) {
  print_pairs(v.report.pairs);
  // Tool notes (e.g. "N additional pair(s) suppressed (max_pairs=...)")
  // must reach the user: truncation is never silent.
  for (const auto& diag : v.report.diagnostics) {
    std::printf("  %s\n", diag.c_str());
  }
  if (!v.model_response.empty()) {
    std::printf("model response:\n%s\n", v.model_response.c_str());
  }
}

/// --explain, text format: the full evidence chain behind every reported
/// and discharged pair (one indented line per rule consulted).
void print_explanation(const analysis::RaceReport& r) {
  for (const auto& pair : r.pairs) {
    std::printf("  racy %s@%d vs. %s@%d\n    %s",
                pair.first.expr_text.c_str(), pair.first.loc.line,
                pair.second.expr_text.c_str(), pair.second.loc.line,
                analysis::evidence_chain_text(pair.evidence).c_str());
  }
  for (const auto& d : r.discharged) {
    std::printf("  safe %s@%d vs. %s@%d\n    %s", d.first.expr_text.c_str(),
                d.first.loc.line, d.second.expr_text.c_str(),
                d.second.loc.line,
                analysis::evidence_chain_text(d.evidence).c_str());
  }
  if (r.pairs.empty() && r.discharged.empty()) {
    std::printf("  (no candidate pairs)\n");
  }
}

/// --explain, json format: one machine-readable object per file with the
/// verdict and evidence_to_json chains for every candidate pair.
json::Value explain_to_json(const std::string& path, const std::string& name,
                            const analysis::RaceReport& r) {
  const auto pair_json = [](const auto& p) {
    json::Object o;
    o.set("first", serve::access_to_json(p.first));
    o.set("second", serve::access_to_json(p.second));
    o.set("evidence", analysis::evidence_to_json(p.evidence));
    return json::Value(std::move(o));
  };
  json::Array pairs;
  for (const auto& pair : r.pairs) pairs.push_back(pair_json(pair));
  json::Array discharged;
  for (const auto& d : r.discharged) discharged.push_back(pair_json(d));
  json::Array diags;
  for (const auto& diag : r.diagnostics) diags.emplace_back(diag);
  json::Object root;
  root.set("file", path);
  root.set("detector", name);
  root.set("race_detected", r.race_detected);
  root.set("pairs", std::move(pairs));
  root.set("discharged", std::move(discharged));
  root.set("diagnostics", std::move(diags));
  return json::Value(std::move(root));
}

int cmd_analyze(const std::vector<std::string>& args) {
  std::string spec = "hybrid";
  int jobs = 0;
  std::vector<std::string> paths;
  bool explain = false;
  std::string format = "text";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--detector") {
      spec = flag_value(args, i);
    } else if (args[i] == "--jobs") {
      jobs = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--explain") {
      explain = true;
    } else if (args[i] == "--format") {
      format = flag_value(args, i);
      if (format != "text" && format != "json") {
        throw Error("--format expects text or json, got '" + format + "'");
      }
    } else {
      paths.push_back(operand(args[i]));
    }
  }
  if (paths.empty()) return usage();
  if (format == "json" && !explain) {
    throw Error("--format json requires --explain");
  }
  const auto detector = core::make_detector(spec);
  const std::vector<Source> sources = read_sources(paths);
  const auto outcomes = run_each(jobs, sources, [&](const std::string& code) {
    return detector->analyze(code);
  });

  bool any_race = false;
  bool any_error = false;
  json::Array out;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (failed(sources[i], outcomes[i])) {
      any_error = true;
      continue;
    }
    const core::RaceVerdict& v = outcomes[i].value;
    const bool race = v.report.race_detected;
    any_race = any_race || race;
    if (explain && format == "json") {
      out.push_back(explain_to_json(paths[i], detector->name(), v.report));
      continue;
    }
    if (paths.size() == 1) {
      std::printf("%s: %s\n", detector->name().c_str(),
                  race ? "DATA RACE" : "no race detected");
    } else {
      std::printf("%s: %s: %s\n", paths[i].c_str(), detector->name().c_str(),
                  race ? "DATA RACE" : "no race detected");
    }
    print_verdict(v);
    if (explain) print_explanation(v.report);
  }
  if (explain && format == "json") {
    std::printf("%s\n", json::Value(std::move(out)).dump_pretty().c_str());
  }
  if (any_error) return 2;
  return any_race ? 1 : 0;
}

int cmd_graph(const std::vector<std::string>& args) {
  bool dot = false;
  std::string path;
  for (const auto& a : args) {
    if (a == "--dot") {
      dot = true;
    } else {
      path = operand(a);
    }
  }
  if (path.empty()) return usage();
  const analysis::DependenceGraph g =
      analysis::build_dependence_graph(read_file(path));
  std::printf("%s", dot ? g.to_dot().c_str() : g.to_text().c_str());
  return 0;
}

int cmd_lint(const std::vector<std::string>& args) {
  std::string format = "text";
  bool check = false;
  int jobs = 0;
  SourceArgs source_args("--seed");
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--format") {
      format = flag_value(args, i);
      if (format != "text" && format != "json" && format != "sarif") {
        throw Error("--format expects text, json, or sarif, got '" + format +
                    "'");
      }
    } else if (args[i] == "--check") {
      check = true;
    } else if (args[i] == "--jobs") {
      jobs = static_cast<int>(int_flag(args, i));
    } else {
      source_args.take(args, i);
    }
  }
  const std::vector<Source> sources = source_args.collect();
  if (sources.empty()) return usage();

  eval::ArtifactCache& cache = eval::artifact_cache();
  const auto outcomes = run_each(jobs, sources, [&](const std::string& code) {
    return &cache.lint_report(code);
  });

  std::vector<lint::FileLint> files;
  int failures = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (failed(sources[i], outcomes[i])) {
      ++failures;
      continue;
    }
    files.push_back({sources[i].name, *outcomes[i].value});
  }

  int errors = 0;
  int warnings = 0;
  int suppressed = 0;
  for (const auto& f : files) {
    suppressed += f.report.suppressed;
    for (const auto& d : f.report.diagnostics) {
      if (d.severity == lint::Severity::Error) ++errors;
      if (d.severity == lint::Severity::Warning) ++warnings;
    }
  }

  if (check) {
    // Self-check gate: every file linted without crashing and the SARIF
    // rendering of the full run is structurally valid.
    std::string why;
    const bool shape_ok = lint::sarif_shape_ok(lint::to_sarif(files), &why);
    std::printf(
        "linted %zu file(s): %d error(s), %d warning(s), %d suppressed; "
        "%d parse failure(s); SARIF shape %s\n",
        files.size(), errors, warnings, suppressed, failures,
        shape_ok ? "OK" : ("INVALID: " + why).c_str());
    return (failures == 0 && shape_ok) ? 0 : 1;
  }

  if (format == "sarif") {
    std::printf("%s\n", lint::to_sarif(files).dump_pretty().c_str());
  } else if (format == "json") {
    json::Array per_file;
    for (const auto& f : files) per_file.push_back(lint::to_json(f));
    std::printf("%s\n", json::Value(std::move(per_file)).dump_pretty().c_str());
  } else {
    for (const auto& f : files) std::printf("%s", lint::to_text(f).c_str());
  }
  if (failures > 0) return 2;
  return errors > 0 ? 1 : 0;
}

int cmd_fix(const std::vector<std::string>& args) {
  std::string strategy = "auto";
  int jobs = 0;
  bool dry_run = false;
  bool show_diff = false;
  bool check = false;
  int min_fix_rate = 60;  // percent, --check only
  SourceArgs source_args("--seed");
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--strategy") {
      strategy = flag_value(args, i);
    } else if (args[i] == "--dry-run") {
      dry_run = true;
    } else if (args[i] == "--diff") {
      show_diff = true;
    } else if (args[i] == "--check") {
      check = true;
    } else if (args[i] == "--min-fix-rate") {
      min_fix_rate = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--jobs") {
      jobs = static_cast<int>(int_flag(args, i));
    } else {
      source_args.take(args, i);
    }
  }
  const std::vector<Source> sources = source_args.collect();
  if (sources.empty()) return usage();

  repair::RepairOptions opts;
  const std::optional<repair::Strategy> parsed =
      repair::parse_strategy(strategy);
  if (!parsed) throw Error("unknown repair strategy: " + strategy);
  opts.strategy = *parsed;
  eval::ArtifactCache& cache = eval::artifact_cache();
  const auto outcomes = run_each(jobs, sources, [&](const std::string& code) {
    return &cache.repair_result(code, opts);
  });

  int race_total = 0;     // labeled racy
  int race_fixed = 0;     // ... with a fix accepted
  int race_verified = 0;  // ... whose equivalence gate also ran
  int unfixed = 0;        // needed a fix and did not get one
  int check_failures = 0;
  bool any_error = false;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Source& src = sources[i];
    if (failed(src, outcomes[i])) {
      any_error = true;
      continue;
    }
    const repair::RepairResult& r = *outcomes[i].value;
    const char* status = repair::repair_status_name(r.status);
    switch (r.status) {
      case repair::RepairStatus::NoRaceDetected:
        std::printf("%s: %s\n", src.name.c_str(), status);
        break;
      case repair::RepairStatus::Fixed:
        std::printf("%s: %s by %s [%s] (%d of %d candidate(s) tried%s)\n",
                    src.name.c_str(), status, r.patch_id.c_str(),
                    r.family.c_str(), r.attempts, r.candidates_generated,
                    r.equivalence_checked ? ", output-equivalent"
                                          : ", equivalence unchecked");
        if (show_diff) {
          std::printf("%s", repair::unified_diff(src.code, r.patched).c_str());
        }
        if (src.is_file && !dry_run && !check) {
          std::ofstream out(sources[i].name);
          if (!out) throw Error("cannot write " + src.name);
          out << r.patched;
        }
        break;
      default:
        std::printf("%s: %s: %s\n", src.name.c_str(), status,
                    r.message.c_str());
        ++unfixed;
        break;
    }

    if (src.race_label == 1) {
      ++race_total;
      if (r.status == repair::RepairStatus::Fixed) {
        ++race_fixed;
        if (r.equivalence_checked) ++race_verified;
      } else if (r.message.empty()) {
        // Every miss must carry a structured reason.
        std::printf("%s: CHECK: unfixed without a reason\n", src.name.c_str());
        ++check_failures;
      }
    } else if (src.race_label == 0) {
      // A no-race entry must come back untouched, or -- when the
      // detectors false-positive -- with a patch that at least passed the
      // output-equivalence gate (and is never written in --check mode).
      if (r.status == repair::RepairStatus::NoRaceDetected) {
        if (r.patched != src.code) {
          std::printf("%s: CHECK: no-race entry not byte-identical\n",
                      src.name.c_str());
          ++check_failures;
        }
      } else if (r.status != repair::RepairStatus::Fixed ||
                 !r.equivalence_checked) {
        std::printf("%s: CHECK: no-race entry %s\n", src.name.c_str(), status);
        ++check_failures;
      }
    }
  }

  if (check) {
    const double rate =
        race_total == 0 ? 100.0 : 100.0 * race_fixed / race_total;
    const bool rate_ok = rate >= static_cast<double>(min_fix_rate);
    std::printf(
        "fix check: %d/%d race entr%s fixed (%.1f%%, %d output-equivalent), "
        "min %d%%: %s; %d check failure(s)\n",
        race_fixed, race_total, race_total == 1 ? "y" : "ies", rate,
        race_verified, min_fix_rate, rate_ok ? "OK" : "BELOW", check_failures);
    return (rate_ok && check_failures == 0 && !any_error) ? 0 : 1;
  }
  if (any_error) return 2;
  return unfixed > 0 ? 1 : 0;
}

void print_exploration_table(const std::vector<eval::ExplorationRow>& rows) {
  TextTable table({"strategy", "entries", "detected", "only", "avg sched",
                   "witness dec", "plateau", "errors"});
  for (const eval::ExplorationRow& row : rows) {
    char avg[32];
    std::snprintf(avg, sizeof(avg), "%.2f", row.avg_schedules_to_first_race());
    table.add_row({row.strategy, std::to_string(row.entries),
                   std::to_string(row.detected), std::to_string(row.only_here),
                   avg, std::to_string(row.witness_decisions),
                   std::to_string(row.plateau_stops),
                   std::to_string(row.errors)});
  }
  std::printf("%s", heading("Schedule exploration (race-labeled corpus; "
                            "equal budget per strategy)")
                        .c_str());
  std::printf("%s\n", table.render().c_str());
}

int cmd_explore(const std::vector<std::string>& args) {
  explore::ExploreOptions opts;
  int jobs = 0;
  bool check = false;
  std::string witness_path;
  SourceArgs source_args("--synth-seed");
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--strategy") {
      opts.strategy = runtime::parse_strategy(flag_value(args, i));
    } else if (args[i] == "--budget") {
      opts.max_schedules = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--depth") {
      opts.pct_depth = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--plateau") {
      opts.plateau_window = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--seed") {
      opts.seed = static_cast<std::uint64_t>(int_flag(args, i));
    } else if (args[i] == "--no-minimize") {
      opts.minimize = false;
    } else if (args[i] == "--jobs") {
      jobs = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--check") {
      check = true;
    } else if (args[i] == "--replay") {
      witness_path = flag_value(args, i);
    } else {
      source_args.take(args, i);
    }
  }

  // Replay mode: re-run a recorded witness against one source.
  if (!witness_path.empty()) {
    const std::vector<std::string>& paths = source_args.paths();
    if (paths.size() != 1) {
      std::fprintf(stderr, "error: --replay WITNESS expects exactly one "
                           "source file\n");
      return 2;
    }
    // The operand is either a literal witness string (as printed by a
    // normal run) or a path to a file holding one.
    const bool literal = witness_path.rfind("drbml-witness-", 0) == 0;
    const explore::Witness w = explore::decode_witness(
        literal ? witness_path : trim(read_file(witness_path)));
    const runtime::RunResult r =
        explore::replay_witness(read_file(paths[0]), w);
    std::printf("replay: %s (%llu decision(s), %llu step(s))\n",
                r.report.race_detected ? "DATA RACE" : "no race observed",
                static_cast<unsigned long long>(w.trace.total_decisions()),
                static_cast<unsigned long long>(r.steps));
    print_pairs(r.report.pairs);
    if (r.faulted) {
      std::printf("  fault: %s\n", r.fault_message.c_str());
    }
    return r.report.race_detected ? 1 : 0;
  }

  eval::ArtifactCache& cache = eval::artifact_cache();

  // Check mode: the exploration gate over the race-labeled corpus. PCT
  // must match or beat uniform at the same budget, and every witness must
  // replay its race bit-identically (two replays, identical results).
  if (check) {
    obs::Span span(obs::kSpanStageExplore);
    eval::ExperimentOptions eopts;
    eopts.jobs = jobs;
    const std::vector<eval::ExplorationRow> rows =
        eval::exploration_rows(opts, eopts);
    print_exploration_table(rows);

    const eval::ExplorationRow& uniform = rows[0];
    const eval::ExplorationRow& pct = rows[1];

    std::vector<const drb::CorpusEntry*> racy;
    for (const drb::CorpusEntry& e : drb::corpus()) {
      if (e.race) racy.push_back(&e);
    }
    explore::ExploreOptions pct_opts = opts;
    pct_opts.strategy = runtime::ScheduleStrategy::Pct;
    const std::vector<int> witness_ok = support::parallel_map(
        jobs, racy, [&](const drb::CorpusEntry* e) {
          const std::string code = drb::drb_code(*e);
          const explore::ExploreResult* r = nullptr;
          try {
            r = &cache.explore_result(code, pct_opts);
          } catch (const Error&) {
            return 1;  // exploration errored: no witness to check
          }
          if (!r->race_detected) return 1;
          if (r->witness.empty()) return 0;
          const explore::Witness w = explore::decode_witness(r->witness);
          const runtime::RunResult a =
              explore::replay_witness(code, w, pct_opts.run);
          const runtime::RunResult b =
              explore::replay_witness(code, w, pct_opts.run);
          const bool identical =
              a.output == b.output && a.exit_code == b.exit_code &&
              a.steps == b.steps && a.faulted == b.faulted &&
              a.report.race_detected == b.report.race_detected &&
              a.report.pairs == b.report.pairs;
          return (a.report.race_detected && identical) ? 1 : 0;
        });
    int bad_witnesses = 0;
    for (std::size_t i = 0; i < witness_ok.size(); ++i) {
      if (witness_ok[i] == 0) {
        std::printf("%s: CHECK: witness does not replay its race "
                    "bit-identically\n",
                    racy[i]->name.c_str());
        ++bad_witnesses;
      }
    }

    const bool pct_ok = pct.detected >= uniform.detected;
    const bool pct_only_ok = pct.only_here >= 1;
    std::printf(
        "explore check: pct %d/%d vs uniform %d/%d detected (budget %d): "
        "%s; %d pct-only entr%s: %s; %d bad witness(es)\n",
        pct.detected, pct.entries, uniform.detected, uniform.entries,
        opts.max_schedules, pct_ok ? "OK" : "BEHIND", pct.only_here,
        pct.only_here == 1 ? "y" : "ies", pct_only_ok ? "OK" : "MISSING",
        bad_witnesses);
    return (pct_ok && pct_only_ok && bad_witnesses == 0) ? 0 : 1;
  }

  const std::vector<Source> sources = source_args.collect();
  if (sources.empty()) return usage();

  const auto outcomes = run_each(jobs, sources, [&](const std::string& code) {
    return &cache.explore_result(code, opts);
  });

  bool any_race = false;
  bool any_error = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::string& name = sources[i].name;
    if (failed(sources[i], outcomes[i])) {
      any_error = true;
      continue;
    }
    const explore::ExploreResult& r = *outcomes[i].value;
    if (r.race_detected) {
      any_race = true;
      std::printf(
          "%s: DATA RACE (%s schedule %d of %d, minimized %llu -> %llu "
          "decision(s))\n",
          name.c_str(), runtime::strategy_name(opts.strategy),
          r.first_race_schedule + 1, r.schedules_run,
          static_cast<unsigned long long>(r.original_decisions),
          static_cast<unsigned long long>(r.witness_decisions));
      print_pairs(r.report.pairs);
      std::printf("  witness: %s\n", r.witness.c_str());
    } else {
      std::printf("%s: no race in %d %s schedule(s)%s (%zu coverage "
                  "point(s))\n",
                  name.c_str(), r.schedules_run,
                  runtime::strategy_name(opts.strategy),
                  r.stopped_on_plateau ? ", stopped on coverage plateau" : "",
                  r.coverage.size());
    }
  }
  if (any_error) return 2;
  return any_race ? 1 : 0;
}

// Runs the full corpus pipeline stage by stage -- dataset construction,
// token filtering, static analysis, dynamic detection, lint, verified
// repair -- timing each stage through the obs stage timers and printing a
// per-stage table plus the deterministic counter snapshot. With
// --metrics FILE the snapshot is also written as JSON at exit; its bytes
// are identical at any --jobs value (timers are excluded as unstable).
int cmd_stats(const std::vector<std::string>& args) {
  eval::ExperimentOptions eopts;
  std::string cache_path;
  bool run_repair = true;
  bool run_explore = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--jobs") {
      eopts.jobs = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--cache") {
      cache_path = flag_value(args, i);
    } else if (args[i] == "--no-repair") {
      run_repair = false;
    } else if (args[i] == "--no-explore") {
      run_explore = false;
    } else {
      (void)operand(args[i]);
      return usage();
    }
  }

  eval::ArtifactCache& cache = eval::artifact_cache();
  if (!cache_path.empty() && std::filesystem::exists(cache_path)) {
    const std::size_t seeded = cache.load_snapshot(cache_path);
    if (seeded > 0) {
      std::printf("cache: seeded %zu entries from %s\n", seeded,
                  cache_path.c_str());
    }
  }

  // Stage timers need the metrics sink on; flipping it here does not make
  // an exit file appear (that takes --metrics FILE / DRBML_METRICS).
  obs::MetricsRegistry& reg = obs::metrics();
  reg.set_enabled(true);

  TextTable table({"stage", "wall ms", "cpu ms", "items"});
  const auto run_stage = [&](const obs::SpanDesc& span_desc,
                             const obs::MetricDesc& timer_desc,
                             auto&& stage_fn) {
    obs::Timer& timer = reg.timer(timer_desc);
    std::uint64_t items = 0;
    {
      obs::Span span(span_desc, {}, &timer);
      items = stage_fn();
    }
    char wall[32];
    char cpu[32];
    std::snprintf(wall, sizeof(wall), "%.1f", timer.wall_ns() / 1e6);
    std::snprintf(cpu, sizeof(cpu), "%.1f", timer.cpu_ns() / 1e6);
    table.add_row({span_desc.name, wall, cpu, std::to_string(items)});
  };

  run_stage(obs::kSpanStageDataset, obs::kStageDatasetTime,
            [] { return dataset::dataset().size(); });
  run_stage(obs::kSpanStageTokens, obs::kStageTokensTime,
            [] { return eval::token_filtered_subset().size(); });

  std::vector<const drb::CorpusEntry*> entries;
  for (const drb::CorpusEntry& e : drb::corpus()) entries.push_back(&e);

  run_stage(obs::kSpanStageStatic, obs::kStageStaticTime, [&] {
    const std::vector<int> racy = support::parallel_map(
        eopts.jobs, entries, [&](const drb::CorpusEntry* e) {
          return cache.static_report(drb::drb_code(*e), {}).race_detected ? 1
                                                                          : 0;
        });
    std::uint64_t n = 0;
    for (int r : racy) n += static_cast<std::uint64_t>(r);
    return n;
  });
  run_stage(obs::kSpanStageDynamic, obs::kStageDynamicTime, [&] {
    const std::vector<int> racy = support::parallel_map(
        eopts.jobs, entries, [&](const drb::CorpusEntry* e) {
          try {
            return cache.dynamic_report(drb::drb_code(*e), {}).race_detected
                       ? 1
                       : 0;
          } catch (const Error&) {
            return 0;  // non-executable entries fall out of the dynamic stage
          }
        });
    std::uint64_t n = 0;
    for (int r : racy) n += static_cast<std::uint64_t>(r);
    return n;
  });
  run_stage(obs::kSpanStageLint, obs::kStageLintTime, [&] {
    const std::vector<std::size_t> counts = support::parallel_map(
        eopts.jobs, entries, [&](const drb::CorpusEntry* e) {
          try {
            return cache.lint_report(drb::drb_code(*e)).diagnostics.size();
          } catch (const Error&) {
            return std::size_t{0};
          }
        });
    std::uint64_t n = 0;
    for (std::size_t c : counts) n += c;
    return n;
  });
  if (run_explore) {
    run_stage(obs::kSpanStageExplore, obs::kStageExploreTime, [&] {
      const std::vector<eval::ExplorationRow> rows =
          eval::exploration_rows({}, eopts);
      // Rows are [uniform, pct]; items = entries the PCT loop detected.
      return rows.empty() ? std::uint64_t{0}
                          : static_cast<std::uint64_t>(rows.back().detected);
    });
  }
  if (run_repair) {
    run_stage(obs::kSpanStageRepair, obs::kStageRepairTime, [&] {
      const std::vector<eval::RepairRow> rows = eval::table7_rows({}, eopts);
      // The "(all)" total row is last; items = entries with a verified fix.
      return rows.empty() ? std::uint64_t{0}
                          : static_cast<std::uint64_t>(rows.back().fixed);
    });
  }

  std::printf("%s", heading("Pipeline stages (items: entries produced, "
                            "racy verdicts, diagnostics, fixes)")
                        .c_str());
  std::printf("%s\n", table.render().c_str());
  std::printf("%s", reg.to_text().c_str());

  if (!cache_path.empty()) {
    if (cache.save_snapshot(cache_path)) {
      std::printf("cache: snapshot written to %s\n", cache_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write cache snapshot %s\n",
                   cache_path.c_str());
    }
  }
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true); }

/// Installs SIGINT/SIGTERM handlers *without* SA_RESTART, so a signal
/// interrupts the daemon's blocking read/accept with EINTR and the serve
/// loop sees the stop flag -- the graceful-drain path, not process death.
void install_serve_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// Serves NDJSON sessions on a unix socket, one connection at a time,
/// until a signal or shutdown verb. Returns responses written.
std::uint64_t serve_unix_socket(serve::Server& server,
                                const std::string& path) {
  sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error("--socket path too long: " + path);
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) throw Error("cannot create unix socket");
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 8) != 0) {
    ::close(listener);
    throw Error("cannot bind/listen on " + path);
  }
  std::fprintf(stderr, "serve: listening on %s\n", path.c_str());
  std::uint64_t written = 0;
  while (!g_serve_stop.load() && !server.shutdown_requested()) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;
    }
    written += server.serve_fd(conn, conn, &g_serve_stop);
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return written;
}

// Long-lived detection daemon. Requests are NDJSON lines (protocol in
// docs/SERVE.md); responses go to stdout (or back down the socket). The
// process exits after a graceful drain on EOF, SIGINT/SIGTERM, or a
// `shutdown` request.
int cmd_serve(const std::vector<std::string>& args) {
  serve::ServerOptions opts;
  opts.cache_budget = eval::env_cache_budget();
  std::string socket_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--socket") {
      socket_path = flag_value(args, i);
    } else if (args[i] == "--jobs") {
      opts.jobs = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--queue-limit") {
      const std::int64_t v = int_flag(args, i);
      if (v < 0) throw Error("--queue-limit expects >= 0 (0 = unbounded)");
      opts.queue_limit = static_cast<std::size_t>(v);
    } else if (args[i] == "--deadline-ms") {
      const std::int64_t v = int_flag(args, i);
      if (v < 0) throw Error("--deadline-ms expects >= 0 (0 = none)");
      opts.default_deadline_ms = v;
    } else if (args[i] == "--cache-budget") {
      const std::int64_t v = int_flag(args, i);
      if (v < 0) throw Error("--cache-budget expects >= 0 bytes (0 = unlimited)");
      opts.cache_budget = static_cast<std::uint64_t>(v);
    } else if (args[i] == "--cache") {
      opts.cache_snapshot = flag_value(args, i);
    } else {
      (void)operand(args[i]);
      return usage();
    }
  }

  install_serve_signal_handlers();
  serve::Server server(opts);
  const std::uint64_t written =
      socket_path.empty() ? server.serve_fd(STDIN_FILENO, STDOUT_FILENO,
                                            &g_serve_stop)
                          : serve_unix_socket(server, socket_path);
  server.drain();
  std::fprintf(stderr, "serve: drained after %llu responses\n",
               static_cast<unsigned long long>(written));
  return 0;
}

int cmd_corpus(const std::vector<std::string>& args) {
  std::string pattern;
  int limit = -1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--pattern") {
      pattern = flag_value(args, i);
    } else if (args[i] == "--limit") {
      limit = static_cast<int>(int_flag(args, i));
    } else {
      (void)operand(args[i]);
      return usage();
    }
  }
  int shown = 0;
  for (const auto& e : drb::corpus()) {
    if (!pattern.empty() && e.pattern != pattern) continue;
    std::printf("%-52s %-4s %-3s %s\n", e.name.c_str(),
                e.race ? "yes" : "no", e.label.c_str(), e.pattern.c_str());
    if (limit > 0 && ++shown >= limit) break;
  }
  return 0;
}

int cmd_entry(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const drb::CorpusEntry* e = drb::find_entry(args[0]);
  if (e == nullptr) {
    std::fprintf(stderr, "no such entry: %s\n", args[0].c_str());
    return 2;
  }
  std::printf("%s", drb::drb_code(*e).c_str());
  return 0;
}

int cmd_dataset(const std::vector<std::string>& args) {
  std::filesystem::path out = "drb-ml";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out") {
      out = flag_value(args, i);
    } else {
      (void)operand(args[i]);
      return usage();
    }
  }
  std::filesystem::create_directories(out);
  for (const dataset::Entry& e : dataset::dataset()) {
    char name[32];
    std::snprintf(name, sizeof(name), "DRB-ML-%03d.json", e.id);
    std::ofstream file(out / name);
    file << e.to_json().dump_pretty() << "\n";
  }
  std::printf("wrote %zu entries to %s/\n", dataset::dataset().size(),
              out.string().c_str());
  return 0;
}

int cmd_synth(const std::vector<std::string>& args) {
  drb::SynthConfig config;
  std::filesystem::path out = "synth";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--count") {
      config.count = static_cast<int>(int_flag(args, i));
    } else if (args[i] == "--seed") {
      config.seed = static_cast<std::uint64_t>(int_flag(args, i));
    } else if (args[i] == "--out") {
      out = flag_value(args, i);
    } else {
      (void)operand(args[i]);
      return usage();
    }
  }
  std::filesystem::create_directories(out);
  int yes = 0;
  for (const drb::SynthEntry& e : drb::synthesize(config)) {
    std::ofstream file(out / e.name);
    file << e.code;
    yes += e.race ? 1 : 0;
  }
  std::printf("wrote %d synthetic kernels (%d racy) to %s/\n", config.count,
              yes, out.string().c_str());
  return 0;
}

int cmd_detectors() {
  for (const auto& spec : core::available_detectors()) {
    std::printf("%s\n", spec.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  drbml::obs::consume_obs_flags(args);
  try {
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "graph") return cmd_graph(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "fix") return cmd_fix(args);
    if (cmd == "explore") return cmd_explore(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "corpus") return cmd_corpus(args);
    if (cmd == "entry") return cmd_entry(args);
    if (cmd == "dataset") return cmd_dataset(args);
    if (cmd == "synth") return cmd_synth(args);
    if (cmd == "detectors") return cmd_detectors();
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      usage();
      return 0;
    }
  } catch (const drbml::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
