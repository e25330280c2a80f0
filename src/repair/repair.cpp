#include "repair/repair.hpp"

#include <algorithm>
#include <cctype>

#include "dataset/drbml.hpp"
#include "explore/explore.hpp"
#include "lint/lint.hpp"
#include "minic/parser.hpp"
#include "obs/catalog.hpp"
#include "support/error.hpp"

namespace drbml::repair {

namespace {

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t nl = s.find('\n', start);
    if (nl == std::string::npos) {
      if (start < s.size()) lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

const char* repair_status_name(RepairStatus s) noexcept {
  switch (s) {
    case RepairStatus::NoRaceDetected: return "no-race";
    case RepairStatus::Fixed: return "fixed";
    case RepairStatus::NoCandidate: return "no-candidate";
    case RepairStatus::Rejected: return "rejected";
    case RepairStatus::Error: return "error";
  }
  return "?";
}

namespace {

VerifyOutcome verify_candidate_impl(const std::string& original,
                                    const std::string& patched,
                                    const RepairOptions& opts) {
  VerifyOutcome out;

  // Gate 1: static detector must report race-free.
  try {
    const analysis::StaticRaceDetector sdet(opts.static_opts);
    if (sdet.analyze_source(patched).race_detected) {
      out.gate = RejectGate::Static;
      out.reason = "static detector still reports a race";
      return out;
    }
  } catch (const Error& e) {
    out.gate = RejectGate::Static;
    out.reason = std::string("static analysis failed: ") + e.what();
    return out;
  }

  // Reference semantics: the original program executed serially.
  runtime::RunOptions serial = opts.dynamic_opts.run;
  serial.num_threads = 1;
  bool have_ref = false;
  std::string ref_output;
  int ref_exit = 0;
  try {
    const runtime::RunResult ref =
        runtime::CompiledProgram(original).run(serial);
    if (!ref.faulted) {
      have_ref = true;
      ref_output = ref.output;
      ref_exit = ref.exit_code;
    }
  } catch (const Error&) {
    // No serial reference; gates 2 still apply, gate 3 is skipped.
  }

  // Gate 2: every parallel schedule must be race-free and fault-free, and
  // all schedules must agree on output (the fix made the program
  // schedule-deterministic). The parallel output is NOT compared against
  // the serial reference -- programs whose answer legitimately depends on
  // the thread count (each thread increments a counter) would fail that.
  // The patched program compiles once for gates 2 and 3, and the seeds
  // after the first resume from the first one's serial prefix.
  try {
    runtime::CompiledProgram program(patched);
    runtime::RunOptions par = opts.dynamic_opts.run;
    bool have_par = false;
    std::string par_output;
    int par_exit = 0;
    for (const std::uint64_t seed : opts.dynamic_opts.schedule_seeds) {
      par.seed = seed;
      const runtime::RunResult run = program.run(par);
      if (run.faulted) {
        out.gate = RejectGate::Fault;
        out.reason = "patched program faults: " + run.fault_message;
        return out;
      }
      if (run.report.race_detected) {
        out.gate = RejectGate::Dynamic;
        out.reason = "dynamic detector still reports a race (seed " +
                     std::to_string(seed) + ")";
        return out;
      }
      if (have_par &&
          (run.output != par_output || run.exit_code != par_exit)) {
        out.gate = RejectGate::Nondet;
        out.reason = "output not deterministic across schedules (seed " +
                     std::to_string(seed) + ")";
        return out;
      }
      have_par = true;
      par_output = run.output;
      par_exit = run.exit_code;
    }
    // Gate 3: serial semantics preserved -- the patched program run on one
    // thread must match the original run on one thread byte for byte.
    // This is what rejects patches like privatizing an accumulator: they
    // silence the detectors but change the answer even serially.
    if (have_ref) {
      const runtime::RunResult srun = program.run(serial);
      if (srun.faulted || srun.output != ref_output ||
          srun.exit_code != ref_exit) {
        out.gate = RejectGate::Output;
        out.reason = "serial output diverges from the original";
        return out;
      }
    }
  } catch (const Error& e) {
    out.gate = RejectGate::Dynamic;
    out.reason = std::string("dynamic verification failed: ") + e.what();
    return out;
  }

  // Gate 4: the fix must also survive randomized PCT schedule
  // exploration. Gate 2 replays a fixed handful of uniform seeds; PCT's
  // priority schedules reach order-dependent interleavings (e.g. races
  // hidden behind a lock-acquisition window) those replays never hit.
  if (opts.explore_schedules > 0) {
    try {
      explore::ExploreOptions eopts;
      eopts.run = opts.dynamic_opts.run;
      eopts.strategy = runtime::ScheduleStrategy::Pct;
      eopts.pct_depth = opts.explore_pct_depth;
      eopts.max_schedules = opts.explore_schedules;
      eopts.minimize = false;
      const explore::ExploreResult er =
          explore::explore_source(patched, eopts);
      if (er.race_detected) {
        out.gate = RejectGate::Explore;
        out.reason = "PCT exploration still finds a race (schedule " +
                     std::to_string(er.first_race_schedule + 1) + " of " +
                     std::to_string(opts.explore_schedules) + ")";
        return out;
      }
    } catch (const Error& e) {
      out.gate = RejectGate::Explore;
      out.reason = std::string("schedule exploration failed: ") + e.what();
      return out;
    }
  }

  out.accepted = true;
  out.equivalence_checked = have_ref;
  return out;
}

obs::Counter& reject_counter(RejectGate gate) {
  static obs::Counter& stat = obs::metrics().counter(obs::kRepairRejectedStatic);
  static obs::Counter& fault = obs::metrics().counter(obs::kRepairRejectedFault);
  static obs::Counter& dyn = obs::metrics().counter(obs::kRepairRejectedDynamic);
  static obs::Counter& nondet =
      obs::metrics().counter(obs::kRepairRejectedNondet);
  static obs::Counter& output =
      obs::metrics().counter(obs::kRepairRejectedOutput);
  static obs::Counter& explored =
      obs::metrics().counter(obs::kRepairRejectedExplore);
  switch (gate) {
    case RejectGate::Fault: return fault;
    case RejectGate::Dynamic: return dyn;
    case RejectGate::Nondet: return nondet;
    case RejectGate::Output: return output;
    case RejectGate::Explore: return explored;
    case RejectGate::Static:
    case RejectGate::None: break;
  }
  return stat;
}

}  // namespace

VerifyOutcome verify_candidate(const std::string& original,
                               const std::string& patched,
                               const RepairOptions& opts) {
  static obs::Counter& accepted = obs::metrics().counter(obs::kRepairAccepted);
  VerifyOutcome out;
  {
    obs::Span span(obs::kSpanRepairVerify);
    out = verify_candidate_impl(original, patched, opts);
  }
  if (out.accepted) {
    accepted.add();
  } else {
    reject_counter(out.gate).add();
  }
  return out;
}

RepairResult repair_source(const std::string& source,
                           const RepairOptions& opts) {
  static obs::Counter& candidates_tried =
      obs::metrics().counter(obs::kRepairCandidates);
  static obs::Counter& no_candidate =
      obs::metrics().counter(obs::kRepairNoCandidate);
  static obs::Counter& rejected_error =
      obs::metrics().counter(obs::kRepairRejectedError);
  obs::Span entry_span(obs::kSpanRepairEntry);
  RepairResult r;

  minic::Program prog;
  try {
    prog = minic::parse_program(source);
  } catch (const Error& e) {
    r.status = RepairStatus::Error;
    r.message = std::string("error: parse failed: ") + e.what();
    return r;
  }

  // Detection: does this program need repair at all?
  analysis::RaceReport static_report;
  try {
    const analysis::StaticRaceDetector sdet(opts.static_opts);
    static_report = sdet.analyze_source(source);
  } catch (const Error& e) {
    r.status = RepairStatus::Error;
    r.message = std::string("error: static analysis failed: ") + e.what();
    return r;
  }
  bool dynamic_race = false;
  try {
    const runtime::DynamicRaceDetector ddet(opts.dynamic_opts);
    dynamic_race = ddet.analyze_source(source).race_detected;
  } catch (const Error&) {
    // Non-executable programs (no main, faults) fall back to static-only.
  }
  if (!static_report.race_detected && !dynamic_race) {
    r.status = RepairStatus::NoRaceDetected;
    r.patched = source;
    return r;
  }

  // Linter fix-its seed the cheapest candidates.
  lint::LintReport lint_report;
  const lint::LintReport* lint_ptr = nullptr;
  try {
    const lint::Linter linter;
    lint_report = linter.lint_source(source);
    lint_ptr = &lint_report;
  } catch (const Error&) {
  }

  const std::vector<Patch> candidates =
      generate_candidates(prog, static_report, lint_ptr, opts.strategy);
  r.candidates_generated = static_cast<int>(candidates.size());
  if (candidates.empty()) {
    no_candidate.add();
    r.status = RepairStatus::NoCandidate;
    r.message = "no-candidate: no strategy applies to this race shape "
                "(strategy " +
                std::string(strategy_name(opts.strategy)) + ")";
    return r;
  }

  std::string last_reason;
  for (const Patch& patch : candidates) {
    if (r.attempts >= opts.max_candidates) break;
    ++r.attempts;
    candidates_tried.add();
    const ApplyResult applied = apply_patch(source, patch);
    if (!applied.ok) {
      rejected_error.add();
      last_reason = patch.id + ": " + applied.message;
      continue;
    }
    const std::string patched =
        remap_annotations(applied.patched, applied.line_map);
    const VerifyOutcome verdict = verify_candidate(source, patched, opts);
    if (!verdict.accepted) {
      last_reason = patch.id + ": " + verdict.reason;
      continue;
    }
    r.status = RepairStatus::Fixed;
    r.patched = patched;
    r.patch_id = patch.id;
    r.description = patch.description;
    r.family = patch.family;
    r.equivalence_checked = verdict.equivalence_checked;
    r.line_map = applied.line_map;
    return r;
  }

  r.status = RepairStatus::Rejected;
  r.message = "rejected: all " + std::to_string(r.attempts) +
              " candidate(s) failed verification (last: " + last_reason + ")";
  return r;
}

std::string remap_annotations(const std::string& patched,
                              const LineMap& line_map) {
  if (line_map.original_events.empty() && line_map.dropped_original.empty()) {
    return patched;
  }
  std::vector<std::string> lines = split_lines(patched);
  bool changed = false;
  for (auto& line : lines) {
    dataset::RawAnnotation ann;
    if (!dataset::parse_annotation(line, ann)) continue;
    const std::size_t start = line.find("Data race pair:");
    auto remap = [&](int l) {
      const int out = line_map.to_patched_original(l);
      return out > 0 ? out : l;
    };
    auto side = [&](const std::string& expr, int l, int c, char op) {
      return expr + "@" + std::to_string(remap(l)) + ":" + std::to_string(c) +
             ":" +
             std::string(1, static_cast<char>(std::toupper(
                                static_cast<unsigned char>(op))));
    };
    line = line.substr(0, start) + "Data race pair: " +
           side(ann.var1_expr, ann.var1_line, ann.var1_col, ann.var1_op) +
           " vs. " +
           side(ann.var0_expr, ann.var0_line, ann.var0_col, ann.var0_op);
    changed = true;
  }
  if (!changed) return patched;
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  if (!patched.empty() && patched.back() != '\n' && !out.empty()) {
    out.pop_back();
  }
  return out;
}

std::string unified_diff(const std::string& before, const std::string& after) {
  const std::vector<std::string> a = split_lines(before);
  const std::vector<std::string> b = split_lines(after);
  const std::size_t n = a.size();
  const std::size_t m = b.size();

  // Longest common subsequence over lines (sources are small).
  std::vector<std::vector<int>> lcs(n + 1, std::vector<int>(m + 1, 0));
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j]
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }

  std::string out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < n || j < m) {
    if (i < n && j < m && a[i] == b[j]) {
      out += " " + a[i] + "\n";
      ++i;
      ++j;
    } else if (j < m && (i == n || lcs[i][j + 1] >= lcs[i + 1][j])) {
      out += "+" + b[j] + "\n";
      ++j;
    } else {
      out += "-" + a[i] + "\n";
      ++i;
    }
  }
  return out;
}

}  // namespace drbml::repair
