// Tests for the OpenMP correctness linter (src/lint): the individual
// checks, comment suppression across every emitter, the SARIF shape, the
// acceptance criterion that SARIF race locations match the DRB-ML labels,
// and the differential run over the whole corpus plus synthetic kernels.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "dataset/drbml.hpp"
#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "eval/experiments.hpp"
#include "lint/checks.hpp"
#include "lint/emit.hpp"
#include "lint/lint.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"

namespace drbml {
namespace {

lint::LintReport lint_code(const std::string& code) {
  return lint::lint_source(code);
}

lint::LintReport lint_entry(const std::string& name) {
  const drb::CorpusEntry* entry = drb::find_entry(name);
  EXPECT_NE(entry, nullptr) << name;
  return lint_code(drb::drb_code(*entry));
}

/// First diagnostic with the given check id, or nullptr.
const lint::Diagnostic* find_check(const lint::LintReport& report,
                                   const std::string& check_id) {
  for (const auto& d : report.diagnostics) {
    if (d.check_id == check_id) return &d;
  }
  return nullptr;
}

int count_check(const lint::LintReport& report, const std::string& check_id) {
  int n = 0;
  for (const auto& d : report.diagnostics) n += d.check_id == check_id ? 1 : 0;
  return n;
}

/// Shorthand navigation into a json::Value tree (throws JsonError on a
/// missing key or type mismatch, which gtest reports as a test failure).
const json::Value& jf(const json::Value& v, std::string_view key) {
  return v.as_object().at(key);
}

const json::Value& ji(const json::Value& v, std::size_t index) {
  return v.as_array()[index];
}

// ------------------------------------------------------------- reduction

TEST(LintReduction, SumFixitOnMissingReductionEntry) {
  const lint::LintReport report =
      lint_entry("DRB047-sumnoreduction-orig-yes.c");
  const lint::Diagnostic* d = find_check(report, "lint.reduction");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::Error);
  EXPECT_EQ(d->fixit, "reduction(+:total)");
  EXPECT_EQ(d->pattern, "missing-reduction");
  EXPECT_TRUE(report.race.race_detected);
}

TEST(LintReduction, MaxPatternGetsMaxReduction) {
  const lint::LintReport report =
      lint_entry("DRB048-maxnoreduction-orig-yes.c");
  const lint::Diagnostic* d = find_check(report, "lint.reduction");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->fixit, "reduction(max:best)");
}

TEST(LintReduction, EveryMissingReductionFamilyEntryGetsAFixit) {
  for (const auto& entry : drb::corpus()) {
    if (entry.pattern != "missing-reduction") continue;
    const lint::LintReport report = lint_code(drb::drb_code(entry));
    const lint::Diagnostic* d = find_check(report, "lint.reduction");
    ASSERT_NE(d, nullptr) << entry.name;
    EXPECT_EQ(d->fixit.rfind("reduction(", 0), 0u) << entry.name;
  }
}

// ------------------------------------------------------------- datashare

TEST(LintDatashare, DefaultNoneFlagsEveryUnlistedVariable) {
  const std::string code =
      "int main() {\n"
      "  int i;\n"
      "  int n = 100;\n"
      "  double a[100];\n"
      "#pragma omp parallel for default(none) private(i)\n"
      "  for (i = 0; i < n; i++) {\n"
      "    a[i] = n;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const lint::LintReport report = lint_code(code);
  EXPECT_EQ(count_check(report, "lint.datashare"), 2);
  bool saw_n = false;
  bool saw_a = false;
  for (const auto& d : report.diagnostics) {
    if (d.check_id != "lint.datashare") continue;
    EXPECT_EQ(d.severity, lint::Severity::Error);
    EXPECT_EQ(d.pattern, "default-none");
    saw_n = saw_n || d.fixit == "shared(n)";
    saw_a = saw_a || d.fixit == "shared(a)";
  }
  EXPECT_TRUE(saw_n);
  EXPECT_TRUE(saw_a);
}

TEST(LintDatashare, WriteFirstScalarSuggestsPrivate) {
  const lint::LintReport report = lint_entry("DRB049-seedshared-orig-yes.c");
  const lint::Diagnostic* d = find_check(report, "lint.datashare");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::Warning);
  EXPECT_EQ(d->fixit, "private(seed)");
  EXPECT_EQ(d->pattern, "missing-private");
}

TEST(LintDatashare, ReadFirstScalarSuggestsFirstprivate) {
  const std::string code =
      "int main() {\n"
      "  int i;\n"
      "  int x = 5;\n"
      "  double out[100];\n"
      "#pragma omp parallel for\n"
      "  for (i = 0; i < 100; i++) {\n"
      "    out[i] = x;\n"
      "    x = i;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const lint::LintReport report = lint_code(code);
  const lint::Diagnostic* d = find_check(report, "lint.datashare");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->fixit, "firstprivate(x)");
  EXPECT_EQ(d->pattern, "firstprivate-missing");
}

// ------------------------------------------------------------- locks

constexpr const char* kUnpairedLockCode =
    "#include <omp.h>\n"
    "int x = 0;\n"
    "omp_lock_t l;\n"
    "int main() {\n"
    "#pragma omp parallel\n"
    "  {\n"
    "    omp_set_lock(&l);\n"
    "    x = x + 1;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

TEST(LintLock, SetWithoutUnsetWarns) {
  const lint::LintReport report = lint_code(kUnpairedLockCode);
  const lint::Diagnostic* d = find_check(report, "lint.lock");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::Warning);
  EXPECT_NE(d->message.find("no matching omp_unset_lock"), std::string::npos);
}

TEST(LintLock, ReacquireWhileHeldIsAnError) {
  const std::string code =
      "#include <omp.h>\n"
      "int x = 0;\n"
      "omp_lock_t l;\n"
      "int main() {\n"
      "#pragma omp parallel\n"
      "  {\n"
      "    omp_set_lock(&l);\n"
      "    omp_set_lock(&l);\n"
      "    x = x + 1;\n"
      "    omp_unset_lock(&l);\n"
      "    omp_unset_lock(&l);\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const lint::LintReport report = lint_code(code);
  const lint::Diagnostic* d = find_check(report, "lint.lock");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::Error);
  EXPECT_NE(d->message.find("not reentrant"), std::string::npos);
  ASSERT_FALSE(d->related.empty());  // points at the first acquisition
}

TEST(LintLock, OppositeAcquisitionOrdersAcrossFunctions) {
  const std::string code =
      "#include <omp.h>\n"
      "int x = 0;\n"
      "omp_lock_t a;\n"
      "omp_lock_t b;\n"
      "void f() {\n"
      "  omp_set_lock(&a);\n"
      "  omp_set_lock(&b);\n"
      "  x = x + 1;\n"
      "  omp_unset_lock(&b);\n"
      "  omp_unset_lock(&a);\n"
      "}\n"
      "void g() {\n"
      "  omp_set_lock(&b);\n"
      "  omp_set_lock(&a);\n"
      "  x = x + 2;\n"
      "  omp_unset_lock(&a);\n"
      "  omp_unset_lock(&b);\n"
      "}\n"
      "int main() {\n"
      "#pragma omp parallel\n"
      "  {\n"
      "    f();\n"
      "    g();\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const lint::LintReport report = lint_code(code);
  const lint::Diagnostic* d = find_check(report, "lint.lock");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("opposite orders"), std::string::npos);
  // The lock-free "DRB031-lockpartial" family is handled by lint.atomic,
  // not reported as an ordering problem.
  EXPECT_EQ(count_check(report, "lint.lock"), 1);
}

// ------------------------------------------------------------- barriers

TEST(LintBarrier, BarrierInsideSingleIsIllegalNesting) {
  const std::string code =
      "int main() {\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp single\n"
      "    {\n"
      "#pragma omp barrier\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const lint::LintReport report = lint_code(code);
  const lint::Diagnostic* d = find_check(report, "lint.barrier");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::Error);
  EXPECT_NE(d->message.find("single"), std::string::npos);
}

TEST(LintBarrier, ConditionalBarrierIsAsymmetric) {
  const std::string code =
      "#include <omp.h>\n"
      "int main() {\n"
      "#pragma omp parallel\n"
      "  {\n"
      "    if (omp_get_thread_num() == 0) {\n"
      "#pragma omp barrier\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const lint::LintReport report = lint_code(code);
  const lint::Diagnostic* d = find_check(report, "lint.barrier");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::Warning);
  EXPECT_EQ(d->pattern, "barrier-asymmetric");
}

TEST(LintBarrier, NowaitDependenceSuggestsBarrier) {
  const lint::LintReport report = lint_entry("DRB026-nowaitdep-orig-yes.c");
  const lint::Diagnostic* d = find_check(report, "lint.barrier");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->pattern, "nowait");
  EXPECT_EQ(d->fixit, "#pragma omp barrier");
  // The warning names the shared array, not the loop-private induction var.
  EXPECT_NE(d->message.find("'a'"), std::string::npos);
  ASSERT_FALSE(d->related.empty());
}

// ------------------------------------------------------------- atomic

TEST(LintAtomic, AtomicPlusPlainAccessFlagsThePlainSide) {
  const lint::LintReport report = lint_entry("DRB025-atomicplain-orig-yes.c");
  const lint::Diagnostic* d = find_check(report, "lint.atomic");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::Error);
  EXPECT_EQ(d->pattern, "atomic-plus-plain");
  EXPECT_EQ(d->fixit, "#pragma omp atomic");
  ASSERT_FALSE(d->related.empty());  // points at the protected access
}

TEST(LintAtomic, DifferentCriticalNamesDoNotExclude) {
  const lint::LintReport report =
      lint_entry("DRB024-criticalnames-orig-yes.c");
  const lint::Diagnostic* d = find_check(report, "lint.atomic");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->pattern, "different-critical-names");
}

// ---------------------------------------------------------- clean corpus

TEST(LintCleanEntries, RaceFreePatternsProduceNoFindings) {
  for (const char* name :
       {"DRB052-tmpprivate-orig-no.c", "DRB057-seedfirstprivate-orig-no.c",
        "DRB039-lockfull-orig-no.c", "DRB055-sumreduction-orig-no.c",
        "DRB056-maxreduction-orig-no.c"}) {
    const lint::LintReport report = lint_entry(name);
    EXPECT_TRUE(report.diagnostics.empty()) << name;
    EXPECT_FALSE(report.race.race_detected) << name;
  }
}

// ------------------------------------------------------------ truncation

/// 17 shared scalars, each updated once inside one `omp parallel`: two
/// racy pairs per scalar, 34 in all, past the reported-pair cap.
std::string seventeen_scalar_kernel() {
  std::string decls;
  std::string updates;
  for (int i = 0; i < 17; ++i) {
    std::string v = "s";
    v += std::to_string(i);
    decls += "  int " + v + " = 0;\n";
    updates += "    " + v + " = " + v + " + 1;\n";
  }
  return "int main() {\n" + decls + "#pragma omp parallel\n  {\n" +
         updates + "  }\n  return 0;\n}\n";
}

TEST(LintRace, PairCapSurfacesTruncationNote) {
  const lint::LintReport report = lint_code(seventeen_scalar_kernel());
  EXPECT_EQ(report.race.suppressed_pairs, 18);
  const lint::Diagnostic* trunc = nullptr;
  for (const auto& d : report.diagnostics) {
    if (d.pattern == "report-truncation") trunc = &d;
  }
  ASSERT_NE(trunc, nullptr);
  EXPECT_EQ(trunc->check_id, "lint.race");
  EXPECT_EQ(trunc->severity, lint::Severity::Note);
  EXPECT_EQ(trunc->message,
            "18 additional conflicting pair(s) suppressed by the max_pairs "
            "cap (16)");
  const json::Value j = lint::to_json({"scalars.c", report});
  EXPECT_EQ(jf(j, "race_suppressed_pairs").as_int(), 18);
}

// ---------------------------------------------------------- check table

TEST(LintChecks, AvailableChecksMatchEmittedIds) {
  std::set<std::string> table;
  for (const auto& [id, description] : lint::available_checks()) {
    EXPECT_TRUE(table.insert(id).second) << "duplicate id " << id;
    EXPECT_FALSE(description.empty()) << id;
  }
  // The corpus, with an unpaired lock for lint.lock, exercises every
  // check, and no check emits an id the table (and so the SARIF rules
  // list) lacks.
  std::vector<std::string> programs = {kUnpairedLockCode};
  for (const auto& entry : drb::corpus()) {
    programs.push_back(drb::drb_code(entry));
  }
  std::set<std::string> emitted;
  for (const std::string& code : programs) {
    for (const auto& d : lint_code(code).diagnostics) {
      emitted.insert(d.check_id);
    }
  }
  EXPECT_EQ(emitted, table);
}

// ----------------------------------------------------------- suppression

const char* kSuppressibleCode =
    "int main() {\n"
    "  int i;\n"
    "  int total = 0;\n"
    "#pragma omp parallel for\n"
    "  for (i = 0; i < 100; i++) {\n"
    "    total += i;%s\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

std::string with_suppression(const std::string& comment) {
  std::string code = kSuppressibleCode;
  const std::size_t pos = code.find("%s");
  return code.substr(0, pos) + comment + code.substr(pos + 2);
}

TEST(LintSuppression, CheckIdCommentRemovesOnlyThatCheck) {
  const lint::LintReport base = lint_code(with_suppression(""));
  ASSERT_NE(find_check(base, "lint.reduction"), nullptr);
  ASSERT_NE(find_check(base, "lint.race"), nullptr);

  const lint::LintReport report = lint_code(
      with_suppression("  // drbml-lint-suppress(lint.reduction)"));
  EXPECT_EQ(find_check(report, "lint.reduction"), nullptr);
  EXPECT_NE(find_check(report, "lint.race"), nullptr);
  EXPECT_EQ(report.suppressed, 1);
}

TEST(LintSuppression, AllCommentSilencesTheLine) {
  const lint::LintReport base = lint_code(with_suppression(""));
  const int findings = static_cast<int>(base.diagnostics.size());
  ASSERT_GT(findings, 0);

  const lint::LintReport report =
      lint_code(with_suppression("  // drbml-lint-suppress(all)"));
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.suppressed, findings);
}

TEST(LintSuppression, CommentOnlyLineCoversNextStatement) {
  std::string code = with_suppression("");
  const std::string anchor = "    total += i;";
  const std::size_t pos = code.find(anchor);
  ASSERT_NE(pos, std::string::npos);
  code.insert(pos, "    // drbml-lint-suppress(lint.reduction)\n");
  const lint::LintReport report = lint_code(code);
  EXPECT_EQ(find_check(report, "lint.reduction"), nullptr);
  EXPECT_EQ(report.suppressed, 1);
}

TEST(LintSuppression, SuppressedFindingAbsentFromEveryEmitter) {
  const lint::LintReport report =
      lint_code(with_suppression("  // drbml-lint-suppress(lint.reduction)"));
  const lint::FileLint file{"suppressed.c", report};
  ASSERT_EQ(report.suppressed, 1);

  const std::string text = lint::to_text(file);
  EXPECT_EQ(text.find("lint.reduction"), std::string::npos);
  EXPECT_NE(text.find("1 suppressed"), std::string::npos);

  const json::Value j = lint::to_json(file);
  EXPECT_EQ(j.dump().find("lint.reduction"), std::string::npos);
  EXPECT_EQ(jf(j, "suppressed").as_int(), 1);

  // SARIF still lists lint.reduction as a *rule*; assert no *result*
  // carries it, and the run-level suppression count survives.
  const json::Value sarif = lint::to_sarif({file});
  ASSERT_TRUE(lint::sarif_shape_ok(sarif));
  const json::Value& run = ji(jf(sarif, "runs"), 0);
  for (const json::Value& result : jf(run, "results").as_array()) {
    EXPECT_NE(jf(result, "ruleId").as_string(), "lint.reduction");
  }
  EXPECT_EQ(jf(jf(run, "properties"), "suppressedFindings").as_int(), 1);
}

// ----------------------------------------------------------------- SARIF

TEST(LintSarif, RulesCoverEveryBuiltinCheck) {
  const lint::LintReport report = lint_code("int main() { return 0; }\n");
  const json::Value sarif = lint::to_sarif({{"empty.c", report}});
  std::string why;
  ASSERT_TRUE(lint::sarif_shape_ok(sarif, &why)) << why;
  EXPECT_EQ(jf(sarif, "version").as_string(), "2.1.0");
  const json::Value& driver =
      jf(jf(ji(jf(sarif, "runs"), 0), "tool"), "driver");
  EXPECT_EQ(jf(driver, "name").as_string(), "drbml-lint");
  EXPECT_EQ(jf(driver, "rules").as_array().size(),
            lint::available_checks().size());
}

TEST(LintSarif, ShapeValidatorRejectsCorruptedDocuments) {
  const lint::LintReport report =
      lint_entry("DRB047-sumnoreduction-orig-yes.c");
  json::Value sarif = lint::to_sarif({{"race.c", report}});
  ASSERT_TRUE(lint::sarif_shape_ok(sarif));

  json::Value bad = json::parse(sarif.dump());
  json::Value* runs = bad.as_object().find("runs");
  ASSERT_NE(runs, nullptr);
  json::Value* results = runs->as_array()[0].as_object().find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_FALSE(results->as_array().empty());
  results->as_array()[0].as_object().set("level", json::Value("fatal"));
  std::string why;
  EXPECT_FALSE(lint::sarif_shape_ok(bad, &why));
  EXPECT_FALSE(why.empty());
}

/// Acceptance criterion: on a known-race corpus entry the SARIF race
/// result's location must line up with the DRB-ML ground-truth label.
TEST(LintSarif, RaceResultLocationMatchesDatasetLabel) {
  const dataset::Entry* entry = nullptr;
  for (const auto& e : dataset::dataset()) {
    if (e.name == "DRB047-sumnoreduction-orig-yes.c") entry = &e;
  }
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->var_pairs.empty());
  const int writer_line = entry->var_pairs.front().line[0];

  const lint::LintReport report = lint_code(entry->drb_code);
  const json::Value sarif = lint::to_sarif({{entry->name, report}});
  std::string why;
  ASSERT_TRUE(lint::sarif_shape_ok(sarif, &why)) << why;

  bool matched = false;
  const json::Value& results = jf(ji(jf(sarif, "runs"), 0), "results");
  for (const json::Value& r : results.as_array()) {
    if (jf(r, "ruleId").as_string() != "lint.race") continue;
    const json::Value& region =
        jf(jf(ji(jf(r, "locations"), 0), "physicalLocation"), "region");
    matched = matched ||
              static_cast<int>(jf(region, "startLine").as_int()) == writer_line;
  }
  EXPECT_TRUE(matched) << "no lint.race result at label line " << writer_line;
}

// ---------------------------------------------------------- differential

TEST(LintDifferential, WholeCorpusLintsAndEmitsValidSarif) {
  std::vector<lint::LintReport> reports;
  for (const auto& entry : drb::corpus()) {
    ASSERT_NO_THROW(reports.push_back(lint_code(drb::drb_code(entry))))
        << entry.name;
  }
  std::vector<lint::FileLint> files;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    files.push_back({drb::corpus()[i].name, reports[i]});
  }
  ASSERT_FALSE(files.empty());
  std::string why;
  EXPECT_TRUE(lint::sarif_shape_ok(lint::to_sarif(files), &why)) << why;
}

TEST(LintDifferential, SynthKernelsLintAndEmitValidSarif) {
  drb::SynthConfig config;
  config.count = 200;
  config.seed = 7;
  const std::vector<drb::SynthEntry> kernels = drb::synthesize(config);
  std::vector<lint::LintReport> reports;
  for (const auto& kernel : kernels) {
    ASSERT_NO_THROW(reports.push_back(lint_code(kernel.code))) << kernel.name;
  }
  std::vector<lint::FileLint> files;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    files.push_back({kernels[i].name, reports[i]});
  }
  ASSERT_EQ(files.size(), 200u);
  std::string why;
  EXPECT_TRUE(lint::sarif_shape_ok(lint::to_sarif(files), &why)) << why;
}

// ------------------------------------------------------- detector facade

TEST(LintDetector, SurfacesDiagnosticsInVerdict) {
  const auto detector = core::make_detector("lint");
  const drb::CorpusEntry* entry =
      drb::find_entry("DRB047-sumnoreduction-orig-yes.c");
  ASSERT_NE(entry, nullptr);
  const core::RaceVerdict v = detector->analyze(drb::drb_code(*entry));
  EXPECT_TRUE(v.report.race_detected);
  EXPECT_FALSE(v.report.pairs.empty());
  bool saw_reduction = false;
  for (const auto& line : v.report.diagnostics) {
    saw_reduction =
        saw_reduction || line.find("lint.reduction") != std::string::npos;
  }
  EXPECT_TRUE(saw_reduction);
}

TEST(LintDetector, BatchMatchesSerialAtAnyJobCount) {
  std::vector<std::string> sources;
  for (const auto& e : dataset::dataset()) {
    sources.push_back(e.trimmed_code);
    if (sources.size() == 32) break;
  }
  const auto detector = core::make_detector("lint");
  const auto analyze = [&](const std::string& code) {
    return detector->analyze(code);
  };
  const auto serial = support::parallel_map(1, sources, analyze);
  const auto pooled = support::parallel_map(4, sources, analyze);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].report.race_detected, pooled[i].report.race_detected)
        << i;
    EXPECT_EQ(serial[i].report.pairs, pooled[i].report.pairs) << i;
    EXPECT_EQ(serial[i].report.diagnostics, pooled[i].report.diagnostics)
        << i;
  }
}

// -------------------------------------------------------- eval plumbing

TEST(LintEval, LintToolAndVaridRowsAreDeterministicAcrossJobs) {
  std::vector<const dataset::Entry*> subset;
  for (const auto& e : dataset::dataset()) {
    subset.push_back(&e);
    if (subset.size() == 24) break;
  }
  eval::ExperimentOptions serial;
  serial.jobs = 1;
  eval::ExperimentOptions pooled;
  pooled.jobs = 4;

  const eval::ConfusionMatrix tool1 = eval::run_lint_tool(subset, serial);
  const eval::ConfusionMatrix tool4 = eval::run_lint_tool(subset, pooled);
  EXPECT_EQ(tool1.total(), 24);
  EXPECT_EQ(tool1.tp, tool4.tp);
  EXPECT_EQ(tool1.fp, tool4.fp);
  EXPECT_EQ(tool1.tn, tool4.tn);
  EXPECT_EQ(tool1.fn, tool4.fn);
  // The early corpus is dominated by true races the static pipeline sees.
  EXPECT_GT(tool1.tp, 0);

  const eval::ConfusionMatrix var1 = eval::run_lint_varid(subset, serial);
  const eval::ConfusionMatrix var4 = eval::run_lint_varid(subset, pooled);
  EXPECT_EQ(var1.total(), 24);
  EXPECT_EQ(var1.tp, var4.tp);
  EXPECT_EQ(var1.fp, var4.fp);
  EXPECT_EQ(var1.tn, var4.tn);
  EXPECT_EQ(var1.fn, var4.fn);
}

}  // namespace
}  // namespace drbml
