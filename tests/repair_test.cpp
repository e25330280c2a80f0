// The race repair subsystem: patch engine round-trips, candidate
// ranking, the verified fix loop's acceptance gates, annotation
// remapping, and the memoized batch fan-out (parallel_map over the
// artifact cache / Table 7).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/race.hpp"
#include "dataset/drbml.hpp"
#include "drb/corpus.hpp"
#include "eval/artifact_cache.hpp"
#include "eval/experiments.hpp"
#include "lint/lint.hpp"
#include "minic/parser.hpp"
#include "repair/repair.hpp"
#include "support/parallel.hpp"

namespace drbml::repair {
namespace {

// A scalar accumulation race: the canonical missing-reduction kernel.
const char* kReductionKernel = R"(#include <stdio.h>
int main()
{
  int i;
  int sum = 0;
#pragma omp parallel for
  for (i = 0; i < 100; i++) {
    sum = sum + i;
  }
  printf("sum=%d\n", sum);
  return 0;
})";

const char* kNoRaceKernel = R"(#include <stdio.h>
int main()
{
  int i;
  int a[100];
#pragma omp parallel for
  for (i = 0; i < 100; i++) {
    a[i] = i * 2;
  }
  printf("a[10]=%d\n", a[10]);
  return 0;
})";

Patch add_clause_patch(minic::SourceLoc anchor, minic::OmpClauseKind kind,
                       const std::string& var, const std::string& arg = "") {
  Patch p;
  p.id = "test-patch";
  Edit e;
  e.kind = EditKind::AddClause;
  e.anchor = anchor;
  e.clause_kind = kind;
  e.clause_vars = {var};
  e.clause_arg = arg;
  p.edits.push_back(e);
  return p;
}

minic::SourceLoc directive_loc(const std::string& source) {
  minic::Program prog = minic::parse_program(source);
  minic::SourceLoc loc;
  analysis::RaceReport races =
      analysis::StaticRaceDetector().analyze_source(source);
  // The pragma's trimmed loc via the race evidence's enclosing region.
  auto chain = stmt_chain_at(*prog.unit, races.pairs.at(0).first.loc);
  auto* region = enclosing_region(chain);
  EXPECT_NE(region, nullptr);
  return region->directive.loc;
}

TEST(PatchEngine, ClauseEditPreservesCommentsAndLayout) {
  const std::string source = R"(// leading comment stays
#include <stdio.h>
int main()
{
  int i;
  int sum = 0;
#pragma omp parallel for // trailing comment stays
  for (i = 0; i < 100; i++) {
    sum = sum + i;  // body comment stays
  }
  printf("sum=%d\n", sum);
  return 0;
})";
  const Patch p = add_clause_patch(
      directive_loc(source), minic::OmpClauseKind::Reduction, "sum", "+");
  const ApplyResult r = apply_patch(source, p);
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_NE(r.patched.find("// leading comment stays"), std::string::npos);
  EXPECT_NE(r.patched.find("// body comment stays"), std::string::npos);
  EXPECT_NE(r.patched.find(
                "#pragma omp parallel for reduction(+:sum) "
                "// trailing comment stays"),
            std::string::npos);
  // No line was added or removed: clause edits rewrite in place.
  EXPECT_EQ(r.line_map.to_patched_original(11), 11);
}

TEST(PatchEngine, SuppressCommentStaysAdjacentThroughWrap) {
  const std::string source = R"(int main()
{
  int x = 0;
#pragma omp parallel
  {
    // drbml-lint-suppress(atomic-plus-plain)
    x = x + 1;
  }
  return 0;
})";
  Patch p;
  p.id = "wrap";
  Edit e;
  e.kind = EditKind::WrapStmt;
  e.directive_kind = minic::OmpDirectiveKind::Atomic;
  // The x = x + 1 statement: trimmed line 6 (suppress comment dropped).
  e.anchor = {6, 5};
  p.edits.push_back(e);
  const ApplyResult r = apply_patch(source, p);
  ASSERT_TRUE(r.ok) << r.message;
  // The pragma lands *above* the suppress comment, keeping the comment
  // immediately before the statement it covers.
  const std::size_t pragma_pos = r.patched.find("#pragma omp atomic");
  const std::size_t suppress_pos = r.patched.find("drbml-lint-suppress");
  const std::size_t stmt_pos = r.patched.find("x = x + 1;");
  ASSERT_NE(pragma_pos, std::string::npos);
  EXPECT_LT(pragma_pos, suppress_pos);
  EXPECT_LT(suppress_pos, stmt_pos);
}

TEST(PatchEngine, WrapSplitsOneLinerBlocks) {
  const std::string source = R"(int main()
{
  int x = 0;
#pragma omp parallel
  {
#pragma omp critical (a)
    { x = x + 1; }
  }
  return 0;
})";
  Patch p;
  p.id = "wrap";
  Edit e;
  e.kind = EditKind::WrapStmt;
  e.directive_kind = minic::OmpDirectiveKind::Atomic;
  e.anchor = {7, 7};  // the x = x + 1 statement inside the one-liner block
  p.edits.push_back(e);
  const ApplyResult r = apply_patch(source, p);
  ASSERT_TRUE(r.ok) << r.message;
  // The one-liner block was split so the atomic binds to the assignment,
  // not to the enclosing block.
  EXPECT_NE(r.patched.find("#pragma omp atomic\n    x = x + 1; }"),
            std::string::npos)
      << r.patched;
}

TEST(PatchEngine, LineMapTracksInsertions) {
  const Patch p = add_clause_patch(
      directive_loc(kReductionKernel), minic::OmpClauseKind::Private, "sum");
  ApplyResult r = apply_patch(kReductionKernel, p);
  ASSERT_TRUE(r.ok) << r.message;

  Patch wrap;
  wrap.id = "wrap";
  Edit e;
  e.kind = EditKind::WrapStmt;
  e.directive_kind = minic::OmpDirectiveKind::Critical;
  e.anchor = {8, 5};  // sum = sum + i;
  wrap.edits.push_back(e);
  r = apply_patch(kReductionKernel, wrap);
  ASSERT_TRUE(r.ok) << r.message;
  // One pragma line inserted before original line 8: lines at or after
  // shift by one, lines before stay put.
  EXPECT_EQ(r.line_map.to_patched_original(7), 7);
  EXPECT_EQ(r.line_map.to_patched_original(8), 9);
  EXPECT_EQ(r.line_map.to_patched_original(10), 11);
  EXPECT_EQ(r.line_map.to_patched_trimmed(7), 7);
  EXPECT_EQ(r.line_map.to_patched_trimmed(8), 9);
}

TEST(Candidates, RankingIsDeterministic) {
  minic::Program prog1 = minic::parse_program(kReductionKernel);
  minic::Program prog2 = minic::parse_program(kReductionKernel);
  const analysis::RaceReport races =
      analysis::StaticRaceDetector().analyze_source(kReductionKernel);
  const lint::LintReport lint = lint::lint_source(kReductionKernel);
  const std::vector<Patch> a =
      generate_candidates(prog1, races, &lint, Strategy::Auto);
  const std::vector<Patch> b =
      generate_candidates(prog2, races, &lint, Strategy::Auto);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].cost, b[i].cost);
  }
  // Ranked by cost, cheapest first; the inferred reduction leads.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].cost, a[i].cost);
  }
  EXPECT_EQ(a.front().id.rfind("reduction(+:sum)", 0), 0u) << a.front().id;
}

TEST(Candidates, StrategyNamesRoundTrip) {
  for (Strategy s : {Strategy::Auto, Strategy::Lint, Strategy::Sync,
                     Strategy::Serialize}) {
    const auto parsed = parse_strategy(strategy_name(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_strategy("nonsense").has_value());
}

// The satellite contract: a patch that silences the static detector but
// destroys the program's semantics must NOT be accepted. Privatizing the
// accumulator removes the shared-access conflict (static says race-free)
// but changes the answer -- the output-equivalence gate has to catch it.
TEST(VerifiedFixLoop, RejectsDetectorSilencingSemanticsBreakingPatch) {
  const Patch p = add_clause_patch(
      directive_loc(kReductionKernel), minic::OmpClauseKind::Private, "sum");
  const ApplyResult applied = apply_patch(kReductionKernel, p);
  ASSERT_TRUE(applied.ok) << applied.message;

  // The patch really does silence the static detector...
  EXPECT_FALSE(analysis::StaticRaceDetector()
                   .analyze_source(applied.patched)
                   .race_detected);
  // ...and the verification gates still reject it.
  const VerifyOutcome v = verify_candidate(kReductionKernel, applied.patched);
  EXPECT_FALSE(v.accepted);
  EXPECT_FALSE(v.reason.empty());
}

TEST(VerifiedFixLoop, FixesMissingReduction) {
  const RepairResult r = repair_source(kReductionKernel);
  ASSERT_EQ(r.status, RepairStatus::Fixed) << r.message;
  EXPECT_EQ(r.patch_id.rfind("reduction(+:sum)", 0), 0u) << r.patch_id;
  EXPECT_TRUE(r.equivalence_checked);
  EXPECT_GE(r.attempts, 1);
  EXPECT_FALSE(analysis::StaticRaceDetector()
                   .analyze_source(r.patched)
                   .race_detected);
}

TEST(VerifiedFixLoop, NoRaceInputReturnsByteIdenticalSource) {
  const RepairResult r = repair_source(kNoRaceKernel);
  EXPECT_EQ(r.status, RepairStatus::NoRaceDetected);
  EXPECT_EQ(r.patched, kNoRaceKernel);
}

TEST(VerifiedFixLoop, RemapsDrbAnnotationsThroughInsertions) {
  const drb::CorpusEntry* e = drb::find_entry("DRB001-antidep1-orig-yes.c");
  ASSERT_NE(e, nullptr);
  const std::string code = drb::drb_code(*e);
  const RepairResult r = repair_source(code);
  ASSERT_EQ(r.status, RepairStatus::Fixed) << r.message;

  // Every annotation line in the patched header still parses, and its
  // line numbers track the patch's insertions.
  int annotations = 0;
  std::size_t start = 0;
  while (start < r.patched.size()) {
    std::size_t nl = r.patched.find('\n', start);
    if (nl == std::string::npos) nl = r.patched.size();
    const std::string line = r.patched.substr(start, nl - start);
    start = nl + 1;
    dataset::RawAnnotation ann;
    if (!dataset::parse_annotation(line, ann)) continue;
    ++annotations;
  }
  EXPECT_GT(annotations, 0);
  for (const auto& pair : e->pairs) {
    // The original annotation lines exist in drb_code's header; the
    // patched header must carry them remapped.
    (void)pair;
  }
  // Concretely: the original pair line moved by the pragma insertion.
  dataset::RawAnnotation before;
  dataset::RawAnnotation after;
  bool got_before = false;
  bool got_after = false;
  for (const std::string* src : {&code, &r.patched}) {
    std::size_t pos = src->find("Data race pair:");
    ASSERT_NE(pos, std::string::npos);
    std::size_t eol = src->find('\n', pos);
    const std::string line = src->substr(pos, eol - pos);
    if (src == &code) {
      got_before = dataset::parse_annotation(line, before);
    } else {
      got_after = dataset::parse_annotation(line, after);
    }
  }
  ASSERT_TRUE(got_before);
  ASSERT_TRUE(got_after);
  EXPECT_EQ(after.var0_line, r.line_map.to_patched_original(before.var0_line));
  EXPECT_EQ(after.var1_line, r.line_map.to_patched_original(before.var1_line));
}

TEST(RepairCache, BatchIsDeterministicAcrossJobCounts) {
  std::vector<std::string> sources;
  int taken = 0;
  for (const auto& e : drb::corpus()) {
    if (!e.race) continue;
    sources.push_back(drb::drb_code(e));
    if (++taken == 12) break;
  }

  const auto fix = [](const std::string& code) {
    return eval::artifact_cache().repair_result(code, Strategy::Auto);
  };
  eval::artifact_cache().clear();
  const std::vector<RepairResult> cold = support::parallel_map(1, sources, fix);
  eval::artifact_cache().clear();
  const std::vector<RepairResult> warm = support::parallel_map(4, sources, fix);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], warm[i]) << sources[i];
  }
}

TEST(Table7, RowsReproducibleBitIdenticallyAcrossJobCounts) {
  eval::ExperimentOptions serial;
  serial.jobs = 1;
  eval::ExperimentOptions parallel;
  parallel.jobs = 4;
  eval::artifact_cache().clear();
  const std::vector<eval::RepairRow> a = eval::table7_rows(serial);
  eval::artifact_cache().clear();
  const std::vector<eval::RepairRow> b = eval::table7_rows(parallel);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].entries, b[i].entries);
    EXPECT_EQ(a[i].fixed, b[i].fixed);
    EXPECT_EQ(a[i].verified, b[i].verified);
    EXPECT_EQ(a[i].no_candidate, b[i].no_candidate);
    EXPECT_EQ(a[i].rejected, b[i].rejected);
    EXPECT_EQ(a[i].errors, b[i].errors);
    EXPECT_EQ(a[i].attempts_on_fixed, b[i].attempts_on_fixed);
  }
  // The acceptance bar scripts/check.sh enforces: >= 60% of race-labeled
  // corpus entries gain a verified fix.
  const eval::RepairRow& total = a.back();
  EXPECT_EQ(total.family, "(all)");
  EXPECT_GE(total.fix_rate(), 0.60);
}

}  // namespace
}  // namespace drbml::repair
