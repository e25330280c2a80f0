#include "obs/catalog.hpp"

namespace drbml::obs {

// ------------------------------------------------------------- span descs

const SpanDesc kSpanStageDataset{
    "stage.dataset", "stage",
    "Corpus render + DRB-ML dataset construction for one run."};
const SpanDesc kSpanStageTokens{
    "stage.tokens", "stage",
    "Token-length filtering of all dataset entries (Section 3.2)."};
const SpanDesc kSpanStageStatic{
    "stage.static", "stage",
    "Static dependence-based race analysis over the corpus."};
const SpanDesc kSpanStageDynamic{
    "stage.dynamic", "stage",
    "Dynamic vector-clock detection (all schedule seeds) over the corpus."};
const SpanDesc kSpanStageLint{
    "stage.lint", "stage", "OpenMP correctness linter over the corpus."};
const SpanDesc kSpanStageRepair{
    "stage.repair", "stage",
    "Verified race repair over the racy subset of the corpus."};
const SpanDesc kSpanStageExplore{
    "stage.explore", "stage",
    "PCT schedule exploration over the racy subset of the corpus."};

const SpanDesc kSpanArtifactTokens{
    "artifact.tokens", "artifact",
    "Cache-miss compute of a token count (code tokenizer)."};
const SpanDesc kSpanArtifactAst{
    "artifact.ast", "artifact",
    "Cache-miss compute of a canonical AST rendering."};
const SpanDesc kSpanArtifactDepgraph{
    "artifact.depgraph", "artifact",
    "Cache-miss compute of a dependence-graph rendering."};
const SpanDesc kSpanArtifactStatic{
    "artifact.static", "artifact",
    "Cache-miss compute of a static race report."};
const SpanDesc kSpanArtifactDynamic{
    "artifact.dynamic", "artifact",
    "Cache-miss compute of a dynamic race report (all seeds)."};
const SpanDesc kSpanArtifactLint{
    "artifact.lint", "artifact", "Cache-miss compute of a lint report."};
const SpanDesc kSpanArtifactRepair{
    "artifact.repair", "artifact",
    "Cache-miss compute of a verified repair result."};
const SpanDesc kSpanArtifactLintText{
    "artifact.lint_text", "artifact",
    "Cache-miss compute of a rendered lint-findings text (prompt modality)."};
const SpanDesc kSpanArtifactEvidenceText{
    "artifact.evidence_text", "artifact",
    "Cache-miss compute of a rendered evidence-chain text (prompt "
    "modality)."};
const SpanDesc kSpanArtifactExplore{
    "artifact.explore", "artifact",
    "Cache-miss compute of a schedule-exploration result."};

const SpanDesc kSpanInterpReplay{
    "interp.replay", "runtime",
    "One deterministic schedule replay (detail: seed)."};
const SpanDesc kSpanLintRun{
    "lint.run", "lint", "One linter pass-manager run over one source."};
const SpanDesc kSpanRepairEntry{
    "repair.entry", "repair",
    "repair_source: candidate generation + verify loop for one source."};
const SpanDesc kSpanRepairVerify{
    "repair.verify", "repair",
    "One candidate through the three verification gates."};

const SpanDesc kSpanExploreEntry{
    "explore.entry", "explore",
    "explore_source: the full schedule-exploration loop for one source "
    "(detail: strategy)."};
const SpanDesc kSpanExploreSchedule{
    "explore.schedule", "explore",
    "One explored schedule (detail: schedule index)."};
const SpanDesc kSpanExploreMinimize{
    "explore.minimize", "explore",
    "Delta-debugging a racy schedule trace to a minimal witness."};

const SpanDesc kSpanVmCompile{
    "vm.compile", "runtime",
    "Lowering one resolved translation unit to a bytecode module."};

const SpanDesc kSpanExpRun{
    "exp.run", "eval",
    "One experiment runner (detail: table/figure name)."};

const SpanDesc kSpanServeRequest{
    "serve.request", "serve",
    "One admitted serve request from dequeue to response (detail: "
    "request id)."};
const SpanDesc kSpanServeDrain{
    "serve.drain", "serve",
    "Graceful-shutdown drain: close admission, finish in-flight work, "
    "flush metrics/trace/cache snapshot."};

// --------------------------------------------------------- metric descs

namespace {
constexpr bool kStable = true;
constexpr bool kUnstable = false;
}  // namespace

const MetricDesc kCacheTokensProbe{
    "cache.tokens.probe", MetricKind::Counter, "count", kStable,
    "Token-count cache lookups (hits = probe - compute)."};
const MetricDesc kCacheTokensCompute{
    "cache.tokens.compute", MetricKind::Counter, "count", kStable,
    "Token counts computed on a cache miss."};
const MetricDesc kCacheAstProbe{
    "cache.ast.probe", MetricKind::Counter, "count", kStable,
    "AST-text cache lookups."};
const MetricDesc kCacheAstCompute{
    "cache.ast.compute", MetricKind::Counter, "count", kStable,
    "AST texts computed on a cache miss."};
const MetricDesc kCacheDepgraphProbe{
    "cache.depgraph.probe", MetricKind::Counter, "count", kStable,
    "Dependence-graph-text cache lookups."};
const MetricDesc kCacheDepgraphCompute{
    "cache.depgraph.compute", MetricKind::Counter, "count", kStable,
    "Dependence-graph texts computed on a cache miss."};
const MetricDesc kCacheStaticProbe{
    "cache.static.probe", MetricKind::Counter, "count", kStable,
    "Static-report cache lookups (keyed by source + options hash)."};
const MetricDesc kCacheStaticCompute{
    "cache.static.compute", MetricKind::Counter, "count", kStable,
    "Static reports computed on a cache miss."};
const MetricDesc kCacheDynamicProbe{
    "cache.dynamic.probe", MetricKind::Counter, "count", kStable,
    "Dynamic-report cache lookups (keyed by source + options hash)."};
const MetricDesc kCacheDynamicCompute{
    "cache.dynamic.compute", MetricKind::Counter, "count", kStable,
    "Dynamic reports computed on a cache miss."};
const MetricDesc kCacheLintProbe{
    "cache.lint.probe", MetricKind::Counter, "count", kStable,
    "Lint-report cache lookups."};
const MetricDesc kCacheLintCompute{
    "cache.lint.compute", MetricKind::Counter, "count", kStable,
    "Lint reports computed on a cache miss."};
const MetricDesc kCacheRepairProbe{
    "cache.repair.probe", MetricKind::Counter, "count", kStable,
    "Repair-result cache lookups (keyed by source + options hash)."};
const MetricDesc kCacheRepairCompute{
    "cache.repair.compute", MetricKind::Counter, "count", kStable,
    "Repair results computed on a cache miss."};
const MetricDesc kCacheLintTextProbe{
    "cache.lint_text.probe", MetricKind::Counter, "count", kStable,
    "Lint-findings-text cache lookups (lint prompt modality)."};
const MetricDesc kCacheLintTextCompute{
    "cache.lint_text.compute", MetricKind::Counter, "count", kStable,
    "Lint-findings texts computed on a cache miss."};
const MetricDesc kCacheEvidenceTextProbe{
    "cache.evidence_text.probe", MetricKind::Counter, "count", kStable,
    "Evidence-chain-text cache lookups (evidence prompt modality)."};
const MetricDesc kCacheEvidenceTextCompute{
    "cache.evidence_text.compute", MetricKind::Counter, "count", kStable,
    "Evidence-chain texts computed on a cache miss."};
const MetricDesc kCacheExploreProbe{
    "cache.explore.probe", MetricKind::Counter, "count", kStable,
    "Exploration-result cache lookups (keyed by source + options hash)."};
const MetricDesc kCacheExploreCompute{
    "cache.explore.compute", MetricKind::Counter, "count", kStable,
    "Exploration results computed on a cache miss."};

const MetricDesc kCacheCorrupt{
    "cache.corrupt", MetricKind::Counter, "count", kStable,
    "Cache snapshot files rejected as unreadable or corrupt (each is "
    "treated as a miss; this counter is the structured warning)."};
const MetricDesc kCacheSnapshotLoaded{
    "cache.snapshot.loaded", MetricKind::Counter, "count", kStable,
    "Entries seeded from a cache snapshot file."};
const MetricDesc kCacheSnapshotSaved{
    "cache.snapshot.saved", MetricKind::Counter, "count", kStable,
    "Entries written to a cache snapshot file."};

const MetricDesc kCacheEvictCount{
    "cache.evict.count", MetricKind::Counter, "count", kUnstable,
    "Artifact-cache entries evicted by the LRU byte budget (later probes "
    "for them recompute)."};
const MetricDesc kCacheEvictBytes{
    "cache.evict.bytes", MetricKind::Counter, "bytes", kUnstable,
    "Approximate bytes released from residency by LRU eviction."};
const MetricDesc kCacheReclaimed{
    "cache.reclaimed", MetricKind::Counter, "count", kUnstable,
    "Evicted entries whose storage was actually freed once no in-flight "
    "request could still reference them."};

const MetricDesc kServeRequests{
    "serve.requests", MetricKind::Counter, "count", kUnstable,
    "Requests read off the serve transport (including ones later "
    "rejected)."};
const MetricDesc kServeResponsesOk{
    "serve.responses.ok", MetricKind::Counter, "count", kUnstable,
    "Responses written with ok=true."};
const MetricDesc kServeResponsesError{
    "serve.responses.error", MetricKind::Counter, "count", kUnstable,
    "Responses written with ok=false (any error kind)."};
const MetricDesc kServeRejectedQueueFull{
    "serve.rejected.queue_full", MetricKind::Counter, "count", kUnstable,
    "Requests refused at admission because the bounded queue was full "
    "(the backpressure signal)."};
const MetricDesc kServeRejectedDeadline{
    "serve.rejected.deadline", MetricKind::Counter, "count", kUnstable,
    "Admitted requests whose deadline expired while queued; answered "
    "deadline_expired instead of running."};
const MetricDesc kServeRejectedMalformed{
    "serve.rejected.malformed", MetricKind::Counter, "count", kUnstable,
    "Lines rejected as unparseable JSON or structurally invalid "
    "requests."};
const MetricDesc kServeVerbAnalyze{
    "serve.verb.analyze", MetricKind::Counter, "count", kUnstable,
    "analyze requests executed."};
const MetricDesc kServeVerbLint{
    "serve.verb.lint", MetricKind::Counter, "count", kUnstable,
    "lint requests executed."};
const MetricDesc kServeVerbFix{
    "serve.verb.fix", MetricKind::Counter, "count", kUnstable,
    "fix requests executed."};
const MetricDesc kServeVerbExplore{
    "serve.verb.explore", MetricKind::Counter, "count", kUnstable,
    "explore requests executed."};
const MetricDesc kServeVerbStats{
    "serve.verb.stats", MetricKind::Counter, "count", kUnstable,
    "stats requests executed."};
const MetricDesc kServeQueueDepth{
    "serve.queue_depth", MetricKind::Histogram, "requests", kUnstable,
    "Distribution of the task-queue depth sampled at each admission."};
const MetricDesc kServeRequestLatency{
    "serve.request.latency", MetricKind::Histogram, "us", kUnstable,
    "Distribution of request latency, admission to response written "
    "(power-of-two buckets)."};
const MetricDesc kServeDrains{
    "serve.drains", MetricKind::Counter, "count", kUnstable,
    "Graceful drains executed (signal-triggered or shutdown verb)."};

const MetricDesc kLintRuns{
    "lint.runs", MetricKind::Counter, "count", kStable,
    "Linter pass-manager runs."};
const MetricDesc kLintSuppressed{
    "lint.suppressed", MetricKind::Counter, "count", kStable,
    "Diagnostics silenced by drbml-lint-suppress comments."};
const MetricDesc kLintDiagRace{
    "lint.diag.race", MetricKind::Counter, "count", kStable,
    "Diagnostics emitted by the race-pair check."};
const MetricDesc kLintDiagDatashare{
    "lint.diag.datashare", MetricKind::Counter, "count", kStable,
    "Diagnostics emitted by the data-sharing audit."};
const MetricDesc kLintDiagReduction{
    "lint.diag.reduction", MetricKind::Counter, "count", kStable,
    "Diagnostics emitted by the reduction recognizer."};
const MetricDesc kLintDiagLock{
    "lint.diag.lock", MetricKind::Counter, "count", kStable,
    "Diagnostics emitted by the lock-discipline check."};
const MetricDesc kLintDiagBarrier{
    "lint.diag.barrier", MetricKind::Counter, "count", kStable,
    "Diagnostics emitted by the barrier/nowait check."};
const MetricDesc kLintDiagAtomic{
    "lint.diag.atomic", MetricKind::Counter, "count", kStable,
    "Diagnostics emitted by the atomic-vs-critical check."};

const MetricDesc kRepairCandidates{
    "repair.candidates", MetricKind::Counter, "count", kStable,
    "Candidate patches entering the verify loop."};
const MetricDesc kRepairAccepted{
    "repair.accepted", MetricKind::Counter, "count", kStable,
    "Candidates accepted (all three gates passed)."};
const MetricDesc kRepairNoCandidate{
    "repair.no_candidate", MetricKind::Counter, "count", kStable,
    "repair_source calls that produced no candidate patch."};
const MetricDesc kRepairRejectedStatic{
    "repair.rejected.static", MetricKind::Counter, "count", kStable,
    "Candidates rejected at gate 1: static detector still reports a race, "
    "or static analysis failed on the patched program."};
const MetricDesc kRepairRejectedFault{
    "repair.rejected.fault", MetricKind::Counter, "count", kStable,
    "Candidates rejected at gate 2: the patched program faulted."};
const MetricDesc kRepairRejectedDynamic{
    "repair.rejected.dynamic", MetricKind::Counter, "count", kStable,
    "Candidates rejected at gate 2: dynamic detector still reports a race, "
    "or dynamic verification failed."};
const MetricDesc kRepairRejectedNondet{
    "repair.rejected.nondet", MetricKind::Counter, "count", kStable,
    "Candidates rejected at gate 2: output differs across schedules."};
const MetricDesc kRepairRejectedOutput{
    "repair.rejected.output", MetricKind::Counter, "count", kStable,
    "Candidates rejected at gate 3: serial output diverges from original."};
const MetricDesc kRepairRejectedError{
    "repair.rejected.error", MetricKind::Counter, "count", kStable,
    "Candidates rejected because patch application or re-parsing failed."};
const MetricDesc kRepairRejectedExplore{
    "repair.rejected.explore", MetricKind::Counter, "count", kStable,
    "Candidates rejected at gate 4: PCT schedule exploration found a race "
    "the fixed-seed dynamic gate missed."};

const MetricDesc kInterpReplays{
    "interp.replays", MetricKind::Counter, "count", kStable,
    "Deterministic schedule replays executed."};
const MetricDesc kInterpFaults{
    "interp.faults", MetricKind::Counter, "count", kStable,
    "Replays that ended in a runtime fault."};
const MetricDesc kInterpRaces{
    "interp.races", MetricKind::Counter, "count", kStable,
    "Replays on which the vector-clock checker flagged a race."};
const MetricDesc kSchedSteps{
    "sched.steps", MetricKind::Counter, "count", kStable,
    "Cooperative-scheduler steps executed (summed over replays)."};
const MetricDesc kSchedStepsPerReplay{
    "sched.steps_per_replay", MetricKind::Histogram, "steps", kStable,
    "Distribution of scheduler steps per replay (power-of-two buckets)."};

const MetricDesc kVmModules{
    "vm.modules", MetricKind::Counter, "count", kStable,
    "Bytecode modules compiled from resolved translation units."};
const MetricDesc kVmChunks{
    "vm.chunks", MetricKind::Counter, "count", kStable,
    "Bytecode chunks emitted (function bodies, OpenMP construct bodies, "
    "worksharing and simd innermost bodies and init declarations, "
    "sections, the expressions OpenMP handlers evaluate, builtin-call "
    "arguments, globals)."};
const MetricDesc kVmInstructions{
    "vm.instructions", MetricKind::Counter, "count", kStable,
    "Bytecode instructions emitted across all chunks."};
const MetricDesc kVmRuns{
    "vm.runs", MetricKind::Counter, "count", kStable,
    "run_program invocations (each executes a verified bytecode module)."};
const MetricDesc kVmVerifyFailures{
    "vm.verify_failures", MetricKind::Counter, "count", kStable,
    "Bytecode modules rejected by the structural verifier."};
const MetricDesc kVmPrefixRestores{
    "vm.prefix_restores", MetricKind::Counter, "count", kStable,
    "Runs that resumed from a serial-prefix snapshot at main's first team "
    "fork instead of starting from main."};
const MetricDesc kVmPrefixStepsReused{
    "vm.prefix_steps_reused", MetricKind::Counter, "count", kStable,
    "Steps of restored serial prefixes: counted in those runs' "
    "RunResult::steps but not executed again."};

const MetricDesc kAnalysisCandidatePairs{
    "analysis.candidate_pairs", MetricKind::Counter, "count", kStable,
    "Conflicting-access candidate pairs examined by the static analyzer "
    "(before any discharge rule runs)."};
const MetricDesc kAnalysisDischargedSerial{
    "analysis.discharged.serial", MetricKind::Counter, "count", kStable,
    "Candidate pairs discharged because the enclosing region is "
    "statically serial (region.serial)."};
const MetricDesc kAnalysisDischargedPhase{
    "analysis.discharged.phase", MetricKind::Counter, "count", kStable,
    "Candidate pairs discharged by barrier-phase separation (mhp.phase)."};
const MetricDesc kAnalysisDischargedMhp{
    "analysis.discharged.mhp", MetricKind::Counter, "count", kStable,
    "Candidate pairs discharged by non-phase MHP ordering rules "
    "(mhp.single-instance, mhp.task-order, mhp.task-depend)."};
const MetricDesc kAnalysisDischargedLockset{
    "analysis.discharged.lockset", MetricKind::Counter, "count", kStable,
    "Candidate pairs discharged by a common guard (lockset.common)."};
const MetricDesc kAnalysisDischargedDepend{
    "analysis.discharged.depend", MetricKind::Counter, "count", kStable,
    "Candidate pairs discharged by the dependence tests (dep.gcd, "
    "dep.banerjee, dep.distance, dep.tid-disjoint)."};

const MetricDesc kExploreSchedules{
    "explore.schedules", MetricKind::Counter, "count", kStable,
    "Schedules explored by the exploration engine (run or repeated)."};
const MetricDesc kExploreSchedulesRepeated{
    "explore.schedules_repeated", MetricKind::Counter, "count", kStable,
    "Explored schedules not run because their run provably repeats an "
    "earlier schedule's (runtime::repeats_run); their outcome is the "
    "earlier run's."};
const MetricDesc kExploreRaces{
    "explore.races", MetricKind::Counter, "count", kStable,
    "Explored schedules on which a race was detected."};
const MetricDesc kExploreCoverageNew{
    "explore.coverage.new", MetricKind::Counter, "count", kStable,
    "New interleaving-coverage points discovered (divide by "
    "explore.schedules for new-coverage-per-schedule)."};
const MetricDesc kExplorePlateauStops{
    "explore.plateau_stops", MetricKind::Counter, "count", kStable,
    "Exploration loops cut short by the coverage-plateau budget."};
const MetricDesc kExploreMinimizeReplays{
    "explore.minimize.replays", MetricKind::Counter, "count", kStable,
    "Replays spent delta-debugging witnesses."};
const MetricDesc kExploreWitnesses{
    "explore.witnesses", MetricKind::Counter, "count", kStable,
    "Minimized race witnesses produced."};
const MetricDesc kExploreSchedulesToFirstRace{
    "explore.schedules_to_first_race", MetricKind::Histogram, "schedules",
    kStable,
    "Distribution of schedules run before the first race (time-to-first-"
    "race in schedule budget)."};

const MetricDesc kStageDatasetTime{
    "stage.dataset.time", MetricKind::Timer, "ns", kUnstable,
    "Wall/cpu time in the dataset-construction stage."};
const MetricDesc kStageTokensTime{
    "stage.tokens.time", MetricKind::Timer, "ns", kUnstable,
    "Wall/cpu time in the token-filter stage."};
const MetricDesc kStageStaticTime{
    "stage.static.time", MetricKind::Timer, "ns", kUnstable,
    "Wall/cpu time in the static-analysis stage."};
const MetricDesc kStageDynamicTime{
    "stage.dynamic.time", MetricKind::Timer, "ns", kUnstable,
    "Wall/cpu time in the dynamic-detection stage."};
const MetricDesc kStageLintTime{
    "stage.lint.time", MetricKind::Timer, "ns", kUnstable,
    "Wall/cpu time in the lint stage."};
const MetricDesc kStageRepairTime{
    "stage.repair.time", MetricKind::Timer, "ns", kUnstable,
    "Wall/cpu time in the repair stage."};
const MetricDesc kStageExploreTime{
    "stage.explore.time", MetricKind::Timer, "ns", kUnstable,
    "Wall/cpu time in the schedule-exploration stage."};

// ------------------------------------------------------------- catalogs

const std::vector<const MetricDesc*>& metric_catalog() {
  static const std::vector<const MetricDesc*> all = {
      &kCacheTokensProbe,    &kCacheTokensCompute,
      &kCacheAstProbe,       &kCacheAstCompute,
      &kCacheDepgraphProbe,  &kCacheDepgraphCompute,
      &kCacheStaticProbe,    &kCacheStaticCompute,
      &kCacheDynamicProbe,   &kCacheDynamicCompute,
      &kCacheLintProbe,      &kCacheLintCompute,
      &kCacheRepairProbe,    &kCacheRepairCompute,
      &kCacheLintTextProbe,  &kCacheLintTextCompute,
      &kCacheEvidenceTextProbe, &kCacheEvidenceTextCompute,
      &kCacheExploreProbe,   &kCacheExploreCompute,
      &kCacheCorrupt,        &kCacheSnapshotLoaded,
      &kCacheSnapshotSaved,
      &kCacheEvictCount,     &kCacheEvictBytes,
      &kCacheReclaimed,
      &kServeRequests,       &kServeResponsesOk,
      &kServeResponsesError, &kServeRejectedQueueFull,
      &kServeRejectedDeadline, &kServeRejectedMalformed,
      &kServeVerbAnalyze,    &kServeVerbLint,
      &kServeVerbFix,        &kServeVerbExplore,
      &kServeVerbStats,      &kServeQueueDepth,
      &kServeRequestLatency, &kServeDrains,
      &kLintRuns,            &kLintSuppressed,
      &kLintDiagRace,        &kLintDiagDatashare,
      &kLintDiagReduction,   &kLintDiagLock,
      &kLintDiagBarrier,     &kLintDiagAtomic,
      &kRepairCandidates,    &kRepairAccepted,
      &kRepairNoCandidate,   &kRepairRejectedStatic,
      &kRepairRejectedFault, &kRepairRejectedDynamic,
      &kRepairRejectedNondet, &kRepairRejectedOutput,
      &kRepairRejectedError,  &kRepairRejectedExplore,
      &kInterpReplays,       &kInterpFaults,
      &kInterpRaces,         &kSchedSteps,
      &kSchedStepsPerReplay,
      &kVmModules,           &kVmChunks,
      &kVmInstructions,      &kVmRuns,
      &kVmVerifyFailures,    &kVmPrefixRestores,
      &kVmPrefixStepsReused,
      &kAnalysisCandidatePairs, &kAnalysisDischargedSerial,
      &kAnalysisDischargedPhase, &kAnalysisDischargedMhp,
      &kAnalysisDischargedLockset, &kAnalysisDischargedDepend,
      &kExploreSchedules,    &kExploreSchedulesRepeated,
      &kExploreRaces,
      &kExploreCoverageNew,  &kExplorePlateauStops,
      &kExploreMinimizeReplays, &kExploreWitnesses,
      &kExploreSchedulesToFirstRace,
      &kStageDatasetTime,    &kStageTokensTime,
      &kStageStaticTime,     &kStageDynamicTime,
      &kStageLintTime,       &kStageRepairTime,
      &kStageExploreTime,
  };
  return all;
}

const std::vector<const SpanDesc*>& span_catalog() {
  static const std::vector<const SpanDesc*> all = {
      &kSpanStageDataset,    &kSpanStageTokens,   &kSpanStageStatic,
      &kSpanStageDynamic,    &kSpanStageLint,     &kSpanStageRepair,
      &kSpanStageExplore,
      &kSpanArtifactTokens,  &kSpanArtifactAst,   &kSpanArtifactDepgraph,
      &kSpanArtifactStatic,  &kSpanArtifactDynamic, &kSpanArtifactLint,
      &kSpanArtifactRepair,  &kSpanArtifactLintText,
      &kSpanArtifactEvidenceText, &kSpanArtifactExplore,
      &kSpanInterpReplay,    &kSpanLintRun,
      &kSpanRepairEntry,     &kSpanRepairVerify,
      &kSpanExploreEntry,    &kSpanExploreSchedule,
      &kSpanExploreMinimize,
      &kSpanVmCompile,
      &kSpanExpRun,
      &kSpanServeRequest,    &kSpanServeDrain,
  };
  return all;
}

// ---------------------------------------------------------- doc rendering

std::string render_span_catalog_md() {
  std::string out;
  out += "| Span | Category | Emitted around |\n";
  out += "|---|---|---|\n";
  for (const SpanDesc* s : span_catalog()) {
    out += "| `";
    out += s->name;
    out += "` | `";
    out += s->category;
    out += "` | ";
    out += s->help;
    out += " |\n";
  }
  return out;
}

std::string render_metric_catalog_md() {
  std::string out;
  out += "| Metric | Kind | Unit | Deterministic | Meaning |\n";
  out += "|---|---|---|---|---|\n";
  for (const MetricDesc* m : metric_catalog()) {
    out += "| `";
    out += m->name;
    out += "` | ";
    out += metric_kind_name(m->kind);
    out += " | ";
    out += m->unit;
    out += " | ";
    out += m->stable ? "yes" : "no";
    out += " | ";
    out += m->help;
    out += " |\n";
  }
  return out;
}

}  // namespace drbml::obs
