// The static span/metric catalog: every Span name and every metric the
// system can emit is declared here, once, as a shared descriptor.
//
// Call sites hold references to these descriptors (registration is by
// descriptor identity, not by string), and tools/gen_obs_docs renders the
// same descriptors into docs/OBSERVABILITY.md -- so the documented
// catalog is definitionally in sync with the code. Adding a metric means
// adding a descriptor here; the doc gate (`gen_obs_docs --check` in
// scripts/check.sh) fails until the generated sections are refreshed.
#pragma once

#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace drbml::obs {

// ------------------------------------------------------------- span descs

// Pipeline stages (drbml stats, bench_pipeline-equivalent units).
extern const SpanDesc kSpanStageDataset;
extern const SpanDesc kSpanStageTokens;
extern const SpanDesc kSpanStageStatic;
extern const SpanDesc kSpanStageDynamic;
extern const SpanDesc kSpanStageLint;
extern const SpanDesc kSpanStageRepair;
extern const SpanDesc kSpanStageExplore;

// Artifact-cache compute scopes (run inside OnceMap, exactly once per key).
extern const SpanDesc kSpanArtifactTokens;
extern const SpanDesc kSpanArtifactAst;
extern const SpanDesc kSpanArtifactDepgraph;
extern const SpanDesc kSpanArtifactStatic;
extern const SpanDesc kSpanArtifactDynamic;
extern const SpanDesc kSpanArtifactLint;
extern const SpanDesc kSpanArtifactRepair;
extern const SpanDesc kSpanArtifactLintText;
extern const SpanDesc kSpanArtifactEvidenceText;
extern const SpanDesc kSpanArtifactExplore;

// Runtime / lint / repair scopes.
extern const SpanDesc kSpanInterpReplay;
extern const SpanDesc kSpanLintRun;
extern const SpanDesc kSpanRepairEntry;
extern const SpanDesc kSpanRepairVerify;

// Schedule-exploration engine.
extern const SpanDesc kSpanExploreEntry;
extern const SpanDesc kSpanExploreSchedule;
extern const SpanDesc kSpanExploreMinimize;

// Bytecode VM (compile once, execute many schedules).
extern const SpanDesc kSpanVmCompile;

// Experiment runners (detail carries the table name).
extern const SpanDesc kSpanExpRun;

// Serve daemon (detail carries the request id).
extern const SpanDesc kSpanServeRequest;
extern const SpanDesc kSpanServeDrain;

// --------------------------------------------------------- metric descs

// Probe/compute counter pair per artifact-cache kind. Hits are derived,
// not stored: hits == probe - compute (OnceMap computes each key at most
// once per successful compute).
extern const MetricDesc kCacheTokensProbe, kCacheTokensCompute;
extern const MetricDesc kCacheAstProbe, kCacheAstCompute;
extern const MetricDesc kCacheDepgraphProbe, kCacheDepgraphCompute;
extern const MetricDesc kCacheStaticProbe, kCacheStaticCompute;
extern const MetricDesc kCacheDynamicProbe, kCacheDynamicCompute;
extern const MetricDesc kCacheLintProbe, kCacheLintCompute;
extern const MetricDesc kCacheRepairProbe, kCacheRepairCompute;
extern const MetricDesc kCacheLintTextProbe, kCacheLintTextCompute;
extern const MetricDesc kCacheEvidenceTextProbe, kCacheEvidenceTextCompute;
extern const MetricDesc kCacheExploreProbe, kCacheExploreCompute;

// Snapshot persistence (satellite fix: corrupt files are counted, not
// silently swallowed).
extern const MetricDesc kCacheCorrupt;
extern const MetricDesc kCacheSnapshotLoaded;
extern const MetricDesc kCacheSnapshotSaved;

// LRU byte budget (--cache-budget / DRBML_CACHE_BUDGET). Unstable:
// eviction order depends on cross-thread probe timing.
extern const MetricDesc kCacheEvictCount;
extern const MetricDesc kCacheEvictBytes;
extern const MetricDesc kCacheReclaimed;

// Serve daemon (drbml serve). All unstable: request arrival, queueing,
// and latency are timing-dependent by nature.
extern const MetricDesc kServeRequests;
extern const MetricDesc kServeResponsesOk;
extern const MetricDesc kServeResponsesError;
extern const MetricDesc kServeRejectedQueueFull;
extern const MetricDesc kServeRejectedDeadline;
extern const MetricDesc kServeRejectedMalformed;
extern const MetricDesc kServeVerbAnalyze;
extern const MetricDesc kServeVerbLint;
extern const MetricDesc kServeVerbFix;
extern const MetricDesc kServeVerbExplore;
extern const MetricDesc kServeVerbStats;
extern const MetricDesc kServeQueueDepth;       // histogram, sampled at admit
extern const MetricDesc kServeRequestLatency;   // histogram, admit -> respond
extern const MetricDesc kServeDrains;

// Linter.
extern const MetricDesc kLintRuns;
extern const MetricDesc kLintSuppressed;
extern const MetricDesc kLintDiagRace;
extern const MetricDesc kLintDiagDatashare;
extern const MetricDesc kLintDiagReduction;
extern const MetricDesc kLintDiagLock;
extern const MetricDesc kLintDiagBarrier;
extern const MetricDesc kLintDiagAtomic;

// Repair verify loop.
extern const MetricDesc kRepairCandidates;
extern const MetricDesc kRepairAccepted;
extern const MetricDesc kRepairNoCandidate;
extern const MetricDesc kRepairRejectedStatic;
extern const MetricDesc kRepairRejectedFault;
extern const MetricDesc kRepairRejectedDynamic;
extern const MetricDesc kRepairRejectedNondet;
extern const MetricDesc kRepairRejectedOutput;
extern const MetricDesc kRepairRejectedError;
extern const MetricDesc kRepairRejectedExplore;

// Runtime (interpreter + scheduler).
extern const MetricDesc kInterpReplays;
extern const MetricDesc kInterpFaults;
extern const MetricDesc kInterpRaces;
extern const MetricDesc kSchedSteps;
extern const MetricDesc kSchedStepsPerReplay;  // histogram

// Bytecode VM: compilation volume, runs and serial-prefix restores.
extern const MetricDesc kVmModules;
extern const MetricDesc kVmChunks;
extern const MetricDesc kVmInstructions;
extern const MetricDesc kVmRuns;
extern const MetricDesc kVmVerifyFailures;
extern const MetricDesc kVmPrefixRestores;
extern const MetricDesc kVmPrefixStepsReused;

// Static analyzer precision layer: candidate pairs examined and pairs
// proven race-free, keyed by the discharging rule family.
extern const MetricDesc kAnalysisCandidatePairs;
extern const MetricDesc kAnalysisDischargedSerial;
extern const MetricDesc kAnalysisDischargedPhase;
extern const MetricDesc kAnalysisDischargedMhp;
extern const MetricDesc kAnalysisDischargedLockset;
extern const MetricDesc kAnalysisDischargedDepend;

// Schedule-exploration engine (drbml stats: schedules run, coverage
// gained per schedule, schedules to first race).
extern const MetricDesc kExploreSchedules;
extern const MetricDesc kExploreSchedulesRepeated;
extern const MetricDesc kExploreRaces;
extern const MetricDesc kExploreCoverageNew;
extern const MetricDesc kExplorePlateauStops;
extern const MetricDesc kExploreMinimizeReplays;
extern const MetricDesc kExploreWitnesses;
extern const MetricDesc kExploreSchedulesToFirstRace;  // histogram

// Per-stage wall/cpu timers (always unstable; fed by stage spans).
extern const MetricDesc kStageDatasetTime;
extern const MetricDesc kStageTokensTime;
extern const MetricDesc kStageStaticTime;
extern const MetricDesc kStageDynamicTime;
extern const MetricDesc kStageLintTime;
extern const MetricDesc kStageRepairTime;
extern const MetricDesc kStageExploreTime;

// ------------------------------------------------------------- catalogs

/// Every metric descriptor, in declaration order (the registry sorts by
/// name for snapshots). MetricsRegistry pre-registers this set.
[[nodiscard]] const std::vector<const MetricDesc*>& metric_catalog();

/// Every span descriptor, in declaration order.
[[nodiscard]] const std::vector<const SpanDesc*>& span_catalog();

/// Markdown tables rendered from the catalogs -- the generated sections
/// of docs/OBSERVABILITY.md (tools/gen_obs_docs writes/checks them).
[[nodiscard]] std::string render_span_catalog_md();
[[nodiscard]] std::string render_metric_catalog_md();

}  // namespace drbml::obs
