#include "analysis/mhp.hpp"

#include <algorithm>

namespace drbml::analysis {

using namespace minic;

namespace {

bool forks_team(OmpDirectiveKind k) noexcept {
  switch (k) {
    case OmpDirectiveKind::Parallel:
    case OmpDirectiveKind::ParallelFor:
    case OmpDirectiveKind::ParallelForSimd:
    case OmpDirectiveKind::ParallelSections:
    case OmpDirectiveKind::TargetParallelFor:
      return true;
    default:
      return false;
  }
}

/// Whether `s` contains a nested construct that forks its own team. A
/// serial outer region with a nested `parallel` inside is still parallel,
/// so the serial-region discharge must not apply.
bool contains_team_fork(const Stmt* s) {
  if (s == nullptr) return false;
  switch (s->kind) {
    case StmtKind::Compound: {
      for (const auto& c : static_cast<const CompoundStmt*>(s)->body) {
        if (contains_team_fork(c.get())) return true;
      }
      return false;
    }
    case StmtKind::If: {
      const auto& i = *static_cast<const IfStmt*>(s);
      return contains_team_fork(i.then_branch.get()) ||
             contains_team_fork(i.else_branch.get());
    }
    case StmtKind::For:
      return contains_team_fork(static_cast<const ForStmt*>(s)->body.get());
    case StmtKind::While:
      return contains_team_fork(static_cast<const WhileStmt*>(s)->body.get());
    case StmtKind::Do:
      return contains_team_fork(static_cast<const DoStmt*>(s)->body.get());
    case StmtKind::Omp: {
      const auto& o = *static_cast<const OmpStmt*>(s);
      if (forks_team(o.directive.kind)) return true;
      return contains_team_fork(o.body.get());
    }
    default:
      return false;
  }
}

/// True if both tasks carry depend clauses on the same variable with at
/// least one writer-side dependence type, which orders them.
bool depends_order(const SyncContext& a, const SyncContext& b,
                   const std::string& var_name) {
  auto mentions = [&](const SyncContext& c, bool& has_out) {
    bool found = false;
    for (const auto& [type, text] : c.depends) {
      const std::string base = text.substr(0, text.find('['));
      if (base == var_name) {
        found = true;
        if (type == "out" || type == "inout") has_out = true;
      }
    }
    return found;
  };
  bool out_a = false;
  bool out_b = false;
  const bool ma = mentions(a, out_a);
  const bool mb = mentions(b, out_b);
  return ma && mb && (out_a || out_b);
}

}  // namespace

PhasePartition PhasePartition::of(const ParallelRegion& region) {
  PhasePartition part;
  part.boundaries = region.boundaries;
  for (const PhaseBoundary& b : region.boundaries) {
    part.phases = std::max(part.phases, b.phase_after + 1);
  }
  for (const AccessInfo& a : region.accesses) {
    part.phases = std::max(part.phases, a.ctx.phase + 1);
  }
  return part;
}

SerialRegionInfo classify_serial(const ParallelRegion& region) {
  SerialRegionInfo info;
  if (region.stmt == nullptr || region.simd_only) return info;
  const OmpDirective& dir = region.stmt->directive;
  const ConstantMap& consts = *region.consts;
  std::string reason;
  if (const OmpClause* ifc = dir.find_clause(OmpClauseKind::If)) {
    if (ifc->expr != nullptr) {
      if (auto v = consts.eval(*ifc->expr); v.has_value() && *v == 0) {
        reason = "if clause folds to 0";
      }
    }
  }
  if (reason.empty()) {
    if (const OmpClause* nt = dir.find_clause(OmpClauseKind::NumThreads)) {
      if (nt->expr != nullptr) {
        if (auto v = consts.eval(*nt->expr); v.has_value() && *v == 1) {
          reason = "num_threads clause folds to 1";
        }
      }
    }
  }
  if (reason.empty()) return info;
  // A nested team fork would reintroduce parallelism inside the serial
  // outer region; stay conservative in that case.
  if (contains_team_fork(region.stmt->body.get())) return info;
  info.serial = true;
  info.reason = reason;
  return info;
}

bool may_happen_in_parallel(const AccessInfo& a, const AccessInfo& b,
                            const std::string& var_name,
                            const MhpOptions& opts, Evidence& ev) {
  ev.phase_first = a.ctx.phase;
  ev.phase_second = b.ctx.phase;

  // Barrier phases separate accesses.
  {
    EvidenceStep step;
    step.rule = "mhp.phase";
    step.discharged = a.ctx.phase != b.ctx.phase;
    step.detail = "phase " + std::to_string(a.ctx.phase) + " vs " +
                  std::to_string(b.ctx.phase);
    ev.steps.push_back(std::move(step));
    if (a.ctx.phase != b.ctx.phase) {
      ev.discharge_rule = "mhp.phase";
      return false;
    }
  }

  // Same single/master/section instance executes on one thread.
  if (a.ctx.exec_once_id != -1 && a.ctx.exec_once_id == b.ctx.exec_once_id) {
    // Same instance: racy only through a self-concurrent task inside it.
    const bool ordered = a.ctx.task_id == b.ctx.task_id && !a.ctx.task_in_loop;
    EvidenceStep step;
    step.rule = "mhp.single-instance";
    step.discharged = ordered;
    step.detail =
        "same exec-once instance #" + std::to_string(a.ctx.exec_once_id);
    if (!ordered) step.detail += " with self-concurrent task";
    ev.steps.push_back(std::move(step));
    if (ordered) {
      ev.discharge_rule = "mhp.single-instance";
      return false;
    }
  }

  // Task ordering.
  if (a.ctx.task_id != -1 || b.ctx.task_id != -1) {
    if (a.ctx.task_phase != b.ctx.task_phase) {  // taskwait between them
      EvidenceStep step;
      step.rule = "mhp.task-order";
      step.discharged = true;
      step.detail = "taskwait separates task phases " +
                    std::to_string(a.ctx.task_phase) + " and " +
                    std::to_string(b.ctx.task_phase);
      ev.steps.push_back(std::move(step));
      ev.discharge_rule = "mhp.task-order";
      return false;
    }
    if (a.ctx.task_id == b.ctx.task_id && a.ctx.task_id != -1 &&
        !a.ctx.task_in_loop) {
      EvidenceStep step;
      step.rule = "mhp.task-order";
      step.discharged = true;
      step.detail =
          "same single task instance #" + std::to_string(a.ctx.task_id);
      ev.steps.push_back(std::move(step));
      ev.discharge_rule = "mhp.task-order";
      return false;
    }
    if (opts.model_depend_clauses && a.ctx.task_id != b.ctx.task_id &&
        a.ctx.task_id != -1 && b.ctx.task_id != -1) {
      const bool ordered = depends_order(a.ctx, b.ctx, var_name);
      EvidenceStep step;
      step.rule = "mhp.task-depend";
      step.discharged = ordered;
      step.detail = ordered
                        ? "depend clauses on '" + var_name + "' order tasks"
                        : "depend clauses do not order tasks on '" + var_name +
                              "'";
      ev.steps.push_back(std::move(step));
      if (ordered) {
        ev.discharge_rule = "mhp.task-depend";
        return false;
      }
    }
  }

  return true;
}

}  // namespace drbml::analysis
