// The built-in lint checks.
//
// Every check reads the shared LintContext (parsed program, collected
// parallel regions with annotated accesses, static race report) and
// appends structured Diagnostics. Checks are explanatory: where the
// static race detector answers "is there a conflicting pair", these
// checks answer "which OpenMP construct is misused and what clause fixes
// it", mirroring what ompVerify/LLOV-style verifiers report.
//
// Check id -> DRB pattern families (see DESIGN.md section 8):
//   lint.race       race pairs + cap-truncation note (all racy families)
//   lint.datashare  missing-private / firstprivate-missing / default-none
//   lint.reduction  missing-reduction (fix-it: reduction(op:var))
//   lint.lock       omp-lock / lock-partial discipline
//   lint.barrier    barrier nesting/asymmetry + nowait misuse
//   lint.atomic     atomic-plus-plain / different-critical-names /
//                   atomic-critical-mix / lock-partial consistency
#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "lint/checks.hpp"
#include "minic/printer.hpp"
#include "support/strings.hpp"

namespace drbml::lint {

using namespace minic;
using analysis::AccessInfo;
using analysis::ParallelRegion;
using analysis::Sharing;

namespace {

// ---------------------------------------------------------------- helpers

std::string loc_str(const SourceLoc& loc) {
  return std::to_string(loc.line) + ":" + std::to_string(loc.col);
}

std::string directive_text(const OmpDirective& dir) {
  return "#pragma omp " + omp_directive_kind_name(dir.kind);
}

const Stmt* unwrap_single(const Stmt* s) {
  while (const auto* block = stmt_cast<CompoundStmt>(s)) {
    if (block->body.size() != 1) break;
    s = block->body[0].get();
  }
  return s;
}

/// Clause-item base name ("a[0:n]" -> "a").
std::string clause_base_name(const std::string& item) {
  const std::size_t bracket = item.find('[');
  return bracket == std::string::npos ? item : item.substr(0, bracket);
}

bool is_scalar(const VarDecl& v) {
  return !v.is_array() && !v.type.is_pointer();
}

/// An access with no mutual-exclusion context at all.
bool unprotected(const analysis::SyncContext& c) {
  return !c.atomic && !c.in_critical && !c.ordered && c.locks.empty() &&
         c.exec_once_id == -1;
}

/// Finds the collected access matching (var, ident location, direction);
/// null when collection skipped it.
const AccessInfo* find_access(const ParallelRegion& region, const VarDecl* var,
                              const SourceLoc& loc, bool is_write) {
  for (const auto& a : region.accesses) {
    if (a.var == var && a.loc == loc && a.is_write == is_write) return &a;
  }
  return nullptr;
}

// -------------------------------------------- accumulation recognition

/// A recognized reduction-shaped update of a scalar.
struct Accumulation {
  const VarDecl* var = nullptr;
  SourceLoc loc;          // location of the updated identifier
  std::string op_clause;  // OpenMP reduction operator: + * - & | ^ && || max min
};

const char* assign_op_clause(AssignOp op) {
  switch (op) {
    case AssignOp::Add: return "+";
    case AssignOp::Sub: return "-";
    case AssignOp::Mul: return "*";
    case AssignOp::And: return "&";
    case AssignOp::Or: return "|";
    case AssignOp::Xor: return "^";
    default: return nullptr;
  }
}

const char* binary_op_clause(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::BitAnd: return "&";
    case BinaryOp::BitOr: return "|";
    case BinaryOp::BitXor: return "^";
    case BinaryOp::LogicalAnd: return "&&";
    case BinaryOp::LogicalOr: return "||";
    default: return nullptr;
  }
}

/// Matches `x = x op e` / `x = e op x` (commutative ops only on the right).
const char* self_update_clause(const Assign& a, const VarDecl* target) {
  const auto* b = expr_cast<Binary>(a.value.get());
  if (b == nullptr) return nullptr;
  const char* clause = binary_op_clause(b->op);
  if (clause == nullptr) return nullptr;
  const auto* lhs = expr_cast<Ident>(b->lhs.get());
  if (lhs != nullptr && lhs->decl == target) return clause;
  const auto* rhs = expr_cast<Ident>(b->rhs.get());
  if (rhs != nullptr && rhs->decl == target && b->op != BinaryOp::Sub) {
    return clause;
  }
  return nullptr;
}

/// Matches `if (cmp) x = e;` min/max folds. Returns "max"/"min"/nullptr
/// and fills `var`/`loc`.
const char* match_minmax(const IfStmt& s, const VarDecl** var, SourceLoc* loc) {
  if (s.else_branch != nullptr) return nullptr;
  const auto* cond = expr_cast<Binary>(s.cond.get());
  if (cond == nullptr) return nullptr;
  const auto* then_stmt = stmt_cast<ExprStmt>(unwrap_single(s.then_branch.get()));
  if (then_stmt == nullptr) return nullptr;
  const auto* assign = expr_cast<Assign>(then_stmt->expr.get());
  if (assign == nullptr || assign->op != AssignOp::Assign) return nullptr;
  const auto* target = expr_cast<Ident>(assign->target.get());
  if (target == nullptr || target->decl == nullptr) return nullptr;

  // One comparison side must be the target, the other must equal the
  // assigned value textually.
  const auto* cl = expr_cast<Ident>(cond->lhs.get());
  const auto* cr = expr_cast<Ident>(cond->rhs.get());
  const std::string value_text = expr_to_string(*assign->value);
  bool target_on_lhs;
  const Expr* other = nullptr;
  if (cl != nullptr && cl->decl == target->decl) {
    target_on_lhs = true;
    other = cond->rhs.get();
  } else if (cr != nullptr && cr->decl == target->decl) {
    target_on_lhs = false;
    other = cond->lhs.get();
  } else {
    return nullptr;
  }
  if (expr_to_string(*other) != value_text) return nullptr;

  *var = target->decl;
  *loc = target->loc;
  switch (cond->op) {
    case BinaryOp::Lt:
    case BinaryOp::Le:
      return target_on_lhs ? "max" : "min";  // x < e: e is larger -> max
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      return target_on_lhs ? "min" : "max";
    default:
      return nullptr;
  }
}

class AccumulationFinder {
 public:
  std::vector<Accumulation> find(const Stmt& root) {
    walk(root);
    return std::move(found_);
  }

 private:
  void add(const VarDecl* var, const SourceLoc& loc, const char* clause) {
    if (var == nullptr || !is_scalar(*var)) return;
    found_.push_back({var, loc, clause});
  }

  void walk_expr_stmt(const Expr& e) {
    if (const auto* a = expr_cast<Assign>(&e)) {
      const auto* target = expr_cast<Ident>(a->target.get());
      if (target == nullptr || target->decl == nullptr) return;
      if (const char* clause = assign_op_clause(a->op)) {
        add(target->decl, target->loc, clause);
      } else if (a->op == AssignOp::Assign) {
        if (const char* c = self_update_clause(*a, target->decl)) {
          add(target->decl, target->loc, c);
        }
      }
      return;
    }
    if (const auto* u = expr_cast<Unary>(&e)) {
      if (u->op == UnaryOp::PreInc || u->op == UnaryOp::PostInc ||
          u->op == UnaryOp::PreDec || u->op == UnaryOp::PostDec) {
        const auto* target = expr_cast<Ident>(u->operand.get());
        if (target != nullptr && target->decl != nullptr) {
          const bool inc =
              u->op == UnaryOp::PreInc || u->op == UnaryOp::PostInc;
          add(target->decl, target->loc, inc ? "+" : "-");
        }
      }
    }
  }

  void walk(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Expr:
        walk_expr_stmt(*static_cast<const ExprStmt&>(s).expr);
        break;
      case StmtKind::Compound:
        for (const auto& st : static_cast<const CompoundStmt&>(s).body) {
          walk(*st);
        }
        break;
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(s);
        const VarDecl* var = nullptr;
        SourceLoc loc;
        if (const char* clause = match_minmax(i, &var, &loc)) {
          add(var, loc, clause);
          break;  // the then-branch assignment is the fold; don't re-walk
        }
        walk(*i.then_branch);
        if (i.else_branch) walk(*i.else_branch);
        break;
      }
      case StmtKind::For:
        walk(*static_cast<const ForStmt&>(s).body);
        break;
      case StmtKind::While:
        walk(*static_cast<const WhileStmt&>(s).body);
        break;
      case StmtKind::Do:
        walk(*static_cast<const DoStmt&>(s).body);
        break;
      case StmtKind::Omp:
        if (static_cast<const OmpStmt&>(s).body) {
          walk(*static_cast<const OmpStmt&>(s).body);
        }
        break;
      default:
        break;
    }
  }

  std::vector<Accumulation> found_;
};

/// Recognized unprotected shared accumulations per region, paired with
/// their region. Shared by the reduction check and the race classifier.
std::vector<std::pair<const ParallelRegion*, Accumulation>>
shared_accumulations(const LintContext& ctx) {
  std::vector<std::pair<const ParallelRegion*, Accumulation>> out;
  for (const auto& region : ctx.regions) {
    if (region.stmt == nullptr || region.stmt->body == nullptr) continue;
    for (const Accumulation& acc :
         AccumulationFinder().find(*region.stmt->body)) {
      const AccessInfo* write = find_access(region, acc.var, acc.loc, true);
      if (write == nullptr) continue;
      if (write->sharing != Sharing::Shared) continue;  // reduction/private ok
      if (!unprotected(write->ctx)) continue;
      out.emplace_back(&region, acc);
    }
  }
  return out;
}

// ----------------------------------------------------------------- checks

const char* op_word(char op) { return op == 'w' ? "write" : "read"; }

std::string classify(const analysis::RacePair& pair,
                     const std::set<std::string>& accumulating) {
  const bool array =
      pair.first.expr_text.find('[') != std::string::npos ||
      pair.second.expr_text.find('[') != std::string::npos;
  if (!array && accumulating.count(pair.first.var_name) != 0) {
    return "missing-reduction";
  }
  if (!array) return "unprotected-shared-scalar";
  if (pair.first.expr_text != pair.second.expr_text) {
    return "loop-carried-dependence";
  }
  return "shared-array-conflict";
}

}  // namespace

void check_race(const LintContext& ctx, std::vector<Diagnostic>& out) {
  std::set<std::string> accumulating;
  for (const auto& [region, acc] : shared_accumulations(ctx)) {
    (void)region;
    accumulating.insert(acc.var->name);
  }

  for (const auto& pair : ctx.race.pairs) {
    Diagnostic d;
    d.check_id = "lint.race";
    d.severity = Severity::Error;
    d.loc = pair.first.loc;
    d.message = "possible data race on shared '" + pair.first.var_name +
                "': " + op_word(pair.first.op) + " of '" +
                pair.first.expr_text + "' conflicts with " +
                op_word(pair.second.op) + " of '" + pair.second.expr_text +
                "' at " + loc_str(pair.second.loc) +
                "; the accesses can execute concurrently on different "
                "threads with no ordering synchronization between them";
    d.pattern = classify(pair, accumulating);
    d.related.push_back({pair.second.loc,
                         "conflicting " + std::string(op_word(pair.second.op)) +
                             " of '" + pair.second.expr_text + "'"});
    if (!pair.evidence.steps.empty()) {
      d.related.push_back(
          {pair.first.loc,
           "evidence: " + analysis::evidence_to_text(pair.evidence)});
    }
    out.push_back(std::move(d));
  }

  if (ctx.race.suppressed_pairs > 0) {
    Diagnostic d;
    d.check_id = "lint.race";
    d.severity = Severity::Note;
    d.message = std::to_string(ctx.race.suppressed_pairs) +
                " additional conflicting pair(s) suppressed by the "
                "max_pairs cap (" +
                std::to_string(analysis::kMaxReportedPairs) + ")";
    d.pattern = "report-truncation";
    out.push_back(std::move(d));
  }
}

namespace {

void audit_default_none(const ParallelRegion& region,
                        std::vector<Diagnostic>& out) {
  const OmpDirective& dir = region.stmt->directive;
  const OmpClause* def = dir.find_clause(OmpClauseKind::Default);
  if (def == nullptr || def->arg != "none") return;

  std::set<std::string> listed;
  for (const auto& c : dir.clauses) {
    switch (c.kind) {
      case OmpClauseKind::Private:
      case OmpClauseKind::FirstPrivate:
      case OmpClauseKind::LastPrivate:
      case OmpClauseKind::Shared:
      case OmpClauseKind::Reduction:
      case OmpClauseKind::Linear:
      case OmpClauseKind::Copyprivate:
        for (const auto& item : c.vars) listed.insert(clause_base_name(item));
        break;
      default:
        break;
    }
  }

  std::set<std::string> reported;
  for (const auto& a : region.accesses) {
    if (a.var == nullptr) continue;
    const std::string& name = a.var->name;
    // Unlisted outer variables default to shared; everything that
    // classified private/loop-private/threadprivate is either listed
    // or declared inside the region, both fine under default(none).
    if (a.sharing != Sharing::Shared) continue;
    if (listed.count(name) != 0 || reported.count(name) != 0) continue;
    reported.insert(name);
    Diagnostic d;
    d.check_id = "lint.datashare";
    d.severity = Severity::Error;
    d.loc = a.loc;
    d.message = "'" + name + "' is referenced in a '" +
                directive_text(dir) +
                " default(none)' region but appears in no data-sharing "
                "clause; OpenMP requires every outer variable to be "
                "listed explicitly (use shared(" + name +
                ") or private(" + name + ") as intended)";
    d.fixit = "shared(" + name + ")";
    d.pattern = "default-none";
    out.push_back(std::move(d));
  }
}

void privatization_hints(const ParallelRegion& region,
                         const std::set<std::string>& racing,
                         const std::set<const VarDecl*>& accumulating,
                         std::vector<Diagnostic>& out) {
  std::set<const VarDecl*> reported;
  for (const auto& a : region.accesses) {
    const VarDecl* var = a.var;
    if (var == nullptr || !is_scalar(*var)) continue;
    if (a.sharing != Sharing::Shared) continue;
    if (racing.count(var->name) == 0) continue;  // explanatory: race-gated
    if (accumulating.count(var) != 0) continue;  // lint.reduction's case
    if (reported.count(var) != 0) continue;

    // Earliest access decides the clause: a fresh write per iteration
    // wants private; a read of the original value wants firstprivate.
    // Vars with any protected access are lint.atomic's case:
    // the author meant to share them, so privatization is bad advice.
    const AccessInfo* earliest = nullptr;
    bool written = false;
    bool any_protected = false;
    for (const auto& b : region.accesses) {
      if (b.var != var) continue;
      written = written || b.is_write;
      any_protected = any_protected || !unprotected(b.ctx);
      if (earliest == nullptr || b.loc.line < earliest->loc.line ||
          (b.loc.line == earliest->loc.line &&
           b.loc.col < earliest->loc.col)) {
        earliest = &b;
      }
    }
    if (earliest == nullptr || !written || any_protected) continue;
    reported.insert(var);

    const bool write_first = earliest->is_write;
    Diagnostic d;
    d.check_id = "lint.datashare";
    d.severity = Severity::Warning;
    d.loc = earliest->loc;
    const std::string clause =
        (write_first ? "private(" : "firstprivate(") + var->name + ")";
    d.message = "shared scalar '" + var->name +
                "' is written inside the '" +
                directive_text(region.stmt->directive) +
                "' region and races across threads; each thread needs " +
                (write_first
                     ? "its own copy - add '" + clause + "'"
                     : "its own copy initialized from the original value "
                       "- add '" + clause + "'") +
                " to the directive";
    d.fixit = clause;
    d.pattern = write_first ? "missing-private" : "firstprivate-missing";
    out.push_back(std::move(d));
  }
}

}  // namespace

void check_datashare(const LintContext& ctx, std::vector<Diagnostic>& out) {
  std::set<const VarDecl*> accumulating;
  for (const auto& [region, acc] : shared_accumulations(ctx)) {
    (void)region;
    accumulating.insert(acc.var);
  }
  std::set<std::string> racing;
  for (const auto& pair : ctx.race.pairs) racing.insert(pair.first.var_name);

  for (const auto& region : ctx.regions) {
    if (region.stmt == nullptr) continue;
    audit_default_none(region, out);
    privatization_hints(region, racing, accumulating, out);
  }
}

void check_reduction(const LintContext& ctx, std::vector<Diagnostic>& out) {
  std::set<std::pair<const VarDecl*, int>> seen;
  for (const auto& [region, acc] : shared_accumulations(ctx)) {
    if (!seen.insert({acc.var, acc.loc.line}).second) continue;
    const std::string clause =
        "reduction(" + acc.op_clause + ":" + acc.var->name + ")";
    Diagnostic d;
    d.check_id = "lint.reduction";
    d.severity = Severity::Error;
    d.loc = acc.loc;
    d.message = "shared '" + acc.var->name +
                "' is accumulated without a reduction clause: every "
                "thread performs an unsynchronized read-modify-write, so "
                "updates are lost; add '" + clause + "' to the '" +
                directive_text(region->stmt->directive) + "' directive";
    d.fixit = clause;
    d.pattern = "missing-reduction";
    out.push_back(std::move(d));
  }
}

namespace {

/// Locks held on the current path, with their acquisition sites.
using HeldLocks = std::vector<std::pair<const VarDecl*, SourceLoc>>;
/// (held-before, acquired, acquisition site) triples.
using LockOrder =
    std::vector<std::tuple<const VarDecl*, const VarDecl*, SourceLoc>>;

const VarDecl* lock_operand(const Expr& arg) {
  const Expr* e = &arg;
  while (const auto* u = expr_cast<Unary>(e)) {
    if (u->op != UnaryOp::AddrOf && u->op != UnaryOp::Deref) break;
    e = u->operand.get();
  }
  if (const auto* id = expr_cast<Ident>(e)) return id->decl;
  return nullptr;
}

void handle_lock_call(const Call& call, HeldLocks& held, LockOrder& order,
                      std::vector<Diagnostic>& out) {
  const bool set = call.callee == "omp_set_lock";
  const bool set_nest = call.callee == "omp_set_nest_lock";
  const bool unset = call.callee == "omp_unset_lock" ||
                     call.callee == "omp_unset_nest_lock";
  if ((!set && !set_nest && !unset) || call.args.empty()) return;
  const VarDecl* lock = lock_operand(*call.args[0]);
  if (lock == nullptr) return;

  if (set || set_nest) {
    const auto it = std::find_if(held.begin(), held.end(),
                                 [&](const auto& h) { return h.first == lock; });
    if (set && it != held.end()) {
      Diagnostic d;
      d.check_id = "lint.lock";
      d.severity = Severity::Error;
      d.loc = call.loc;
      d.message = "omp_set_lock('" + lock->name +
                  "') while the lock is already held (acquired at " +
                  loc_str(it->second) +
                  "); OpenMP simple locks are not reentrant, so this "
                  "thread deadlocks against itself";
      d.pattern = "omp-lock";
      d.related.push_back({it->second, "first acquisition here"});
      out.push_back(std::move(d));
    }
    for (const auto& [h, hloc] : held) {
      (void)hloc;
      if (h != lock) order.emplace_back(h, lock, call.loc);
    }
    held.emplace_back(lock, call.loc);
    return;
  }

  const auto it = std::find_if(held.begin(), held.end(),
                               [&](const auto& h) { return h.first == lock; });
  if (it == held.end()) {
    Diagnostic d;
    d.check_id = "lint.lock";
    d.severity = Severity::Warning;
    d.loc = call.loc;
    d.message = "omp_unset_lock('" + lock->name +
                "') releases a lock that is not held on this path; "
                "unlocking an unowned OpenMP lock is undefined behavior";
    d.pattern = "lock-partial";
    out.push_back(std::move(d));
    return;
  }
  held.erase(it);
}

void walk_lock_expr(const Expr& e, HeldLocks& held, LockOrder& order,
                    std::vector<Diagnostic>& out) {
  if (const auto* call = expr_cast<Call>(&e)) {
    handle_lock_call(*call, held, order, out);
    for (const auto& arg : call->args) walk_lock_expr(*arg, held, order, out);
    return;
  }
  if (const auto* b = expr_cast<Binary>(&e)) {
    walk_lock_expr(*b->lhs, held, order, out);
    walk_lock_expr(*b->rhs, held, order, out);
    return;
  }
  if (const auto* a = expr_cast<Assign>(&e)) {
    walk_lock_expr(*a->target, held, order, out);
    walk_lock_expr(*a->value, held, order, out);
    return;
  }
  if (const auto* u = expr_cast<Unary>(&e)) {
    walk_lock_expr(*u->operand, held, order, out);
    return;
  }
}

void walk_locks(const Stmt& s, HeldLocks& held, LockOrder& order,
                std::vector<Diagnostic>& out) {
  switch (s.kind) {
    case StmtKind::Expr:
      walk_lock_expr(*static_cast<const ExprStmt&>(s).expr, held, order, out);
      break;
    case StmtKind::Compound:
      for (const auto& st : static_cast<const CompoundStmt&>(s).body) {
        walk_locks(*st, held, order, out);
      }
      break;
    case StmtKind::If: {
      const auto& i = static_cast<const IfStmt&>(s);
      walk_locks(*i.then_branch, held, order, out);
      if (i.else_branch) walk_locks(*i.else_branch, held, order, out);
      break;
    }
    case StmtKind::For:
      walk_locks(*static_cast<const ForStmt&>(s).body, held, order, out);
      break;
    case StmtKind::While:
      walk_locks(*static_cast<const WhileStmt&>(s).body, held, order, out);
      break;
    case StmtKind::Do:
      walk_locks(*static_cast<const DoStmt&>(s).body, held, order, out);
      break;
    case StmtKind::Omp:
      if (static_cast<const OmpStmt&>(s).body) {
        walk_locks(*static_cast<const OmpStmt&>(s).body, held, order, out);
      }
      break;
    default:
      break;
  }
}

}  // namespace

void check_lock(const LintContext& ctx, std::vector<Diagnostic>& out) {
  LockOrder order;  // across the whole unit
  for (const auto& fn : ctx.program.unit->functions) {
    if (!fn->body) continue;
    HeldLocks held;
    walk_locks(*fn->body, held, order, out);
    for (const auto& [lock, loc] : held) {
      Diagnostic d;
      d.check_id = "lint.lock";
      d.severity = Severity::Warning;
      d.loc = loc;
      d.message = "omp_set_lock('" + lock->name +
                  "') has no matching omp_unset_lock in '" + fn->name +
                  "'; any other thread contending for the lock blocks "
                  "forever";
      d.pattern = "omp-lock";
      out.push_back(std::move(d));
    }
  }

  // Inconsistent acquisition order (classic deadlock shape).
  std::set<std::pair<const VarDecl*, const VarDecl*>> reported;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const auto& [a1, b1, loc1] = order[i];
      const auto& [a2, b2, loc2] = order[j];
      if (a1 != b2 || b1 != a2 || a1 == b1) continue;
      const auto key = std::minmax(a1, b1);
      if (!reported.insert({key.first, key.second}).second) continue;
      Diagnostic d;
      d.check_id = "lint.lock";
      d.severity = Severity::Warning;
      d.loc = loc2;
      d.message = "locks '" + a1->name + "' and '" + b1->name +
                  "' are acquired in opposite orders on different paths "
                  "(here and at " + loc_str(loc1) +
                  "); two threads can deadlock each holding one lock";
      d.pattern = "omp-lock";
      d.related.push_back({loc1, "opposite acquisition order here"});
      out.push_back(std::move(d));
    }
  }
}

namespace {

bool barrier_illegal_inside(OmpDirectiveKind k) {
  switch (k) {
    case OmpDirectiveKind::Critical:
    case OmpDirectiveKind::Single:
    case OmpDirectiveKind::Master:
    case OmpDirectiveKind::Sections:
    case OmpDirectiveKind::ParallelSections:
    case OmpDirectiveKind::Section:
    case OmpDirectiveKind::Task:
    case OmpDirectiveKind::Ordered:
    case OmpDirectiveKind::For:
    case OmpDirectiveKind::ForSimd:
      return true;
    default:
      return false;
  }
}

void walk_barriers(const Stmt& s, std::vector<OmpDirectiveKind>& omp_stack,
                   int if_depth, std::vector<Diagnostic>& out) {
  if (const auto* omp = stmt_cast<OmpStmt>(&s)) {
    if (omp->directive.kind == OmpDirectiveKind::Barrier) {
      for (auto it = omp_stack.rbegin(); it != omp_stack.rend(); ++it) {
        if (barrier_illegal_inside(*it)) {
          Diagnostic d;
          d.check_id = "lint.barrier";
          d.severity = Severity::Error;
          d.loc = omp->directive.loc;
          d.message = "'#pragma omp barrier' is not permitted in the "
                      "dynamic extent of a '" +
                      omp_directive_kind_name(*it) +
                      "' region (illegal OpenMP nesting)";
          d.pattern = "barrier";
          out.push_back(std::move(d));
          return;
        }
        if (*it == OmpDirectiveKind::Parallel ||
            *it == OmpDirectiveKind::ParallelFor ||
            *it == OmpDirectiveKind::ParallelForSimd ||
            *it == OmpDirectiveKind::Target ||
            *it == OmpDirectiveKind::TargetParallelFor) {
          break;  // enclosing team found; nesting is fine
        }
      }
      if (if_depth > 0) {
        Diagnostic d;
        d.check_id = "lint.barrier";
        d.severity = Severity::Warning;
        d.loc = omp->directive.loc;
        d.message = "conditionally executed '#pragma omp barrier': if any "
                    "thread takes a branch that skips it, the rest of the "
                    "team waits forever (asymmetric barrier)";
        d.pattern = "barrier-asymmetric";
        out.push_back(std::move(d));
      }
      return;
    }
    omp_stack.push_back(omp->directive.kind);
    // A parallel construct starts a fresh conditional context: its body
    // executes on every thread regardless of branches outside it.
    const int inner_if_depth =
        omp->directive.forks_team() ? 0 : if_depth;
    if (omp->body) {
      walk_barriers(*omp->body, omp_stack, inner_if_depth, out);
    }
    omp_stack.pop_back();
    return;
  }
  switch (s.kind) {
    case StmtKind::Compound:
      for (const auto& st : static_cast<const CompoundStmt&>(s).body) {
        walk_barriers(*st, omp_stack, if_depth, out);
      }
      break;
    case StmtKind::If: {
      const auto& i = static_cast<const IfStmt&>(s);
      walk_barriers(*i.then_branch, omp_stack, if_depth + 1, out);
      if (i.else_branch) {
        walk_barriers(*i.else_branch, omp_stack, if_depth + 1, out);
      }
      break;
    }
    case StmtKind::For:
      walk_barriers(*static_cast<const ForStmt&>(s).body, omp_stack,
                    if_depth, out);
      break;
    case StmtKind::While:
      walk_barriers(*static_cast<const WhileStmt&>(s).body, omp_stack,
                    if_depth, out);
      break;
    case StmtKind::Do:
      walk_barriers(*static_cast<const DoStmt&>(s).body, omp_stack,
                    if_depth, out);
      break;
    default:
      break;
  }
}

// ---- nowait -----------------------------------------------------------
bool is_nowait_worksharing(const OmpStmt& s) {
  switch (s.directive.kind) {
    case OmpDirectiveKind::For:
    case OmpDirectiveKind::ForSimd:
    case OmpDirectiveKind::Single:
    case OmpDirectiveKind::Sections:
      return s.directive.has_clause(OmpClauseKind::Nowait);
    default:
      return false;
  }
}

const VarDecl* base_decl(const Expr& e) {
  const Expr* cur = &e;
  while (true) {
    if (const auto* sub = expr_cast<Subscript>(cur)) {
      cur = sub->base.get();
      continue;
    }
    if (const auto* u = expr_cast<Unary>(cur)) {
      if (u->op == UnaryOp::Deref) {
        cur = u->operand.get();
        continue;
      }
    }
    break;
  }
  if (const auto* ident = expr_cast<Ident>(cur)) return ident->decl;
  return nullptr;
}

void collect_written(const Expr& e, std::set<const VarDecl*>& out) {
  if (const auto* a = expr_cast<Assign>(&e)) {
    if (const VarDecl* v = base_decl(*a->target)) out.insert(v);
    collect_written(*a->value, out);
    return;
  }
  if (const auto* u = expr_cast<Unary>(&e)) {
    if (u->op == UnaryOp::PreInc || u->op == UnaryOp::PostInc ||
        u->op == UnaryOp::PreDec || u->op == UnaryOp::PostDec) {
      if (const VarDecl* v = base_decl(*u->operand)) out.insert(v);
    }
    collect_written(*u->operand, out);
    return;
  }
  if (const auto* b = expr_cast<Binary>(&e)) {
    collect_written(*b->lhs, out);
    collect_written(*b->rhs, out);
    return;
  }
  if (const auto* c = expr_cast<Call>(&e)) {
    for (const auto& arg : c->args) collect_written(*arg, out);
  }
}

/// Applies `fn` to every top-level expression in the statement subtree.
template <typename Fn>
void for_each_expr(const Stmt& s, Fn&& fn) {
  switch (s.kind) {
    case StmtKind::Expr:
      fn(*static_cast<const ExprStmt&>(s).expr);
      break;
    case StmtKind::Decl:
      for (const auto& v : static_cast<const DeclStmt&>(s).decls) {
        if (v->init) fn(*v->init);
      }
      break;
    case StmtKind::Compound:
      for (const auto& st : static_cast<const CompoundStmt&>(s).body) {
        for_each_expr(*st, fn);
      }
      break;
    case StmtKind::If: {
      const auto& i = static_cast<const IfStmt&>(s);
      fn(*i.cond);
      for_each_expr(*i.then_branch, fn);
      if (i.else_branch) for_each_expr(*i.else_branch, fn);
      break;
    }
    case StmtKind::For: {
      const auto& f = static_cast<const ForStmt&>(s);
      if (f.init) for_each_expr(*f.init, fn);
      if (f.cond) fn(*f.cond);
      if (f.inc) fn(*f.inc);
      for_each_expr(*f.body, fn);
      break;
    }
    case StmtKind::While: {
      const auto& w = static_cast<const WhileStmt&>(s);
      fn(*w.cond);
      for_each_expr(*w.body, fn);
      break;
    }
    case StmtKind::Do: {
      const auto& d = static_cast<const DoStmt&>(s);
      for_each_expr(*d.body, fn);
      fn(*d.cond);
      break;
    }
    case StmtKind::Return: {
      const auto& r = static_cast<const ReturnStmt&>(s);
      if (r.value) fn(*r.value);
      break;
    }
    case StmtKind::Omp:
      if (static_cast<const OmpStmt&>(s).body) {
        for_each_expr(*static_cast<const OmpStmt&>(s).body, fn);
      }
      break;
    default:
      break;
  }
}

void collect_written_stmt(const Stmt& s, std::set<const VarDecl*>& out) {
  for_each_expr(s, [&](const Expr& e) { collect_written(e, out); });
}

const Ident* find_use_expr(const Expr& e,
                           const std::set<const VarDecl*>& vars) {
  if (const auto* ident = expr_cast<Ident>(&e)) {
    return (ident->decl != nullptr && vars.count(ident->decl) != 0) ? ident
                                                                    : nullptr;
  }
  const Ident* found = nullptr;
  auto visit = [&](const Expr* child) {
    if (found == nullptr && child != nullptr) {
      found = find_use_expr(*child, vars);
    }
  };
  switch (e.kind) {
    case ExprKind::Subscript: {
      const auto& sub = static_cast<const Subscript&>(e);
      visit(sub.base.get());
      visit(sub.index.get());
      break;
    }
    case ExprKind::Unary:
      visit(static_cast<const Unary&>(e).operand.get());
      break;
    case ExprKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      visit(b.lhs.get());
      visit(b.rhs.get());
      break;
    }
    case ExprKind::Assign: {
      const auto& a = static_cast<const Assign&>(e);
      visit(a.target.get());
      visit(a.value.get());
      break;
    }
    case ExprKind::Conditional: {
      const auto& c = static_cast<const Conditional&>(e);
      visit(c.cond.get());
      visit(c.then_expr.get());
      visit(c.else_expr.get());
      break;
    }
    case ExprKind::Call:
      for (const auto& arg : static_cast<const Call&>(e).args) {
        visit(arg.get());
      }
      break;
    case ExprKind::Cast:
      visit(static_cast<const Cast&>(e).operand.get());
      break;
    default:
      break;
  }
  return found;
}

/// First use (read or write) of any `vars` member in the subtree.
const Ident* find_use(const Stmt& s, const std::set<const VarDecl*>& vars) {
  const Ident* found = nullptr;
  for_each_expr(s, [&](const Expr& e) {
    if (found == nullptr) found = find_use_expr(e, vars);
  });
  return found;
}

void scan_nowait(const ParallelRegion& region, const Stmt& s,
                 std::vector<Diagnostic>& out) {
  const auto* block = stmt_cast<CompoundStmt>(&s);
  if (block == nullptr) {
    if (const auto* omp = stmt_cast<OmpStmt>(&s); omp != nullptr && omp->body) {
      scan_nowait(region, *omp->body, out);
    }
    return;
  }
  for (std::size_t i = 0; i < block->body.size(); ++i) {
    const auto* omp = stmt_cast<OmpStmt>(block->body[i].get());
    if (omp == nullptr || !is_nowait_worksharing(*omp)) {
      scan_nowait(region, *block->body[i], out);
      continue;
    }
    scan_nowait(region, *block->body[i], out);  // nested compounds inside it
    std::set<const VarDecl*> written;
    if (omp->body) collect_written_stmt(*omp->body, written);
    // Only shared objects carry state across the removed barrier;
    // induction variables and privatized scalars cannot (the region's
    // access classification already knows which is which).
    for (auto it = written.begin(); it != written.end();) {
      bool shared = false;
      for (const auto& a : region.accesses) {
        if (a.var == *it && a.sharing == Sharing::Shared) {
          shared = true;
          break;
        }
      }
      it = shared ? std::next(it) : written.erase(it);
    }
    if (written.empty()) continue;
    for (std::size_t j = i + 1; j < block->body.size(); ++j) {
      if (const auto* next = stmt_cast<OmpStmt>(block->body[j].get())) {
        if (next->directive.kind == OmpDirectiveKind::Barrier) break;
      }
      const Ident* use = find_use(*block->body[j], written);
      if (use == nullptr) continue;
      Diagnostic d;
      d.check_id = "lint.barrier";
      d.severity = Severity::Warning;
      d.loc = use->loc;
      d.message = "'" + use->name + "' is written in the '" +
                  directive_text(omp->directive) +
                  " nowait' construct at line " +
                  std::to_string(omp->directive.loc.line) +
                  " and used here without an intervening barrier; the "
                  "nowait clause removed the implicit barrier, so other "
                  "threads may still be writing";
      d.fixit = "#pragma omp barrier";
      d.pattern = "nowait";
      d.related.push_back(
          {omp->directive.loc, "'nowait' removes the implicit barrier here"});
      out.push_back(std::move(d));
      break;  // one explanation per nowait construct
    }
  }
}

}  // namespace

void check_barrier(const LintContext& ctx, std::vector<Diagnostic>& out) {
  for (const auto& fn : ctx.program.unit->functions) {
    if (!fn->body) continue;
    std::vector<OmpDirectiveKind> omp_stack;
    walk_barriers(*fn->body, omp_stack, 0, out);
  }
  for (const auto& region : ctx.regions) {
    if (region.stmt == nullptr || region.stmt->body == nullptr) continue;
    scan_nowait(region, *region.stmt->body, out);
  }
}

namespace {

bool conflicting(const AccessInfo& a, const AccessInfo& b) {
  return a.ctx.phase == b.ctx.phase && (a.is_write || b.is_write);
}

std::string pretty_name(const std::string& name) {
  return name.empty() ? "<unnamed>" : name;
}

void check_atomic_var(const VarDecl& var,
                      const std::vector<const AccessInfo*>& accesses,
                      std::vector<Diagnostic>& out) {
  // Representative guarded access per protection regime; prefer writes
  // so a read-only plain access still conflicts with the guarded write.
  const AccessInfo* atomic = nullptr;
  const AccessInfo* critical = nullptr;
  const AccessInfo* locked = nullptr;
  const auto prefer_write = [](const AccessInfo*& slot, const AccessInfo* a) {
    if (slot == nullptr || (!slot->is_write && a->is_write)) slot = a;
  };
  for (const auto* a : accesses) {
    if (a->ctx.atomic) prefer_write(atomic, a);
    if (a->ctx.in_critical) prefer_write(critical, a);
    if (!a->ctx.locks.empty()) prefer_write(locked, a);
  }

  // Plain access conflicting with a protected one.
  if (atomic != nullptr || locked != nullptr) {
    for (const auto* p : accesses) {
      if (!unprotected(p->ctx)) continue;
      const AccessInfo* guard =
          atomic != nullptr && conflicting(*p, *atomic) ? atomic
          : locked != nullptr && conflicting(*p, *locked) ? locked
                                                          : nullptr;
      if (guard == nullptr) continue;
      const bool is_atomic = guard == atomic;
      Diagnostic d;
      d.check_id = "lint.atomic";
      d.severity = Severity::Error;
      d.loc = p->loc;
      d.message = "'" + p->text + "' is accessed without protection here, "
                  "but the same variable is " +
                  (is_atomic ? "updated under '#pragma omp atomic'"
                             : "accessed while holding omp lock '" +
                                   guard->ctx.locks.front()->name + "'") +
                  " at " + loc_str(guard->loc) + "; " +
                  (is_atomic ? "atomicity" : "the lock") +
                  " only protects accesses that use it - every "
                  "concurrent access needs the same protection";
      if (is_atomic) d.fixit = "#pragma omp atomic";
      d.pattern = is_atomic ? "atomic-plus-plain" : "lock-partial";
      d.related.push_back({guard->loc, "protected access here"});
      out.push_back(std::move(d));
      break;  // one explanation per variable
    }
  }

  // Atomic and critical on the same variable do not exclude each other.
  if (atomic != nullptr && critical != nullptr &&
      conflicting(*atomic, *critical)) {
    Diagnostic d;
    d.check_id = "lint.atomic";
    d.severity = Severity::Warning;
    d.loc = critical->loc;
    d.message = "'" + var.name + "' is protected by '#pragma omp critical' "
                "here but by '#pragma omp atomic' at " +
                loc_str(atomic->loc) +
                "; atomic operations do not synchronize with critical "
                "sections, so the two accesses can still race";
    d.pattern = "atomic-critical-mix";
    d.related.push_back({atomic->loc, "atomic access here"});
    out.push_back(std::move(d));
  }

  // Differently named critical sections do not exclude each other.
  for (const auto* a : accesses) {
    if (!a->ctx.in_critical) continue;
    bool done = false;
    for (const auto* b : accesses) {
      if (b == a || !b->ctx.in_critical) continue;
      if (a->ctx.critical_name == b->ctx.critical_name) continue;
      if (!conflicting(*a, *b)) continue;
      Diagnostic d;
      d.check_id = "lint.atomic";
      d.severity = Severity::Error;
      d.loc = a->loc;
      d.message = "'" + var.name + "' is guarded by 'critical(" +
                  pretty_name(a->ctx.critical_name) + ")' here but by "
                  "'critical(" + pretty_name(b->ctx.critical_name) +
                  ")' at " + loc_str(b->loc) +
                  "; differently named critical sections use different "
                  "locks and do not exclude each other";
      d.pattern = "different-critical-names";
      d.related.push_back({b->loc, "conflicting critical section here"});
      out.push_back(std::move(d));
      done = true;
      break;
    }
    if (done) break;  // one explanation per variable
  }
}

}  // namespace

void check_atomic(const LintContext& ctx, std::vector<Diagnostic>& out) {
  for (const auto& region : ctx.regions) {
    std::map<const VarDecl*, std::vector<const AccessInfo*>> by_var;
    for (const auto& a : region.accesses) {
      if (a.var == nullptr || a.sharing != Sharing::Shared) continue;
      by_var[a.var].push_back(&a);
    }
    for (const auto& [var, accesses] : by_var) {
      check_atomic_var(*var, accesses, out);
    }
  }
}

std::vector<std::pair<std::string, std::string>> available_checks() {
  return {
      {"lint.race",
       "conflicting unsynchronized accesses to shared memory "
       "(static dependence analysis)"},
      {"lint.datashare",
       "data-sharing audit: default(none) violations and missing "
       "private/firstprivate clauses"},
      {"lint.reduction",
       "unprotected accumulation recognizable as an OpenMP reduction"},
      {"lint.lock",
       "OpenMP lock discipline: unpaired set/unset, re-acquisition, "
       "inconsistent acquisition order"},
      {"lint.barrier",
       "barrier nesting/asymmetry and nowait clauses that expose "
       "unfinished writes"},
      {"lint.atomic",
       "mixed protection: atomic vs plain, atomic vs critical, "
       "mismatched critical names, lock-vs-no-lock"},
  };
}

}  // namespace drbml::lint