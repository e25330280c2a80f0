#include "analysis/access.hpp"

#include <algorithm>

#include "analysis/affine.hpp"
#include "minic/printer.hpp"

namespace drbml::analysis {

using namespace minic;

const char* sharing_name(Sharing s) noexcept {
  switch (s) {
    case Sharing::Shared: return "shared";
    case Sharing::Private: return "private";
    case Sharing::FirstPrivate: return "firstprivate";
    case Sharing::LastPrivate: return "lastprivate";
    case Sharing::Reduction: return "reduction";
    case Sharing::Linear: return "linear";
    case Sharing::ThreadPrivate: return "threadprivate";
    case Sharing::LoopPrivate: return "loop-private";
  }
  return "?";
}

namespace {

/// Strips an array-section suffix from a clause variable item
/// ("a[0:n]" -> "a").
std::string base_name_of_clause_var(const std::string& item) {
  const std::size_t bracket = item.find('[');
  return bracket == std::string::npos ? item : item.substr(0, bracket);
}

/// The innermost base identifier of an access expression (for location and
/// canonical variable).
const Ident* base_ident(const Expr* e) {
  while (e != nullptr) {
    if (const auto* sub = expr_cast<Subscript>(e)) {
      e = sub->base.get();
      continue;
    }
    if (const auto* un = expr_cast<Unary>(e)) {
      if (un->op == UnaryOp::Deref || un->op == UnaryOp::AddrOf) {
        e = un->operand.get();
        continue;
      }
    }
    if (const auto* cast = expr_cast<Cast>(e)) {
      e = cast->operand.get();
      continue;
    }
    break;
  }
  return expr_cast<Ident>(e);
}

bool is_omp_runtime_call(const std::string& callee) {
  return callee.rfind("omp_", 0) == 0;
}

bool is_io_call(const std::string& callee) {
  return callee == "printf" || callee == "fprintf" || callee == "puts" ||
         callee == "putchar" || callee == "scanf" || callee == "exit" ||
         callee == "abort" || callee == "assert" || callee == "rand" ||
         callee == "srand" || callee == "atoi" || callee == "atof" ||
         callee == "fabs" || callee == "sqrt" || callee == "sin" ||
         callee == "cos" || callee == "exp" || callee == "log" ||
         callee == "pow" || callee == "fmax" || callee == "fmin" ||
         callee == "abs" || callee == "malloc" || callee == "calloc" ||
         callee == "free" || callee == "memset" || callee == "__sizeof" ||
         callee == "__init_list";
}

enum class Mode { Read, Write, ReadWrite };

class RegionCollector {
 public:
  RegionCollector(const Resolution& res, const ConstantMap& consts)
      : res_(res), consts_(consts) {}

  ParallelRegion collect(const OmpStmt& stmt) {
    region_.stmt = &stmt;
    region_.simd_only = stmt.directive.kind == OmpDirectiveKind::Simd ||
                        (stmt.directive.kind == OmpDirectiveKind::ForSimd &&
                         !stmt.directive.forks_team());
    walk_omp(stmt, /*is_region_root=*/true);
    return std::move(region_);
  }

 private:
  // -- sharing ---------------------------------------------------------------

  struct SharingOverride {
    std::string name;
    std::optional<Sharing> previous;
  };

  std::vector<SharingOverride> apply_clauses(const OmpDirective& dir) {
    std::vector<SharingOverride> saved;
    auto apply = [&](const OmpClause& c, Sharing s) {
      for (const auto& item : c.vars) {
        const std::string name = base_name_of_clause_var(item);
        SharingOverride ov;
        ov.name = name;
        auto it = clause_sharing_.find(name);
        if (it != clause_sharing_.end()) ov.previous = it->second;
        saved.push_back(ov);
        clause_sharing_[name] = s;
      }
    };
    for (const auto& c : dir.clauses) {
      switch (c.kind) {
        case OmpClauseKind::Private: apply(c, Sharing::Private); break;
        case OmpClauseKind::FirstPrivate: apply(c, Sharing::FirstPrivate); break;
        case OmpClauseKind::LastPrivate: apply(c, Sharing::LastPrivate); break;
        case OmpClauseKind::Shared: apply(c, Sharing::Shared); break;
        case OmpClauseKind::Reduction: apply(c, Sharing::Reduction); break;
        case OmpClauseKind::Linear: apply(c, Sharing::Linear); break;
        default: break;
      }
    }
    return saved;
  }

  void restore_clauses(const std::vector<SharingOverride>& saved) {
    // Restore in reverse so nested shadowing unwinds correctly.
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      if (it->previous) {
        clause_sharing_[it->name] = *it->previous;
      } else {
        clause_sharing_.erase(it->name);
      }
    }
  }

  [[nodiscard]] Sharing classify(const VarDecl* var,
                                 const std::string& name) const {
    auto it = clause_sharing_.find(name);
    if (it != clause_sharing_.end()) return it->second;
    if (res_.is_threadprivate(var)) return Sharing::ThreadPrivate;
    if (declared_inside_.count(var) != 0) return Sharing::Private;
    for (const auto& li : dist_loops_) {
      if (li.induction == var) return Sharing::LoopPrivate;
    }
    return Sharing::Shared;
  }

  // -- statements -------------------------------------------------------------

  void walk_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        for (const auto& v : d.decls) {
          declared_inside_.insert(v.get());
          for (const auto& dim : v->array_dims) {
            if (dim) walk_expr(*dim, Mode::Read);
          }
          if (v->init) walk_expr(*v->init, Mode::Read);
        }
        break;
      }
      case StmtKind::Expr: {
        const auto& e = static_cast<const ExprStmt&>(s);
        track_locks(*e.expr);
        walk_expr(*e.expr, Mode::Read);
        break;
      }
      case StmtKind::Compound:
        for (const auto& st : static_cast<const CompoundStmt&>(s).body) {
          walk_stmt(*st);
        }
        break;
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(s);
        walk_expr(*i.cond, Mode::Read);
        walk_stmt(*i.then_branch);
        if (i.else_branch) walk_stmt(*i.else_branch);
        break;
      }
      case StmtKind::For:
        walk_sequential_loop(static_cast<const ForStmt&>(s));
        break;
      case StmtKind::While: {
        const auto& w = static_cast<const WhileStmt&>(s);
        walk_expr(*w.cond, Mode::Read);
        const bool saved = in_loop_;
        in_loop_ = true;
        walk_stmt(*w.body);
        in_loop_ = saved;
        break;
      }
      case StmtKind::Do: {
        const auto& d = static_cast<const DoStmt&>(s);
        const bool saved = in_loop_;
        in_loop_ = true;
        walk_stmt(*d.body);
        in_loop_ = saved;
        walk_expr(*d.cond, Mode::Read);
        break;
      }
      case StmtKind::Return: {
        const auto& r = static_cast<const ReturnStmt&>(s);
        if (r.value) walk_expr(*r.value, Mode::Read);
        break;
      }
      case StmtKind::Omp:
        walk_omp(static_cast<const OmpStmt&>(s), /*is_region_root=*/false);
        break;
      default:
        break;
    }
  }

  void walk_sequential_loop(const ForStmt& f) {
    // Loop-control accesses happen on whichever thread runs the loop.
    if (f.init) walk_stmt_loop_control(*f.init);
    if (f.cond) walk_expr(*f.cond, Mode::Read);

    std::optional<LoopInfo> info = analyze_loop(f, consts_);
    const bool pushed = info.has_value();
    if (pushed) {
      info->distributed = false;
      seq_loops_.push_back(*info);
    }
    const bool saved = in_loop_;
    in_loop_ = true;
    walk_stmt(*f.body);
    if (f.inc) walk_expr(*f.inc, Mode::Read);
    in_loop_ = saved;
    if (pushed) seq_loops_.pop_back();
  }

  /// For-init: declarations register as region-private; assignments record
  /// accesses normally.
  void walk_stmt_loop_control(const Stmt& s) {
    if (const auto* d = stmt_cast<DeclStmt>(&s)) {
      for (const auto& v : d->decls) {
        declared_inside_.insert(v.get());
        if (v->init) walk_expr(*v->init, Mode::Read);
      }
      return;
    }
    if (const auto* e = stmt_cast<ExprStmt>(&s)) {
      walk_expr(*e->expr, Mode::Read);
    }
  }

  void walk_omp(const OmpStmt& s, bool is_region_root) {
    const OmpDirective& dir = s.directive;
    auto saved_clauses = apply_clauses(dir);

    switch (dir.kind) {
      case OmpDirectiveKind::Parallel:
      case OmpDirectiveKind::Target: {
        if (s.body) walk_stmt(*s.body);
        break;
      }
      case OmpDirectiveKind::ParallelFor:
      case OmpDirectiveKind::ParallelForSimd:
      case OmpDirectiveKind::TargetParallelFor:
      case OmpDirectiveKind::For:
      case OmpDirectiveKind::ForSimd:
      case OmpDirectiveKind::Simd: {
        walk_distributed_loop(s);
        // Implicit barrier at the end of a worksharing loop (not for the
        // region root, whose join ends the region anyway).
        if (!is_region_root &&
            (dir.kind == OmpDirectiveKind::For ||
             dir.kind == OmpDirectiveKind::ForSimd) &&
            !dir.has_clause(OmpClauseKind::Nowait)) {
          advance_phase("for-join", s.loc);
        }
        break;
      }
      case OmpDirectiveKind::Critical: {
        const bool saved = ctx_.in_critical;
        const std::string saved_name = ctx_.critical_name;
        ctx_.in_critical = true;
        ctx_.critical_name = dir.critical_name;
        if (s.body) walk_stmt(*s.body);
        ctx_.in_critical = saved;
        ctx_.critical_name = saved_name;
        break;
      }
      case OmpDirectiveKind::Atomic: {
        const VarDecl* saved_target = atomic_target_;
        atomic_target_ = find_atomic_target(s);
        if (s.body) walk_stmt(*s.body);
        atomic_target_ = saved_target;
        break;
      }
      case OmpDirectiveKind::Barrier:
        advance_phase("barrier", s.loc);
        break;
      case OmpDirectiveKind::Single:
      case OmpDirectiveKind::Master: {
        const int saved_once = ctx_.exec_once_id;
        // All master blocks run on the master thread: they share identity.
        ctx_.exec_once_id = dir.kind == OmpDirectiveKind::Master
                                ? kMasterOnceId
                                : next_once_id_++;
        if (s.body) walk_stmt(*s.body);
        ctx_.exec_once_id = saved_once;
        if (dir.kind == OmpDirectiveKind::Single &&
            !dir.has_clause(OmpClauseKind::Nowait)) {
          advance_phase("single-join", s.loc);  // implicit barrier
        }
        break;
      }
      case OmpDirectiveKind::Sections:
      case OmpDirectiveKind::ParallelSections: {
        if (const auto* block = stmt_cast<CompoundStmt>(s.body.get())) {
          for (const auto& child : block->body) {
            if (const auto* sec = stmt_cast<OmpStmt>(child.get());
                sec != nullptr &&
                sec->directive.kind == OmpDirectiveKind::Section) {
              const int saved_once = ctx_.exec_once_id;
              ctx_.exec_once_id = next_once_id_++;
              auto sec_clauses = apply_clauses(sec->directive);
              if (sec->body) walk_stmt(*sec->body);
              restore_clauses(sec_clauses);
              ctx_.exec_once_id = saved_once;
            } else {
              walk_stmt(*child);
            }
          }
        } else if (s.body) {
          walk_stmt(*s.body);
        }
        if (!dir.has_clause(OmpClauseKind::Nowait)) {
          advance_phase("sections-join", s.loc);
        }
        break;
      }
      case OmpDirectiveKind::Section: {
        // Orphaned section (outside our Sections handling): treat as once.
        const int saved_once = ctx_.exec_once_id;
        ctx_.exec_once_id = next_once_id_++;
        if (s.body) walk_stmt(*s.body);
        ctx_.exec_once_id = saved_once;
        break;
      }
      case OmpDirectiveKind::Task: {
        const int saved_task = ctx_.task_id;
        const bool saved_in_loop_task = ctx_.task_in_loop;
        const auto saved_depends = ctx_.depends;
        ctx_.task_id = next_task_id_++;
        ctx_.task_in_loop = in_loop_;
        ctx_.depends.clear();
        // Loop variables enclosing the spawn are iteration-distinct per
        // task instance (implicit/explicit firstprivate): model them as
        // distributed so subscript tests distinguish instances.
        const std::size_t promoted = seq_loops_.size();
        for (auto& li : seq_loops_) {
          LoopInfo dist = li;
          dist.distributed = true;
          dist_loops_.push_back(dist);
        }
        seq_loops_.clear();
        for (const auto& c : dir.clauses) {
          if (c.kind == OmpClauseKind::Depend) {
            for (const auto& v : c.vars) {
              ctx_.depends.emplace_back(c.arg, v);
            }
          }
        }
        if (s.body) walk_stmt(*s.body);
        for (std::size_t i = 0; i < promoted; ++i) {
          seq_loops_.push_back(dist_loops_.back());
          seq_loops_.back().distributed = false;
          dist_loops_.pop_back();
        }
        std::reverse(seq_loops_.begin(), seq_loops_.end());
        ctx_.task_id = saved_task;
        ctx_.task_in_loop = saved_in_loop_task;
        ctx_.depends = saved_depends;
        break;
      }
      case OmpDirectiveKind::Taskwait:
        ++ctx_.task_phase;
        break;
      case OmpDirectiveKind::Ordered: {
        const bool saved = ctx_.ordered;
        ctx_.ordered = true;
        if (s.body) walk_stmt(*s.body);
        ctx_.ordered = saved;
        break;
      }
      case OmpDirectiveKind::Flush:
      case OmpDirectiveKind::Threadprivate:
        break;
    }
    restore_clauses(saved_clauses);
  }

  void walk_distributed_loop(const OmpStmt& s) {
    const OmpDirective& dir = s.directive;
    const bool simd = dir.kind == OmpDirectiveKind::Simd ||
                      dir.kind == OmpDirectiveKind::ForSimd ||
                      dir.kind == OmpDirectiveKind::ParallelForSimd;
    std::int64_t safelen = 0;
    if (const auto* c = dir.find_clause(OmpClauseKind::Safelen)) {
      safelen = c->int_arg;
    }
    std::int64_t collapse = 1;
    if (const auto* c = dir.find_clause(OmpClauseKind::Collapse)) {
      collapse = std::max<std::int64_t>(1, c->int_arg);
    }

    const Stmt* body = s.body.get();
    // Unwrap a compound holding a single for.
    while (const auto* block = stmt_cast<CompoundStmt>(body)) {
      if (block->body.size() != 1) break;
      body = block->body[0].get();
    }

    std::size_t pushed = 0;
    const Stmt* cursor = body;
    for (std::int64_t level = 0; level < collapse; ++level) {
      const auto* loop = stmt_cast<ForStmt>(cursor);
      if (loop == nullptr) break;
      std::optional<LoopInfo> info = analyze_loop(*loop, consts_);
      if (!info) {
        // Record control accesses of the unrecognized loop and stop.
        if (loop->init) walk_stmt_loop_control(*loop->init);
        if (loop->cond) walk_expr(*loop->cond, Mode::Read);
        if (loop->inc) walk_expr(*loop->inc, Mode::Read);
        break;
      }
      info->distributed = true;
      info->simd = simd;
      info->safelen = safelen;
      // Push before walking the loop-control expressions so the induction
      // variable classifies as loop-private in `i = 0` / `i < n` / `i++`.
      dist_loops_.push_back(*info);
      ++pushed;
      if (loop->init) walk_stmt_loop_control(*loop->init);
      if (loop->cond) walk_expr(*loop->cond, Mode::Read);
      if (loop->inc) walk_expr(*loop->inc, Mode::Read);
      cursor = loop->body.get();
      while (const auto* block = stmt_cast<CompoundStmt>(cursor)) {
        if (block->body.size() != 1 || level + 1 >= collapse) break;
        cursor = block->body[0].get();
      }
    }

    if (pushed == 0) {
      // Unrecognized loop shape: walk the body anyway so accesses are not
      // lost; everything is treated as concurrent with unknown iteration.
      if (s.body) {
        const bool saved = in_loop_;
        in_loop_ = true;
        walk_stmt(*s.body);
        in_loop_ = saved;
      }
      return;
    }

    const bool saved = in_loop_;
    in_loop_ = true;
    walk_stmt(*cursor);
    in_loop_ = saved;
    for (std::size_t i = 0; i < pushed; ++i) dist_loops_.pop_back();
  }

  void advance_phase(const char* kind, const SourceLoc& loc) {
    ++ctx_.phase;
    PhaseBoundary b;
    b.phase_after = ctx_.phase;
    b.kind = kind;
    b.loc = loc;
    region_.boundaries.push_back(std::move(b));
  }

  [[nodiscard]] const VarDecl* find_atomic_target(const OmpStmt& s) const {
    const Stmt* body = s.body.get();
    while (const auto* block = stmt_cast<CompoundStmt>(body)) {
      if (block->body.size() != 1) break;
      body = block->body[0].get();
    }
    const auto* es = stmt_cast<ExprStmt>(body);
    if (es == nullptr) return nullptr;
    const Expr* e = es->expr.get();
    if (const auto* a = expr_cast<Assign>(e)) {
      // `atomic read` protects the location being read, not the target.
      const Expr* side = s.directive.atomic_kind == OmpAtomicKind::Read
                             ? a->value.get()
                             : a->target.get();
      if (const Ident* id = base_ident(side)) return id->decl;
      return nullptr;
    }
    if (const auto* u = expr_cast<Unary>(e)) {
      if (const Ident* id = base_ident(u->operand.get())) return id->decl;
    }
    return nullptr;
  }

  // -- locks -------------------------------------------------------------------

  void track_locks(const Expr& e) {
    const auto* call = expr_cast<Call>(&e);
    if (call == nullptr || call->args.empty()) return;
    const bool set = call->callee == "omp_set_lock" ||
                     call->callee == "omp_set_nest_lock";
    const bool unset = call->callee == "omp_unset_lock" ||
                       call->callee == "omp_unset_nest_lock";
    if (!set && !unset) return;
    const Ident* id = base_ident(call->args[0].get());
    if (id == nullptr || id->decl == nullptr) return;
    if (set) {
      ctx_.locks.push_back(id->decl);
    } else {
      auto it = std::find(ctx_.locks.begin(), ctx_.locks.end(), id->decl);
      if (it != ctx_.locks.end()) ctx_.locks.erase(it);
    }
  }

  // -- expressions --------------------------------------------------------------

  void walk_expr(const Expr& e, Mode mode) {
    switch (e.kind) {
      case ExprKind::Ident: {
        const auto& id = static_cast<const Ident&>(e);
        if (id.decl == nullptr) return;
        // A bare array/pointer name evaluates to an address, not memory.
        if (id.decl->is_array() || id.decl->type.is_pointer()) return;
        record_access(e, mode);
        return;
      }
      case ExprKind::Subscript: {
        record_access(e, mode);
        // Subscript indices are reads.
        const Expr* cur = &e;
        while (const auto* sub = expr_cast<Subscript>(cur)) {
          walk_expr(*sub->index, Mode::Read);
          cur = sub->base.get();
        }
        return;
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const Unary&>(e);
        switch (u.op) {
          case UnaryOp::PreInc:
          case UnaryOp::PreDec:
          case UnaryOp::PostInc:
          case UnaryOp::PostDec:
            walk_expr(*u.operand, Mode::ReadWrite);
            return;
          case UnaryOp::AddrOf:
            // Taking an address is not an access.
            return;
          case UnaryOp::Deref:
            record_access(e, mode);
            return;
          default:
            walk_expr(*u.operand, Mode::Read);
            return;
        }
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const Binary&>(e);
        walk_expr(*b.lhs, Mode::Read);
        walk_expr(*b.rhs, Mode::Read);
        return;
      }
      case ExprKind::Assign: {
        const auto& a = static_cast<const Assign&>(e);
        walk_expr(*a.target,
                  a.op == AssignOp::Assign ? Mode::Write : Mode::ReadWrite);
        walk_expr(*a.value, Mode::Read);
        return;
      }
      case ExprKind::Conditional: {
        const auto& c = static_cast<const Conditional&>(e);
        walk_expr(*c.cond, Mode::Read);
        walk_expr(*c.then_expr, Mode::Read);
        walk_expr(*c.else_expr, Mode::Read);
        return;
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const Call&>(e);
        const bool known = is_omp_runtime_call(c.callee) || is_io_call(c.callee);
        for (const auto& arg : c.args) {
          const Ident* id = base_ident(arg.get());
          const bool is_memory_arg =
              id != nullptr && id->decl != nullptr &&
              (id->decl->is_array() || id->decl->type.is_pointer() ||
               arg->kind == ExprKind::Unary);
          if (!known && is_memory_arg &&
              (expr_cast<Ident>(arg.get()) != nullptr ||
               (expr_cast<Unary>(arg.get()) != nullptr &&
                static_cast<const Unary&>(*arg).op == UnaryOp::AddrOf))) {
            continue;  // whole object handed to an unknown function
          }
          walk_expr(*arg, Mode::Read);
        }
        return;
      }
      case ExprKind::Cast:
        walk_expr(*static_cast<const Cast&>(e).operand, Mode::Read);
        return;
      default:
        return;
    }
  }

  void record_access(const Expr& e, Mode mode) {
    const Ident* id = base_ident(&e);
    if (id == nullptr || id->decl == nullptr) return;
    AccessInfo info;
    info.var = res_.canonical(id->decl);
    info.expr = &e;
    info.loc = id->loc;
    info.text = expr_to_string(e);
    info.sharing = classify(info.var, id->name);
    info.ctx = ctx_;
    if (atomic_target_ != nullptr && id->decl == atomic_target_) {
      info.ctx.atomic = true;
    }
    info.dist_loops = dist_loops_;
    info.seq_loops = seq_loops_;

    // Subscripts, outermost first.
    std::vector<const Expr*> subs;
    const Expr* cur = &e;
    while (true) {
      if (const auto* sub = expr_cast<Subscript>(cur)) {
        subs.push_back(sub->index.get());
        cur = sub->base.get();
        continue;
      }
      if (const auto* un = expr_cast<Unary>(cur)) {
        if (un->op == UnaryOp::Deref) {
          subs.push_back(nullptr);  // unknown index
          cur = un->operand.get();
          continue;
        }
      }
      break;
    }
    std::reverse(subs.begin(), subs.end());
    info.subscripts = std::move(subs);

    if (mode == Mode::ReadWrite) {
      info.is_write = false;
      region_.accesses.push_back(info);
      info.is_write = true;
      region_.accesses.push_back(std::move(info));
    } else {
      info.is_write = mode == Mode::Write;
      region_.accesses.push_back(std::move(info));
    }
  }

  static constexpr int kMasterOnceId = -2;

  const Resolution& res_;
  const ConstantMap& consts_;
  ParallelRegion region_;

  SyncContext ctx_;
  std::vector<LoopInfo> dist_loops_;
  std::vector<LoopInfo> seq_loops_;
  std::map<std::string, Sharing> clause_sharing_;
  std::set<const VarDecl*> declared_inside_;
  int next_once_id_ = 0;
  int next_task_id_ = 0;
  const VarDecl* atomic_target_ = nullptr;
  bool in_loop_ = false;
};

/// Finds region roots in a statement tree.
class RegionFinder {
 public:
  RegionFinder(const TranslationUnit& unit, const FunctionDecl& fn,
               const Resolution& res, std::vector<ParallelRegion>& out)
      : unit_(unit), fn_(fn), res_(res), out_(out) {}

  void walk(const Stmt& s) {
    if (const auto* omp = stmt_cast<OmpStmt>(&s)) {
      const auto kind = omp->directive.kind;
      const bool is_root = omp->directive.forks_team() ||
                           kind == OmpDirectiveKind::Simd ||
                           kind == OmpDirectiveKind::ForSimd;
      if (is_root) {
        // The function's constants are built once, at its first region.
        if (!consts_) {
          consts_ = std::make_shared<const ConstantMap>(
              ConstantMap::build(unit_, fn_));
        }
        ParallelRegion region =
            RegionCollector(res_, *consts_).collect(*omp);
        region.consts = consts_;
        out_.push_back(std::move(region));
        return;  // nested constructs were handled inside the collector
      }
      if (kind == OmpDirectiveKind::Target && omp->body) {
        walk(*omp->body);  // look for parallel inside target
        return;
      }
      if (omp->body) walk(*omp->body);
      return;
    }
    switch (s.kind) {
      case StmtKind::Compound:
        for (const auto& st : static_cast<const CompoundStmt&>(s).body) {
          walk(*st);
        }
        break;
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(s);
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
      default:
        break;
    }
  }

 private:
  const TranslationUnit& unit_;
  const FunctionDecl& fn_;
  const Resolution& res_;
  std::vector<ParallelRegion>& out_;
  std::shared_ptr<const ConstantMap> consts_;
};

}  // namespace

std::optional<LoopInfo> analyze_loop(const ForStmt& loop,
                                     const ConstantMap& consts) {
  LoopInfo info;
  info.loop = &loop;

  // Induction variable and initial value.
  const Expr* init_value = nullptr;
  if (const auto* d = stmt_cast<DeclStmt>(loop.init.get())) {
    if (d->decls.size() != 1) return std::nullopt;
    info.induction = d->decls[0].get();
    init_value = d->decls[0]->init.get();
  } else if (const auto* es = stmt_cast<ExprStmt>(loop.init.get())) {
    const auto* a = expr_cast<Assign>(es->expr.get());
    if (a == nullptr || a->op != AssignOp::Assign) return std::nullopt;
    const auto* id = expr_cast<Ident>(a->target.get());
    if (id == nullptr || id->decl == nullptr) return std::nullopt;
    info.induction = id->decl;
    init_value = a->value.get();
  } else {
    return std::nullopt;
  }

  // Step from the increment.
  std::int64_t step = 0;
  if (const auto* u = expr_cast<Unary>(loop.inc.get())) {
    const auto* id = expr_cast<Ident>(u->operand.get());
    if (id == nullptr || id->decl != info.induction) return std::nullopt;
    switch (u->op) {
      case UnaryOp::PreInc:
      case UnaryOp::PostInc: step = 1; break;
      case UnaryOp::PreDec:
      case UnaryOp::PostDec: step = -1; break;
      default: return std::nullopt;
    }
  } else if (const auto* a = expr_cast<Assign>(loop.inc.get())) {
    const auto* id = expr_cast<Ident>(a->target.get());
    if (id == nullptr || id->decl != info.induction) return std::nullopt;
    auto delta = consts.eval(*a->value);
    if (a->op == AssignOp::Add && delta) {
      step = *delta;
    } else if (a->op == AssignOp::Sub && delta) {
      step = -*delta;
    } else if (a->op == AssignOp::Assign) {
      // i = i + k  or  i = i - k
      const auto* b = expr_cast<Binary>(a->value.get());
      if (b == nullptr) return std::nullopt;
      const auto* lhs_id = expr_cast<Ident>(b->lhs.get());
      auto k = consts.eval(*b->rhs);
      if (lhs_id == nullptr || lhs_id->decl != info.induction || !k) {
        return std::nullopt;
      }
      if (b->op == BinaryOp::Add) step = *k;
      else if (b->op == BinaryOp::Sub) step = -*k;
      else return std::nullopt;
    } else {
      return std::nullopt;
    }
  } else {
    return std::nullopt;
  }
  if (step == 0) return std::nullopt;
  info.step = step;

  // Bounds: `init` on the step-entry side, condition on the exit side.
  std::optional<std::int64_t> init_const;
  std::optional<TidForm> init_tid;
  if (init_value != nullptr) {
    init_const = consts.eval(*init_value);
    if (!init_const) init_tid = consts.tid_eval(*init_value);
  }

  std::optional<std::int64_t> limit;
  std::optional<TidForm> limit_tid;
  bool limit_inclusive = false;
  if (const auto* cond = expr_cast<Binary>(loop.cond.get())) {
    const auto* id = expr_cast<Ident>(cond->lhs.get());
    if (id != nullptr && id->decl == info.induction) {
      bool shape_ok = true;
      switch (cond->op) {
        case BinaryOp::Lt: limit_inclusive = false; break;
        case BinaryOp::Le: limit_inclusive = true; break;
        case BinaryOp::Gt: limit_inclusive = false; break;
        case BinaryOp::Ge: limit_inclusive = true; break;
        case BinaryOp::Ne: limit_inclusive = false; break;
        default: shape_ok = false; break;
      }
      if (shape_ok) {
        limit = consts.eval(*cond->rhs);
        if (!limit) limit_tid = consts.tid_eval(*cond->rhs);
      }
    }
  }

  // The exclusive-bound adjustment (strict comparison) applied to either
  // the constant or the thread-id form.
  const auto adjust_tid = [](TidForm f, std::int64_t delta) {
    f.constant += delta;
    return f;
  };
  if (step > 0) {
    info.lower = init_const;
    if (!init_const && init_tid) info.lower_tid = init_tid;
    if (limit) {
      info.upper = limit_inclusive ? *limit : *limit - 1;
    } else if (limit_tid) {
      info.upper_tid = adjust_tid(*limit_tid, limit_inclusive ? 0 : -1);
    }
  } else {
    info.upper = init_const;
    if (!init_const && init_tid) info.upper_tid = init_tid;
    if (limit) {
      info.lower = limit_inclusive ? *limit : *limit + 1;
    } else if (limit_tid) {
      info.lower_tid = adjust_tid(*limit_tid, limit_inclusive ? 0 : 1);
    }
  }
  return info;
}

std::vector<ParallelRegion> collect_regions(const TranslationUnit& unit,
                                            const Resolution& res) {
  std::vector<ParallelRegion> regions;
  for (const auto& fn : unit.functions) {
    if (!fn->body) continue;
    RegionFinder(unit, *fn, res, regions).walk(*fn->body);
  }
  return regions;
}

}  // namespace drbml::analysis
