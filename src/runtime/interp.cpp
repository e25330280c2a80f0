#include "runtime/interp.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "minic/printer.hpp"
#include "obs/catalog.hpp"
#include "runtime/bc/bc.hpp"
#include "runtime/bc/compile.hpp"
#include "runtime/memory.hpp"
#include "runtime/sched.hpp"
#include "runtime/strategy.hpp"
#include "runtime/vc.hpp"
#include "support/hash.hpp"

namespace drbml::runtime {

using namespace minic;

namespace {

using Frame = std::map<const VarDecl*, ObjRef>;

/// Control-flow signal from statement execution (`return` unwinds as a
/// ReturnSignal instead).
enum class Flow { Normal, Break, Continue };

struct LockState {
  bool held = false;
  int owner = -1;
  VectorClock vc;
};

struct OrderedLoopState {
  std::int64_t next = 0;
  std::int64_t step = 1;
  bool initialized = false;
  VectorClock vc;
};

/// Shared state of one thread team.
struct TeamState {
  int size = 1;
  CoopScheduler* sched = nullptr;

  // Explicit/implicit barriers.
  VectorClock bar_acc;
  VectorClock bar_result;
  int bar_arrived = 0;

  // single construct claims: construct -> number of visits claimed.
  std::map<const void*, int> single_claimed;

  // critical sections by name; OpenMP locks by address; atomics by element.
  std::map<std::string, LockState> critical;
  std::map<std::pair<int, std::int64_t>, LockState> locks;
  std::map<std::pair<int, std::int64_t>, VectorClock> atomic_vc;
  LockState reduction_lock;

  // ordered constructs, keyed by the worksharing loop.
  std::map<const void*, OrderedLoopState> ordered;

  // tasks
  std::vector<VectorClock> finished_task_vcs;
  std::map<const VarDecl*, VectorClock> depend_out;
  std::map<const VarDecl*, VectorClock> depend_in_acc;

  // lastprivate write-back values captured by the last iteration's owner.
  std::map<const VarDecl*, Value> lastprivate;
};

/// A lastprivate binding awaiting write-back from the last iteration.
struct LastSlot {
  const VarDecl* decl = nullptr;
  ObjRef priv;
  ObjRef shared_ref;
};

/// Per-logical-thread execution context.
struct ThreadCtx {
  int tid = 0;         // logical id for vector clocks
  int team_index = 0;  // OpenMP thread number within the team
  TeamState* team = nullptr;
  VectorClock vc;
  std::vector<Frame> frames;
  std::vector<VectorClock> my_task_vcs;
  std::map<const void*, int> single_visits;
  // ordered-loop bookkeeping while running a worksharing loop.
  OrderedLoopState* ordered_state = nullptr;
  std::int64_t cur_iter = 0;
  int no_yield_depth = 0;  // inside atomic: suppress preemption
  int call_depth = 0;      // nested user-function calls (kMaxCallDepth)
  std::vector<LastSlot> last_slots;

  // VM register arena: bump-allocated frames for nested chunk
  // invocations. Sized once and never reallocated (live RegSpans hold
  // pointers into it).
  std::vector<Value> reg_arena;
  std::size_t reg_top = 0;
};

/// Hard cap on the per-ThreadCtx register arena; frames beyond it spill
/// to the heap. The actual arena is sized per module (a multiple of its
/// largest chunk frame), because a fresh ThreadCtx exists per worker per
/// parallel region and value-initializing a worst-case arena each time
/// dominated the VM's runtime.
constexpr std::size_t kRegArenaCap = 4096;

/// RAII register frame for one chunk invocation, carved from the
/// context's arena (or heap-allocated on overflow). `arena_size` is the
/// lazily-applied first-use size of the context's arena (live RegSpans
/// hold raw pointers into it, so it never grows afterwards).
struct RegSpan {
  ThreadCtx& ctx;
  std::size_t saved_top;
  Value* regs = nullptr;
  std::vector<Value> overflow;

  RegSpan(ThreadCtx& c, std::size_t need, std::size_t arena_size)
      : ctx(c), saved_top(c.reg_top) {
    if (ctx.reg_arena.empty()) ctx.reg_arena.resize(arena_size);
    if (ctx.reg_top + need <= ctx.reg_arena.size()) {
      regs = ctx.reg_arena.data() + ctx.reg_top;
      ctx.reg_top += need;
    } else {
      overflow.resize(need);
      regs = overflow.data();
    }
  }
  RegSpan(const RegSpan&) = delete;
  RegSpan& operator=(const RegSpan&) = delete;
  ~RegSpan() { ctx.reg_top = saved_top; }
};

/// A pending reduction: combine `priv` into `shared_ref` with `op`.
struct PendingReduction {
  const VarDecl* decl = nullptr;
  std::string op;
  ObjRef priv;
  ObjRef shared_ref;
};

/// Result of applying data-sharing clauses at construct entry.
struct ClauseResult {
  std::vector<PendingReduction> reductions;
  int last_slots_pushed = 0;
};

/// Signals `exit(n)` unwinding the whole program.
struct ExitSignal {
  int code = 0;
};

struct LoopBounds {
  const VarDecl* induction = nullptr;
  std::int64_t first = 0;
  std::int64_t count = 0;  // number of iterations
  std::int64_t step = 1;
};

Value identity_for(const std::string& op, bool floating) {
  if (op == "*") return floating ? Value::of_double(1.0) : Value::of_int(1);
  if (op == "&") return Value::of_int(-1);
  if (op == "&&") return Value::of_int(1);
  if (op == "min") {
    return floating ? Value::of_double(std::numeric_limits<double>::infinity())
                    : Value::of_int(std::numeric_limits<std::int64_t>::max());
  }
  if (op == "max") {
    return floating
               ? Value::of_double(-std::numeric_limits<double>::infinity())
               : Value::of_int(std::numeric_limits<std::int64_t>::min());
  }
  // +, -, |, ^, ||
  return floating ? Value::of_double(0.0) : Value::of_int(0);
}

Value combine_for(const std::string& op, const Value& a, const Value& b,
                  bool floating) {
  if (floating) {
    const double x = a.as_double();
    const double y = b.as_double();
    if (op == "+") return Value::of_double(x + y);
    if (op == "-") return Value::of_double(x + y);  // OpenMP `-` sums too
    if (op == "*") return Value::of_double(x * y);
    if (op == "min") return Value::of_double(std::min(x, y));
    if (op == "max") return Value::of_double(std::max(x, y));
    if (op == "&&") return Value::of_int((x != 0.0 && y != 0.0) ? 1 : 0);
    if (op == "||") return Value::of_int((x != 0.0 || y != 0.0) ? 1 : 0);
    return Value::of_double(x + y);
  }
  const std::int64_t x = a.as_int();
  const std::int64_t y = b.as_int();
  if (op == "+") return Value::of_int(x + y);
  if (op == "-") return Value::of_int(x + y);
  if (op == "*") return Value::of_int(x * y);
  if (op == "&") return Value::of_int(x & y);
  if (op == "|") return Value::of_int(x | y);
  if (op == "^") return Value::of_int(x ^ y);
  if (op == "&&") return Value::of_int((x != 0 && y != 0) ? 1 : 0);
  if (op == "||") return Value::of_int((x != 0 || y != 0) ? 1 : 0);
  if (op == "min") return Value::of_int(std::min(x, y));
  if (op == "max") return Value::of_int(std::max(x, y));
  return Value::of_int(x + y);
}

/// Collects the distinct declarations referenced by a statement subtree.
void collect_idents(const Stmt* s, std::set<const VarDecl*>& out);

void collect_idents_expr(const Expr* e, std::set<const VarDecl*>& out) {
  if (e == nullptr) return;
  switch (e->kind) {
    case ExprKind::Ident: {
      const auto* id = static_cast<const Ident*>(e);
      if (id->decl != nullptr) out.insert(id->decl);
      break;
    }
    case ExprKind::Subscript: {
      const auto* sub = static_cast<const Subscript*>(e);
      collect_idents_expr(sub->base.get(), out);
      collect_idents_expr(sub->index.get(), out);
      break;
    }
    case ExprKind::Unary:
      collect_idents_expr(static_cast<const Unary*>(e)->operand.get(), out);
      break;
    case ExprKind::Binary: {
      const auto* b = static_cast<const Binary*>(e);
      collect_idents_expr(b->lhs.get(), out);
      collect_idents_expr(b->rhs.get(), out);
      break;
    }
    case ExprKind::Assign: {
      const auto* a = static_cast<const Assign*>(e);
      collect_idents_expr(a->target.get(), out);
      collect_idents_expr(a->value.get(), out);
      break;
    }
    case ExprKind::Conditional: {
      const auto* c = static_cast<const Conditional*>(e);
      collect_idents_expr(c->cond.get(), out);
      collect_idents_expr(c->then_expr.get(), out);
      collect_idents_expr(c->else_expr.get(), out);
      break;
    }
    case ExprKind::Call: {
      const auto* c = static_cast<const Call*>(e);
      for (const auto& arg : c->args) collect_idents_expr(arg.get(), out);
      break;
    }
    case ExprKind::Cast:
      collect_idents_expr(static_cast<const Cast*>(e)->operand.get(), out);
      break;
    default:
      break;
  }
}

void collect_idents(const Stmt* s, std::set<const VarDecl*>& out) {
  if (s == nullptr) return;
  switch (s->kind) {
    case StmtKind::Decl: {
      const auto* d = static_cast<const DeclStmt*>(s);
      for (const auto& v : d->decls) {
        for (const auto& dim : v->array_dims) collect_idents_expr(dim.get(), out);
        collect_idents_expr(v->init.get(), out);
      }
      break;
    }
    case StmtKind::Expr:
      collect_idents_expr(static_cast<const ExprStmt*>(s)->expr.get(), out);
      break;
    case StmtKind::Compound:
      for (const auto& st : static_cast<const CompoundStmt*>(s)->body) {
        collect_idents(st.get(), out);
      }
      break;
    case StmtKind::If: {
      const auto* i = static_cast<const IfStmt*>(s);
      collect_idents_expr(i->cond.get(), out);
      collect_idents(i->then_branch.get(), out);
      collect_idents(i->else_branch.get(), out);
      break;
    }
    case StmtKind::For: {
      const auto* f = static_cast<const ForStmt*>(s);
      collect_idents(f->init.get(), out);
      collect_idents_expr(f->cond.get(), out);
      collect_idents_expr(f->inc.get(), out);
      collect_idents(f->body.get(), out);
      break;
    }
    case StmtKind::While: {
      const auto* w = static_cast<const WhileStmt*>(s);
      collect_idents_expr(w->cond.get(), out);
      collect_idents(w->body.get(), out);
      break;
    }
    case StmtKind::Do: {
      const auto* d = static_cast<const DoStmt*>(s);
      collect_idents(d->body.get(), out);
      collect_idents_expr(d->cond.get(), out);
      break;
    }
    case StmtKind::Return:
      collect_idents_expr(static_cast<const ReturnStmt*>(s)->value.get(), out);
      break;
    case StmtKind::Omp: {
      const auto* o = static_cast<const OmpStmt*>(s);
      for (const auto& c : o->directive.clauses) {
        collect_idents_expr(c.expr.get(), out);
      }
      collect_idents(o->body.get(), out);
      break;
    }
    default:
      break;
  }
}

/// Signals a `return` unwinding through nested calls.
struct ReturnSignal {
  Value value;
};

class Interp {
 public:
  Interp(const TranslationUnit& tu, const analysis::Resolution& res,
         const RunOptions& opts)
      : tu_(tu),
        res_(res),
        opts_(opts),
        module_(*opts.module),
        reg_arena_size_(std::min(
            kRegArenaCap,
            std::max<std::size_t>(
                64, 4 * static_cast<std::size_t>(module_.max_frame)))) {}

  RunResult run() {
    RunResult result;
    try {
      ThreadCtx main_ctx;
      main_ctx.tid = next_tid_++;
      main_ctx.vc.set(main_ctx.tid, 1);
      main_ctx.frames.emplace_back();

      // Globals.
      for (const auto& g : tu_.globals) {
        declare_var(main_ctx, *g);
      }

      const FunctionDecl* main_fn = tu_.find_function("main");
      if (main_fn == nullptr || !main_fn->body) {
        throw RuntimeFault("program has no main()");
      }
      // main's argc/argv (argc = 1, argv unused).
      main_ctx.frames.emplace_back();
      for (const auto& p : main_fn->params) {
        declare_param(main_ctx, *p,
                      p->type.is_pointer() ? Value::of_ptr({})
                                           : Value::of_int(1));
      }
      Value ret = Value::of_int(0);
      try {
        exec_body(main_ctx, *main_fn->body);
      } catch (ReturnSignal& sig) {
        ret = sig.value;
      } catch (const ExitSignal& sig) {
        ret = Value::of_int(sig.code);
      }
      result.exit_code = static_cast<int>(ret.as_int());
    } catch (const Error& e) {
      result.faulted = true;
      result.fault_message = e.what();
    }
    result.report = std::move(report_);
    result.report.race_detected = !result.report.pairs.empty();
    result.output = std::move(output_);
    result.steps = steps_total_;
    // Assembled on the fault path too: a step-budget abort must still
    // surface the decision prefix and the coverage observed so far.
    result.trace = std::move(trace_);
    result.coverage.assign(coverage_.begin(), coverage_.end());
    return result;
  }

 private:
  // ------------------------------------------------------------ environment

  void declare_var(ThreadCtx& ctx, const VarDecl& d) {
    std::vector<std::int64_t> dims;
    std::int64_t count = 1;
    for (const auto& dim_expr : d.array_dims) {
      if (!dim_expr) {
        throw RuntimeFault("unsized array '" + d.name + "'");
      }
      const std::int64_t n = eval(ctx, *dim_expr).as_int();
      dims.push_back(n);
      count *= n;
    }
    const bool is_float = d.type.is_floating() && !d.type.is_pointer();
    Value init = d.type.is_pointer() ? Value::of_ptr({})
                 : is_float          ? Value::of_double(0.0)
                                     : Value::of_int(0);
    const bool local_to_thread = ctx.team != nullptr;
    const int obj = mem_.allocate(d.name, &d, dims, count, init,
                                  local_to_thread);
    mem_.object(obj).elem_float = is_float;
    ctx.frames.back()[&d] = ObjRef{obj, 0};

    if (d.init) {
      if (const auto* call = expr_cast<Call>(d.init.get());
          call != nullptr && call->callee == "__init_list") {
        store_init_list(ctx, ObjRef{obj, 0}, *call);
      } else {
        Value v = eval(ctx, *d.init);
        store_raw(obj, 0, v);
      }
    }
  }

  void store_init_list(ThreadCtx& ctx, ObjRef base, const Call& list) {
    // Flattened row-major fill.
    std::int64_t offset = base.offset;
    std::function<void(const Call&)> fill = [&](const Call& c) {
      for (const auto& item : c.args) {
        if (const auto* nested = expr_cast<Call>(item.get());
            nested != nullptr && nested->callee == "__init_list") {
          fill(*nested);
        } else {
          store_raw(base.object, offset++, eval(ctx, *item));
        }
      }
    };
    fill(list);
  }

  void declare_param(ThreadCtx& ctx, const VarDecl& d, Value v) {
    const bool is_float = d.type.is_floating() && !d.type.is_pointer();
    const int obj = mem_.allocate(d.name, &d, {}, 1,
                                  is_float ? Value::of_double(0.0)
                                           : Value::of_int(0),
                                  true);
    mem_.object(obj).elem_float = is_float;
    store_raw(obj, 0, v);
    ctx.frames.back()[&d] = ObjRef{obj, 0};
  }

  [[nodiscard]] ObjRef lookup(const ThreadCtx& ctx, const VarDecl* d) const {
    for (auto it = ctx.frames.rbegin(); it != ctx.frames.rend(); ++it) {
      auto found = it->find(d);
      if (found != it->end()) return found->second;
    }
    throw RuntimeFault("unbound variable '" + (d ? d->name : "?") + "'");
  }

  [[nodiscard]] std::pair<const VarDecl*, ObjRef> find_by_name(
      const ThreadCtx& ctx, const std::string& name) const {
    for (auto it = ctx.frames.rbegin(); it != ctx.frames.rend(); ++it) {
      for (const auto& [decl, ref] : *it) {
        if (decl->name == name) return {decl, ref};
      }
    }
    throw RuntimeFault("clause names unknown variable '" + name + "'");
  }

  // ------------------------------------------------------------ shadow/race

  void note_step(ThreadCtx& ctx) {
    if (ctx.team != nullptr && ctx.team->sched != nullptr &&
        ctx.no_yield_depth == 0) {
      ctx.team->sched->yield_point();
    } else {
      ++serial_steps_;
      if (serial_steps_ > opts_.step_limit) {
        throw RuntimeFault("serial step limit exceeded (infinite loop?)");
      }
    }
    ++steps_total_;
  }

  /// Interleaving-coverage signature: for every shared access we hash its
  /// source site; when consecutive shared accesses come from different
  /// logical threads we record both the ordered site pair (which
  /// cross-thread orderings ran) and the switched-to site (where a
  /// context switch was observed to land). The exploration engine unions
  /// these sets across schedules to measure how much new interleaving
  /// behaviour each schedule bought.
  void note_coverage(const ThreadCtx& ctx, SourceLoc loc, bool write) {
    if (!opts_.collect_coverage || ctx.team == nullptr) return;
    const std::uint64_t site = hash_combine(
        mix64((static_cast<std::uint64_t>(loc.line) << 24) ^
              static_cast<std::uint64_t>(loc.col)),
        write ? 2u : 1u);
    if (cov_last_tid_ >= 0 && cov_last_tid_ != ctx.tid) {
      coverage_.insert(hash_combine(cov_last_site_, site));
      coverage_.insert(mix64(site ^ 0x70726565'6d707440ULL));
    }
    cov_last_tid_ = ctx.tid;
    cov_last_site_ = site;
  }

  void report_race(const AccessStamp& prev, char prev_op,
                   const std::string* cur_text, SourceLoc cur_loc,
                   char cur_op, const MemObject& obj) {
    if (static_cast<int>(report_.pairs.size()) >= opts_.max_pairs) return;
    analysis::RaceAccess a;
    a.expr_text = *prev.text;
    a.var_name = obj.decl != nullptr ? obj.decl->name : obj.name;
    a.loc = prev.loc;
    a.op = prev_op;
    analysis::RaceAccess b;
    b.expr_text = *cur_text;
    b.var_name = a.var_name;
    b.loc = cur_loc;
    b.op = cur_op;
    analysis::RacePair pair;
    // Writer first (DRB convention).
    if (cur_op == 'w' && prev_op != 'w') {
      pair.first = b;
      pair.second = a;
    } else {
      pair.first = a;
      pair.second = b;
    }
    pair.note = "dynamic: unordered accesses (happens-before violation)";
    report_.add_pair(std::move(pair));
  }

  /// Location of an access: the innermost base identifier (matching the
  /// static detector's and DRB's coordinate convention for `a[i+1]`).
  [[nodiscard]] static SourceLoc access_loc(const Expr& expr) {
    const Expr* cur = &expr;
    for (;;) {
      if (const auto* sub = expr_cast<Subscript>(cur)) {
        cur = sub->base.get();
        continue;
      }
      if (const auto* un = expr_cast<Unary>(cur)) {
        if (un->op == UnaryOp::Deref) {
          cur = un->operand.get();
          continue;
        }
      }
      break;
    }
    return cur->loc.valid() ? cur->loc : expr.loc;
  }

  /// The walker's source spelling of an access, rendered once per
  /// expression per run; the returned string lives as long as the run.
  const std::string* access_text(const Expr& expr) {
    auto [it, inserted] = access_texts_.try_emplace(&expr);
    if (inserted) it->second = expr_to_string(expr);
    return &it->second;
  }

  void on_read(ThreadCtx& ctx, ObjRef ref, const Expr& expr) {
    on_read_at(ctx, ref, access_text(expr), access_loc(expr));
  }

  void on_write(ThreadCtx& ctx, ObjRef ref, const Expr& expr) {
    on_write_at(ctx, ref, access_text(expr), access_loc(expr));
  }

  /// Instrumented read of `ref`. `text` must outlive the run (see
  /// AccessStamp).
  void on_read_at(ThreadCtx& ctx, ObjRef ref, const std::string* text,
                  SourceLoc loc) {
    note_step(ctx);
    mem_.check_bounds(ref);
    MemObject& obj = mem_.object(ref.object);
    if (obj.thread_local_object) return;
    note_coverage(ctx, loc, /*write=*/false);
    ShadowCell& cell = obj.shadow[static_cast<std::size_t>(ref.offset)];
    if (!cell.write.before(ctx.vc) && cell.last_write.tid != ctx.tid) {
      report_race(cell.last_write, 'w', text, loc, 'r', obj);
    }
    // About to promote the read epoch? Move its provenance into the
    // per-tid map first so the shared-mode write check can find it.
    if (!cell.reads.shared() && cell.reads.epoch().valid() &&
        cell.reads.epoch().tid != ctx.tid) {
      cell.last_reads[cell.reads.epoch().tid] = cell.read_stamp;
    }
    cell.reads.record(ctx.tid, ctx.vc.get(ctx.tid));
    const AccessStamp stamp{text, loc, ctx.tid};
    if (cell.reads.shared()) {
      cell.last_reads[ctx.tid] = stamp;
    } else {
      cell.read_stamp = stamp;
    }
  }

  /// Instrumented write of `ref`; `text` as for on_read_at.
  void on_write_at(ThreadCtx& ctx, ObjRef ref, const std::string* text,
                   SourceLoc loc) {
    note_step(ctx);
    mem_.check_bounds(ref);
    MemObject& obj = mem_.object(ref.object);
    if (obj.thread_local_object) return;
    note_coverage(ctx, loc, /*write=*/true);
    ShadowCell& cell = obj.shadow[static_cast<std::size_t>(ref.offset)];
    if (!cell.write.before(ctx.vc) && cell.last_write.tid != ctx.tid) {
      report_race(cell.last_write, 'w', text, loc, 'w', obj);
    }
    if (!cell.reads.leq(ctx.vc)) {
      if (cell.reads.shared()) {
        for (const auto& [tid, stamp] : cell.last_reads) {
          if (tid == ctx.tid) continue;
          if (cell.reads.get(tid) > ctx.vc.get(tid)) {
            report_race(stamp, 'r', text, loc, 'w', obj);
          }
        }
      } else {
        // Epoch mode with an unordered read: the reader is necessarily a
        // different thread (a thread's own reads are always <= its clock).
        report_race(cell.read_stamp, 'r', text, loc, 'w', obj);
      }
    }
    cell.write = Epoch{ctx.tid, ctx.vc.get(ctx.tid)};
    cell.last_write = AccessStamp{text, loc, ctx.tid};
    cell.reads.clear();
    cell.last_reads.clear();
  }

  // ------------------------------------------------------------ locks

  void acquire(ThreadCtx& ctx, LockState& lock) {
    if (ctx.team != nullptr && ctx.team->sched != nullptr) {
      ctx.team->sched->block_until([&] { return !lock.held; });
    } else if (lock.held) {
      throw RuntimeFault("self-deadlock on lock");
    }
    lock.held = true;
    lock.owner = ctx.tid;
    ctx.vc.join(lock.vc);
  }

  void release(ThreadCtx& ctx, LockState& lock) {
    lock.vc = ctx.vc;
    ctx.vc.tick(ctx.tid);
    lock.held = false;
    lock.owner = -1;
  }

  void team_barrier(ThreadCtx& ctx) {
    TeamState& team = *ctx.team;
    // Tasks complete at barriers.
    for (const auto& v : ctx.my_task_vcs) ctx.vc.join(v);
    ctx.my_task_vcs.clear();
    team.bar_acc.join(ctx.vc);
    ++team.bar_arrived;
    if (team.bar_arrived >= team.sched->live()) {
      team.bar_result = team.bar_acc;
      team.bar_acc = VectorClock{};
      team.bar_arrived = 0;
    }
    team.sched->barrier_wait();
    ctx.vc.join(team.bar_result);
    ctx.vc.tick(ctx.tid);
  }

  // ------------------------------------------------------------ expressions

  [[nodiscard]] ObjRef lvalue(ThreadCtx& ctx, const Expr& e) {
    switch (e.kind) {
      case ExprKind::Ident: {
        const auto& id = static_cast<const Ident&>(e);
        return lookup(ctx, id.decl);
      }
      case ExprKind::Subscript: {
        // Resolve the chain: base object + flattened offset.
        std::vector<std::int64_t> indices;
        const Expr* cur = &e;
        while (const auto* s = expr_cast<Subscript>(cur)) {
          indices.push_back(eval(ctx, *s->index).as_int());
          cur = s->base.get();
        }
        std::reverse(indices.begin(), indices.end());
        ObjRef base;
        if (const auto* id = expr_cast<Ident>(cur)) {
          ObjRef slot = lookup(ctx, id->decl);
          if (id->decl->is_array()) {
            base = slot;  // the array object itself
          } else {
            // Pointer variable: load its value (a pointer read).
            on_read(ctx, slot, *cur);
            base = mem_.load(slot).as_ptr();
            if (!base.valid()) {
              throw RuntimeFault("dereference of null pointer '" +
                                 id->decl->name + "'");
            }
          }
        } else {
          base = eval(ctx, *cur).as_ptr();
          if (!base.valid()) throw RuntimeFault("dereference of null pointer");
        }
        const MemObject& obj = mem_.object(base.object);
        return ObjRef{base.object,
                      subscript_offset(obj, base, indices.data(),
                                       indices.size())};
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const Unary&>(e);
        if (u.op == UnaryOp::Deref) {
          Value p = eval(ctx, *u.operand);
          ObjRef r = p.as_ptr();
          if (!r.valid()) throw RuntimeFault("dereference of null pointer");
          return r;
        }
        break;
      }
      default:
        break;
    }
    throw RuntimeFault("expression is not an lvalue: " + expr_to_string(e));
  }

  /// Flattened element offset of a subscript chain on `obj`: row-major
  /// multi-dim indexing with the interpreter's partial-index conventions.
  /// `indices` are in source order (outermost dimension first).
  [[nodiscard]] static std::int64_t subscript_offset(
      const MemObject& obj, ObjRef base, const std::int64_t* indices,
      std::size_t count) {
    std::int64_t offset = base.offset;
    if (!obj.dims.empty() && count > 1) {
      // Row-major multi-dim indexing.
      std::int64_t stride = 1;
      std::vector<std::int64_t> strides(obj.dims.size(), 1);
      for (int i = static_cast<int>(obj.dims.size()) - 1; i >= 0; --i) {
        strides[static_cast<std::size_t>(i)] = stride;
        stride *= obj.dims[static_cast<std::size_t>(i)];
      }
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t dim_index =
            obj.dims.size() >= count ? obj.dims.size() - count + i : i;
        offset += indices[i] * strides[dim_index];
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) offset += indices[i];
      if (!obj.dims.empty() && count == 1 && obj.dims.size() > 1) {
        // a[i] on a 2-D array: scale by the row stride.
        std::int64_t stride = 1;
        for (std::size_t i = 1; i < obj.dims.size(); ++i) {
          stride *= obj.dims[i];
        }
        offset = base.offset + indices[0] * stride;
      }
    }
    return offset;
  }

  void store_raw(int obj, std::int64_t offset, Value v) {
    MemObject& o = mem_.object(obj);
    // Coerce to the element type (heap objects are untyped).
    if (!v.is_ptr() && !o.elem_any) {
      v = o.elem_float ? Value::of_double(v.as_double())
                       : Value::of_int(v.as_int());
    }
    mem_.store(ObjRef{obj, offset}, v);
  }

  Value load_checked(ThreadCtx& ctx, ObjRef ref, const Expr& e) {
    on_read(ctx, ref, e);
    return mem_.load(ref);
  }

  void store_checked(ThreadCtx& ctx, ObjRef ref, Value v, const Expr& e) {
    on_write(ctx, ref, e);
    store_raw(ref.object, ref.offset, v);
  }

  Value eval(ThreadCtx& ctx, const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Value::of_int(static_cast<const IntLit&>(e).value);
      case ExprKind::FloatLit:
        return Value::of_double(static_cast<const FloatLit&>(e).value);
      case ExprKind::CharLit:
        return Value::of_int(static_cast<const CharLit&>(e).value);
      case ExprKind::StringLit:
        return Value::of_ptr(string_object(static_cast<const StringLit&>(e)));
      case ExprKind::Ident: {
        const auto& id = static_cast<const Ident&>(e);
        if (id.decl == nullptr) {
          throw RuntimeFault("use of unknown identifier '" + id.name + "'");
        }
        ObjRef slot = lookup(ctx, id.decl);
        if (id.decl->is_array()) {
          return Value::of_ptr(slot);  // arrays decay to pointers
        }
        return load_checked(ctx, slot, e);
      }
      case ExprKind::Subscript: {
        ObjRef ref = lvalue(ctx, e);
        return load_checked(ctx, ref, e);
      }
      case ExprKind::Unary:
        return eval_unary(ctx, static_cast<const Unary&>(e));
      case ExprKind::Binary:
        return eval_binary(ctx, static_cast<const Binary&>(e));
      case ExprKind::Assign:
        return eval_assign(ctx, static_cast<const Assign&>(e));
      case ExprKind::Conditional: {
        const auto& c = static_cast<const Conditional&>(e);
        return eval(ctx, *c.cond).truthy() ? eval(ctx, *c.then_expr)
                                           : eval(ctx, *c.else_expr);
      }
      case ExprKind::Call:
        return eval_call(ctx, static_cast<const Call&>(e));
      case ExprKind::Cast: {
        const auto& c = static_cast<const Cast&>(e);
        Value v = eval(ctx, *c.operand);
        if (c.type.is_pointer()) return v;
        if (c.type.is_floating()) return Value::of_double(v.as_double());
        return Value::of_int(v.as_int());
      }
    }
    throw RuntimeFault("unsupported expression");
  }

  Value eval_unary(ThreadCtx& ctx, const Unary& u) {
    switch (u.op) {
      case UnaryOp::Plus: return eval(ctx, *u.operand);
      case UnaryOp::Neg: {
        Value v = eval(ctx, *u.operand);
        return v.kind() == Value::Kind::Double
                   ? Value::of_double(-v.as_double())
                   : Value::of_int(-v.as_int());
      }
      case UnaryOp::Not:
        return Value::of_int(eval(ctx, *u.operand).truthy() ? 0 : 1);
      case UnaryOp::BitNot:
        return Value::of_int(~eval(ctx, *u.operand).as_int());
      case UnaryOp::AddrOf: {
        ObjRef r = lvalue(ctx, *u.operand);
        return Value::of_ptr(r);
      }
      case UnaryOp::Deref: {
        ObjRef r = lvalue(ctx, u);
        return load_checked(ctx, r, u);
      }
      case UnaryOp::PreInc:
      case UnaryOp::PreDec:
      case UnaryOp::PostInc:
      case UnaryOp::PostDec: {
        ObjRef r = lvalue(ctx, *u.operand);
        Value old = load_checked(ctx, r, *u.operand);
        const std::int64_t delta =
            (u.op == UnaryOp::PreInc || u.op == UnaryOp::PostInc) ? 1 : -1;
        Value next = old.kind() == Value::Kind::Double
                         ? Value::of_double(old.as_double() + delta)
                         : old.is_ptr()
                               ? Value::of_ptr(
                                     {old.as_ptr().object,
                                      old.as_ptr().offset + delta})
                               : Value::of_int(old.as_int() + delta);
        store_checked(ctx, r, next, *u.operand);
        const bool pre =
            u.op == UnaryOp::PreInc || u.op == UnaryOp::PreDec;
        return pre ? next : old;
      }
    }
    throw RuntimeFault("unsupported unary operator");
  }

  Value eval_binary(ThreadCtx& ctx, const Binary& b) {
    if (b.op == BinaryOp::LogicalAnd) {
      if (!eval(ctx, *b.lhs).truthy()) return Value::of_int(0);
      return Value::of_int(eval(ctx, *b.rhs).truthy() ? 1 : 0);
    }
    if (b.op == BinaryOp::LogicalOr) {
      if (eval(ctx, *b.lhs).truthy()) return Value::of_int(1);
      return Value::of_int(eval(ctx, *b.rhs).truthy() ? 1 : 0);
    }
    if (b.op == BinaryOp::Comma) {
      eval(ctx, *b.lhs);
      return eval(ctx, *b.rhs);
    }
    Value l = eval(ctx, *b.lhs);
    Value r = eval(ctx, *b.rhs);
    return eval_binop_values(l, r, b.op);
  }

  /// Strict (non-short-circuit) binary operator on already-evaluated
  /// operands; shared by the AST walker and the VM's BinOp handler.
  static Value eval_binop_values(Value l, Value r, BinaryOp op) {
    // Pointer arithmetic.
    if (l.is_ptr() || r.is_ptr()) {
      if (op == BinaryOp::Add) {
        ObjRef p = l.is_ptr() ? l.as_ptr() : r.as_ptr();
        const std::int64_t k = l.is_ptr() ? r.as_int() : l.as_int();
        return Value::of_ptr({p.object, p.offset + k});
      }
      if (op == BinaryOp::Sub && l.is_ptr() && !r.is_ptr()) {
        ObjRef p = l.as_ptr();
        return Value::of_ptr({p.object, p.offset - r.as_int()});
      }
      if (op == BinaryOp::Sub && l.is_ptr() && r.is_ptr()) {
        return Value::of_int(l.as_ptr().offset - r.as_ptr().offset);
      }
      if (op == BinaryOp::Eq) {
        return Value::of_int(l.as_ptr() == r.as_ptr() ? 1 : 0);
      }
      if (op == BinaryOp::Ne) {
        return Value::of_int(l.as_ptr() == r.as_ptr() ? 0 : 1);
      }
    }

    const bool fl = l.kind() == Value::Kind::Double ||
                    r.kind() == Value::Kind::Double;
    if (fl) {
      const double x = l.as_double();
      const double y = r.as_double();
      switch (op) {
        case BinaryOp::Add: return Value::of_double(x + y);
        case BinaryOp::Sub: return Value::of_double(x - y);
        case BinaryOp::Mul: return Value::of_double(x * y);
        case BinaryOp::Div: return Value::of_double(x / y);
        case BinaryOp::Lt: return Value::of_int(x < y ? 1 : 0);
        case BinaryOp::Gt: return Value::of_int(x > y ? 1 : 0);
        case BinaryOp::Le: return Value::of_int(x <= y ? 1 : 0);
        case BinaryOp::Ge: return Value::of_int(x >= y ? 1 : 0);
        case BinaryOp::Eq: return Value::of_int(x == y ? 1 : 0);
        case BinaryOp::Ne: return Value::of_int(x != y ? 1 : 0);
        default:
          throw RuntimeFault("invalid floating operation");
      }
    }
    const std::int64_t x = l.as_int();
    const std::int64_t y = r.as_int();
    switch (op) {
      case BinaryOp::Add: return Value::of_int(x + y);
      case BinaryOp::Sub: return Value::of_int(x - y);
      case BinaryOp::Mul: return Value::of_int(x * y);
      case BinaryOp::Div:
        if (y == 0) throw RuntimeFault("integer division by zero");
        return Value::of_int(x / y);
      case BinaryOp::Mod:
        if (y == 0) throw RuntimeFault("integer modulo by zero");
        return Value::of_int(x % y);
      case BinaryOp::Shl: return Value::of_int(x << y);
      case BinaryOp::Shr: return Value::of_int(x >> y);
      case BinaryOp::Lt: return Value::of_int(x < y ? 1 : 0);
      case BinaryOp::Gt: return Value::of_int(x > y ? 1 : 0);
      case BinaryOp::Le: return Value::of_int(x <= y ? 1 : 0);
      case BinaryOp::Ge: return Value::of_int(x >= y ? 1 : 0);
      case BinaryOp::Eq: return Value::of_int(x == y ? 1 : 0);
      case BinaryOp::Ne: return Value::of_int(x != y ? 1 : 0);
      case BinaryOp::BitAnd: return Value::of_int(x & y);
      case BinaryOp::BitOr: return Value::of_int(x | y);
      case BinaryOp::BitXor: return Value::of_int(x ^ y);
      default:
        throw RuntimeFault("unsupported binary operator");
    }
  }

  Value eval_assign(ThreadCtx& ctx, const Assign& a) {
    ObjRef target = lvalue(ctx, *a.target);
    Value result;
    if (a.op == AssignOp::Assign) {
      result = eval(ctx, *a.value);
    } else {
      Value old = load_checked(ctx, target, *a.target);
      Value rhs = eval(ctx, *a.value);
      BinaryOp op;
      switch (a.op) {
        case AssignOp::Add: op = BinaryOp::Add; break;
        case AssignOp::Sub: op = BinaryOp::Sub; break;
        case AssignOp::Mul: op = BinaryOp::Mul; break;
        case AssignOp::Div: op = BinaryOp::Div; break;
        case AssignOp::Mod: op = BinaryOp::Mod; break;
        case AssignOp::Shl: op = BinaryOp::Shl; break;
        case AssignOp::Shr: op = BinaryOp::Shr; break;
        case AssignOp::And: op = BinaryOp::BitAnd; break;
        case AssignOp::Or: op = BinaryOp::BitOr; break;
        case AssignOp::Xor: op = BinaryOp::BitXor; break;
        default: op = BinaryOp::Add; break;
      }
      result = apply_binop(old, rhs, op);
    }
    store_checked(ctx, target, result, *a.target);
    return result;
  }

  static Value apply_binop(Value l, Value r, BinaryOp op) {
    if (l.is_ptr() && op == BinaryOp::Add) {
      return Value::of_ptr({l.as_ptr().object, l.as_ptr().offset + r.as_int()});
    }
    if (l.is_ptr() && op == BinaryOp::Sub) {
      return Value::of_ptr({l.as_ptr().object, l.as_ptr().offset - r.as_int()});
    }
    const bool fl = l.kind() == Value::Kind::Double ||
                    r.kind() == Value::Kind::Double;
    if (fl) {
      const double x = l.as_double();
      const double y = r.as_double();
      switch (op) {
        case BinaryOp::Add: return Value::of_double(x + y);
        case BinaryOp::Sub: return Value::of_double(x - y);
        case BinaryOp::Mul: return Value::of_double(x * y);
        case BinaryOp::Div: return Value::of_double(x / y);
        default: return Value::of_double(x + y);
      }
    }
    const std::int64_t x = l.as_int();
    const std::int64_t y = r.as_int();
    switch (op) {
      case BinaryOp::Add: return Value::of_int(x + y);
      case BinaryOp::Sub: return Value::of_int(x - y);
      case BinaryOp::Mul: return Value::of_int(x * y);
      case BinaryOp::Div:
        if (y == 0) throw RuntimeFault("integer division by zero");
        return Value::of_int(x / y);
      case BinaryOp::Mod:
        if (y == 0) throw RuntimeFault("integer modulo by zero");
        return Value::of_int(x % y);
      case BinaryOp::Shl: return Value::of_int(x << y);
      case BinaryOp::Shr: return Value::of_int(x >> y);
      case BinaryOp::BitAnd: return Value::of_int(x & y);
      case BinaryOp::BitOr: return Value::of_int(x | y);
      case BinaryOp::BitXor: return Value::of_int(x ^ y);
      default: return Value::of_int(x + y);
    }
  }

  [[nodiscard]] ObjRef string_object(const StringLit& s) {
    auto it = string_cache_.find(&s);
    if (it != string_cache_.end()) return it->second;
    const std::int64_t n = static_cast<std::int64_t>(s.value.size()) + 1;
    const int obj = mem_.allocate("<string>", nullptr, {}, n,
                                  Value::of_int(0), true);
    for (std::size_t i = 0; i < s.value.size(); ++i) {
      mem_.store(ObjRef{obj, static_cast<std::int64_t>(i)},
                 Value::of_int(s.value[i]));
    }
    ObjRef ref{obj, 0};
    string_cache_[&s] = ref;
    return ref;
  }

  Value eval_call(ThreadCtx& ctx, const Call& c);

  /// Calls a user-defined function with already-evaluated arguments
  /// (shared by eval_call and the VM's CallUser handler); faults past
  /// kMaxCallDepth nested calls. Defined in interp_builtins.inc.
  Value invoke_user(ThreadCtx& ctx, const FunctionDecl& fn,
                    std::vector<Value> args);

  // ------------------------------------------------------------ vm
  // Defined in interp_vm.inc.

  /// Executes a structured body as its compiled chunk. Every body-level
  /// entry point (function bodies, OpenMP construct bodies, sections
  /// children) routes through here.
  Flow exec_body(ThreadCtx& ctx, const Stmt& s);
  /// The compiled chunk of body `s`; faults, naming the body, when the
  /// module has none.
  [[nodiscard]] const bc::Chunk& chunk_for(const Stmt& s) const;
  Flow run_chunk(ThreadCtx& ctx, const bc::Chunk& ch);
  Flow run_chunk_frame(ThreadCtx& ctx, const bc::Chunk& ch, Value* regs);
  [[nodiscard]] ObjRef cached_slot(const ThreadCtx& ctx, Value* regs,
                                   const bc::Chunk& ch,
                                   const bc::AccessSite& site);

  // ------------------------------------------------------------ OpenMP

  Flow exec_omp(ThreadCtx& ctx, const OmpStmt& s);
  void exec_parallel_region(ThreadCtx& parent, const OmpStmt& s);
  void exec_region_worker(ThreadCtx& worker, const OmpStmt& s);
  void exec_worksharing_loop(ThreadCtx& ctx, const OmpStmt& s,
                             bool simd_chunked);
  void exec_sections(ThreadCtx& ctx, const OmpStmt& s);
  void exec_task(ThreadCtx& ctx, const OmpStmt& s);
  [[nodiscard]] LoopBounds eval_loop_bounds(ThreadCtx& ctx,
                                            const ForStmt& loop);
  ClauseResult apply_data_clauses(ThreadCtx& ctx, const OmpDirective& dir);
  void pop_data_clauses(ThreadCtx& ctx, const ClauseResult& cr);
  void finish_reductions(ThreadCtx& ctx,
                         const std::vector<PendingReduction>& reds);
  void capture_lastprivate(ThreadCtx& ctx, SourceLoc loc);
  [[nodiscard]] ObjRef clone_object(ObjRef src, const VarDecl* decl,
                                    bool copy_values);
  [[nodiscard]] ObjRef get_threadprivate(const VarDecl* decl, int team_index,
                                         ObjRef master);

  // ------------------------------------------------------------ io

  void do_printf(ThreadCtx& ctx, const Call& c, std::size_t first_arg);
  [[nodiscard]] std::string read_cstring(ObjRef ref) const;
  void output_append(const std::string& s);

  const TranslationUnit& tu_;
  const analysis::Resolution& res_;
  RunOptions opts_;
  Memory mem_;
  std::string output_;
  analysis::RaceReport report_;
  int next_tid_ = 0;
  std::uint64_t steps_total_ = 0;
  std::uint64_t serial_steps_ = 0;
  int region_counter_ = 0;
  ScheduleTrace trace_;
  std::set<std::uint64_t> coverage_;
  int cov_last_tid_ = -1;
  std::uint64_t cov_last_site_ = 0;
  std::map<const void*, ObjRef> string_cache_;
  std::map<std::pair<const VarDecl*, int>, ObjRef> threadprivate_;
  std::map<std::pair<int, std::int64_t>, LockState> global_locks_;
  std::map<std::string, LockState> global_critical_;
  std::map<const void*, int> ws_visit_counts_;  // per ws-loop encounters
  /// Walker access texts (access_text); node-based, so AccessStamps can
  /// point into it for the whole run.
  std::unordered_map<const Expr*, std::string> access_texts_;
  std::uint64_t rand_state_ = 0x853c49e6748fea9bULL;
  const bc::Module& module_;        // verified bytecode for tu_
  std::size_t reg_arena_size_ = 0;  // per-ThreadCtx arena first-use size
};

// Implementation of the OpenMP construct handlers and builtin calls lives
// in textually included units to keep file sizes manageable. They define
// further members of Interp and must stay inside this anonymous namespace.
#include "runtime/interp_builtins.inc"
#include "runtime/interp_omp.inc"
#include "runtime/interp_vm.inc"

}  // namespace

RunResult run_program(const TranslationUnit& unit,
                      const analysis::Resolution& res,
                      const RunOptions& opts) {
  RunOptions o = opts;
  std::unique_ptr<bc::Module> owned;
  if (o.module == nullptr) {
    // One-shot caller: compile (and verify) for this run only.
    owned = std::make_unique<bc::Module>(bc::compile_verified(unit));
    o.module = owned.get();
  } else if (!o.module->verified) {
    throw Error(
        "bytecode module is not verified; refusing to execute "
        "(pass it through bc::verify or use bc::compile_verified)");
  }
  static obs::Counter& runs = obs::metrics().counter(obs::kVmRuns);
  runs.add();
  Interp interp(unit, res, o);
  return interp.run();
}

}  // namespace drbml::runtime
