// AST -> bytecode compiler. The golden rule covers every evaluation in a
// run -- function and construct bodies, the expressions the OpenMP
// handlers evaluate, builtin-call arguments and the globals: the compiled
// code makes exactly the instrumented calls (note_step / read & write
// events with the same rendered text and location), in exactly the order,
// and the same allocations in the same order (object ids show through
// `%p`), that produced tests/golden/runtime_fingerprints.txt.
// Evaluation-order decisions below that look arbitrary (subscript indices
// outermost-first, allocate-then-init declarations, cond/inc placement in
// loops) are part of that contract and must not be "fixed".
#include "runtime/bc/compile.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "minic/printer.hpp"
#include "obs/catalog.hpp"
#include "runtime/bc/verify.hpp"
#include "support/error.hpp"

namespace drbml::runtime::bc {

using namespace minic;

namespace {

/// Builtin names, in Builtin order.
constexpr std::array<std::string_view, kBuiltinCount> kBuiltinNames = {
    "printf", "fprintf", "puts", "putchar", "malloc", "calloc", "free",
    "memset", "__sizeof", "omp_get_thread_num", "omp_get_num_threads",
    "omp_get_max_threads", "omp_get_num_procs", "omp_in_parallel",
    "omp_set_num_threads", "omp_get_wtime", "omp_init_lock",
    "omp_destroy_lock", "omp_init_nest_lock", "omp_destroy_nest_lock",
    "omp_set_lock", "omp_unset_lock", "omp_set_nest_lock",
    "omp_unset_nest_lock", "omp_test_lock", "fabs", "sqrt", "sin", "cos",
    "exp", "log", "floor", "ceil", "pow", "fmax", "fmin", "abs", "labs",
    "rand", "srand", "atoi", "atol", "atof", "assert", "exit", "abort",
};
static_assert(kBuiltinNames.back() == "abort", "one name per Builtin");

/// Innermost-base source coordinate of an access: the base identifier of
/// `a[i+1]` or `*p`, the static detector's and DRB's coordinate
/// convention.
SourceLoc site_loc(const Expr& expr) {
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

bool is_init_list(const Expr* e) {
  const auto* call = expr_cast<Call>(e);
  return call != nullptr && call->callee == "__init_list";
}

constexpr std::size_t kNoPatch = static_cast<std::size_t>(-1);

class Compiler {
 public:
  explicit Compiler(const TranslationUnit& tu) : tu_(tu) {}

  Module compile_all() {
    for (const auto& fn : tu_.functions) {
      if (fn->body) add_chunk(*fn->body, "fn " + fn->name);
    }
    m_.globals = push_chunk(build_chunk("globals", [&] {
      for (const auto& g : tu_.globals) compile_decl(*g);
    }));
    for (const auto& fn : tu_.functions) {
      visit_stmt(fn->body.get());
    }
    // Expression chunks, including the ones their own compilation asks
    // for (a builtin call inside a builtin's argument).
    while (!pending_exprs_.empty()) {
      const auto [e, address] = pending_exprs_.back();
      pending_exprs_.pop_back();
      if (m_.expr_entries.count(e) != 0) continue;
      const std::uint32_t idx =
          push_chunk(build_chunk(address ? "addr" : "expr", [&] {
            const int r0 = alloc();
            if (address) {
              compile_lvalue(*e, r0);
            } else {
              compile_expr_into(*e, r0);
            }
          }));
      m_.expr_entries[e] = idx;
    }
    return std::move(m_);
  }

 private:
  // ------------------------------------------------------------ chunk set

  std::uint32_t push_chunk(Chunk ch) {
    m_.max_frame = std::max(m_.max_frame, ch.frame_size());
    m_.chunks.push_back(std::move(ch));
    return static_cast<std::uint32_t>(m_.chunks.size() - 1);
  }

  void add_chunk(const Stmt& s, std::string label) {
    if (m_.entries.count(&s) != 0) return;
    m_.entries[&s] =
        push_chunk(build_chunk(std::move(label), [&] { compile_stmt(s); }));
  }

  /// Asks for a chunk that leaves the value of `e` -- or, for `address`,
  /// the address of the lvalue `e` -- in register 0. Compiled after the
  /// body chunks; a handler that finds none faults naming `e`.
  void add_expr_chunk(const Expr& e, bool address = false) {
    pending_exprs_.emplace_back(&e, address);
  }

  /// Registers chunks for everything the OpenMP handlers run: construct
  /// bodies, clause arguments, the innermost loop bodies and the bounds
  /// of worksharing and standalone simd loops, sections children, atomic
  /// statements, and each task's capture set. A body or expression
  /// without a chunk faults when the runtime reaches it.
  void visit_stmt(const Stmt* s) {
    if (s == nullptr) return;
    switch (s->kind) {
      case StmtKind::Compound:
        for (const auto& st : static_cast<const CompoundStmt*>(s)->body) {
          visit_stmt(st.get());
        }
        break;
      case StmtKind::If: {
        const auto* i = static_cast<const IfStmt*>(s);
        visit_stmt(i->then_branch.get());
        visit_stmt(i->else_branch.get());
        break;
      }
      case StmtKind::For:
        visit_stmt(static_cast<const ForStmt*>(s)->init.get());
        visit_stmt(static_cast<const ForStmt*>(s)->body.get());
        break;
      case StmtKind::While:
        visit_stmt(static_cast<const WhileStmt*>(s)->body.get());
        break;
      case StmtKind::Do:
        visit_stmt(static_cast<const DoStmt*>(s)->body.get());
        break;
      case StmtKind::Omp: {
        const auto* o = static_cast<const OmpStmt*>(s);
        const OmpDirectiveKind k = o->directive.kind;
        for (const auto& c : o->directive.clauses) {
          if (c.expr) add_expr_chunk(*c.expr);
        }
        if (o->body) {
          add_chunk(*o->body, "omp " + omp_directive_kind_name(k));
        }
        if (o->directive.is_worksharing_loop() ||
            k == OmpDirectiveKind::Simd) {
          add_worksharing_chunks(*o);
        }
        if (k == OmpDirectiveKind::Sections ||
            k == OmpDirectiveKind::ParallelSections) {
          add_sections_chunks(*o);
        }
        if (k == OmpDirectiveKind::Atomic) {
          const auto [stmt, target] = atomic_parts(*o);
          if (stmt != nullptr) add_expr_chunk(*stmt);
          if (target != nullptr) add_expr_chunk(*target, /*address=*/true);
        }
        if (k == OmpDirectiveKind::Task) add_task_captures(*o);
        visit_stmt(o->body.get());
        break;
      }
      default:
        break;
    }
  }

  void add_worksharing_chunks(const OmpStmt& s) {
    const LoopNest& nest = m_.loop_nests[&s] = loop_nest(s);
    for (const ForStmt* f : nest.loops) add_loop_bound_chunks(*f);
    if (nest.complete) add_chunk(*nest.loops.back()->body, "omp-ws body");
  }

  /// The init, step and limit that eval_loop_bounds evaluates. A
  /// declaration init runs as a chunk of its own, which declares the
  /// induction variable in the handler's frame.
  void add_loop_bound_chunks(const ForStmt& f) {
    if (const auto* d = stmt_cast<DeclStmt>(f.init.get())) {
      add_chunk(*d, "omp-ws init");
    } else if (const auto* es = stmt_cast<ExprStmt>(f.init.get())) {
      if (const auto* a = expr_cast<Assign>(es->expr.get())) {
        add_expr_chunk(*a->value);
      }
    }
    if (const auto* a = expr_cast<Assign>(f.inc.get())) {
      if (a->op == AssignOp::Add || a->op == AssignOp::Sub) {
        add_expr_chunk(*a->value);
      } else if (const auto* bin = expr_cast<Binary>(a->value.get());
                 bin != nullptr && a->op == AssignOp::Assign) {
        add_expr_chunk(*bin->rhs);
      }
    }
    if (const auto* cond = expr_cast<Binary>(f.cond.get())) {
      add_expr_chunk(*cond->rhs);
    }
  }

  using DeclSet = std::set<const VarDecl*>;

  /// The variables a task body refers to, in DeclSet (pointer) order: the
  /// clones of implicit firstprivates allocate in this order.
  void add_task_captures(const OmpStmt& s) {
    DeclSet used;
    gather_decls(s.body.get(), used);
    m_.task_captures[&s].assign(used.begin(), used.end());
  }

  static void gather_decls(const Stmt* s, DeclSet& out) {
    if (s == nullptr) return;
    switch (s->kind) {
      case StmtKind::Decl:
        for (const auto& v : static_cast<const DeclStmt*>(s)->decls) {
          for (const auto& dim : v->array_dims) gather_decls(dim.get(), out);
          gather_decls(v->init.get(), out);
        }
        return;
      case StmtKind::Expr:
        return gather_decls(static_cast<const ExprStmt*>(s)->expr.get(), out);
      case StmtKind::Compound:
        for (const auto& st : static_cast<const CompoundStmt*>(s)->body) {
          gather_decls(st.get(), out);
        }
        return;
      case StmtKind::If: {
        const auto* i = static_cast<const IfStmt*>(s);
        gather_decls(i->cond.get(), out);
        for (const Stmt* b : {i->then_branch.get(), i->else_branch.get()}) {
          gather_decls(b, out);
        }
        return;
      }
      case StmtKind::For: {
        const auto* f = static_cast<const ForStmt*>(s);
        gather_decls(f->init.get(), out);
        for (const Expr* e : {f->cond.get(), f->inc.get()}) {
          gather_decls(e, out);
        }
        return gather_decls(f->body.get(), out);
      }
      case StmtKind::While: {
        const auto* w = static_cast<const WhileStmt*>(s);
        gather_decls(w->cond.get(), out);
        return gather_decls(w->body.get(), out);
      }
      case StmtKind::Do: {
        const auto* d = static_cast<const DoStmt*>(s);
        gather_decls(d->body.get(), out);
        return gather_decls(d->cond.get(), out);
      }
      case StmtKind::Return:
        return gather_decls(static_cast<const ReturnStmt*>(s)->value.get(),
                            out);
      case StmtKind::Omp: {
        const auto* o = static_cast<const OmpStmt*>(s);
        for (const auto& c : o->directive.clauses) {
          gather_decls(c.expr.get(), out);
        }
        return gather_decls(o->body.get(), out);
      }
      default:
        return;
    }
  }

  static void gather_decls(const Expr* e, DeclSet& out) {
    if (e == nullptr) return;
    const auto all = [&](std::initializer_list<const Expr*> kids) {
      for (const Expr* k : kids) gather_decls(k, out);
    };
    switch (e->kind) {
      case ExprKind::Ident:
        if (const auto* d = static_cast<const Ident*>(e)->decl) out.insert(d);
        return;
      case ExprKind::Subscript: {
        const auto* x = static_cast<const Subscript*>(e);
        return all({x->base.get(), x->index.get()});
      }
      case ExprKind::Unary:
        return all({static_cast<const Unary*>(e)->operand.get()});
      case ExprKind::Binary: {
        const auto* x = static_cast<const Binary*>(e);
        return all({x->lhs.get(), x->rhs.get()});
      }
      case ExprKind::Assign: {
        const auto* x = static_cast<const Assign*>(e);
        return all({x->target.get(), x->value.get()});
      }
      case ExprKind::Conditional: {
        const auto* x = static_cast<const Conditional*>(e);
        return all({x->cond.get(), x->then_expr.get(), x->else_expr.get()});
      }
      case ExprKind::Call:
        for (const auto& arg : static_cast<const Call*>(e)->args) {
          gather_decls(arg.get(), out);
        }
        return;
      case ExprKind::Cast:
        return all({static_cast<const Cast*>(e)->operand.get()});
      default:
        return;
    }
  }

  void add_sections_chunks(const OmpStmt& s) {
    const auto* block = stmt_cast<CompoundStmt>(s.body.get());
    if (block == nullptr) return;
    for (const auto& child : block->body) {
      const auto* sec = stmt_cast<OmpStmt>(child.get());
      if (sec != nullptr &&
          sec->directive.kind == OmpDirectiveKind::Section) {
        if (sec->body) add_chunk(*sec->body, "omp section");
      } else if (child) {
        add_chunk(*child, "sections child");
      }
    }
  }

  // ------------------------------------------------------------ pools

  std::int32_t intern_const(const Value& v) {
    std::uint64_t bits = 0;
    if (v.kind() == Value::Kind::Double) {
      const double d = v.as_double();
      std::memcpy(&bits, &d, sizeof(d));
    } else {
      bits = static_cast<std::uint64_t>(v.as_int());
    }
    const auto key = std::make_pair(static_cast<int>(v.kind()), bits);
    auto it = const_ids_.find(key);
    if (it != const_ids_.end()) return it->second;
    return const_ids_[key] = append(m_.consts, v);
  }

  std::int32_t intern_message(std::string msg) {
    auto it = message_ids_.find(msg);
    if (it != message_ids_.end()) return it->second;
    return message_ids_[msg] = append(m_.messages, msg);
  }

  /// Appends `x` to a pool; returns its index.
  template <typename T>
  static std::int32_t append(std::vector<T>& pool, T x) {
    pool.push_back(std::move(x));
    return static_cast<std::int32_t>(pool.size() - 1);
  }

  /// Access site for a lookup of `decl` (with the chunk's cache slot)
  /// and/or an instrumented event on `access` (its rendered text and
  /// location).
  std::int32_t make_site(const VarDecl* decl, const Expr* access) {
    AccessSite s;
    s.decl = decl;
    if (decl != nullptr) s.cache = cache_slot(decl);
    if (access != nullptr) {
      s.text = expr_to_string(*access);
      s.loc = site_loc(*access);
    }
    return append(m_.sites, std::move(s));
  }

  // ------------------------------------------------------------ chunk state

  std::int32_t cache_slot(const VarDecl* d) {
    auto it = caches_.find(d);
    if (it != caches_.end()) return it->second;
    const auto slot = static_cast<std::int32_t>(caches_.size());
    caches_[d] = slot;
    return slot;
  }

  std::uint16_t cache_u16(const VarDecl* d) {
    return static_cast<std::uint16_t>(cache_slot(d));
  }

  int alloc() {
    if (next_reg_ >= 60000) {
      throw Error("bytecode compiler: register overflow in chunk '" +
                  chunk_.label + "'");
    }
    const int r = next_reg_++;
    if (next_reg_ > max_reg_) max_reg_ = next_reg_;
    return r;
  }
  void release_to(int r) { next_reg_ = r; }

  std::size_t emit(Instr i) {
    chunk_.code.push_back(i);
    return chunk_.code.size() - 1;
  }
  void patch(std::size_t at, std::size_t target) {
    chunk_.code[at].imm = static_cast<std::int32_t>(target);
  }
  [[nodiscard]] std::size_t here() const { return chunk_.code.size(); }

  static std::uint16_t u16(int r) { return static_cast<std::uint16_t>(r); }

  struct LoopCtx {
    int depth = 0;  // compiled frame depth of the loop's jump targets
    std::vector<std::size_t> break_jumps;
    std::vector<std::size_t> continue_jumps;
    std::vector<std::int32_t> flows;  // flow_infos[] of constructs inside
  };

  void open_loop() { loops_.push_back(LoopCtx{depth_, {}, {}, {}}); }

  void close_loop(std::size_t lend, std::size_t lcont) {
    const LoopCtx loop = std::move(loops_.back());
    loops_.pop_back();
    for (std::size_t j : loop.break_jumps) patch(j, lend);
    for (std::size_t j : loop.continue_jumps) patch(j, lcont);
    for (std::int32_t f : loop.flows) {
      m_.flow_infos[static_cast<std::size_t>(f)].brk =
          static_cast<std::int32_t>(lend);
      m_.flow_infos[static_cast<std::size_t>(f)].cont =
          static_cast<std::int32_t>(lcont);
    }
  }

  template <typename EmitBody>
  Chunk build_chunk(std::string label, EmitBody&& emit_body) {
    chunk_ = Chunk{};
    chunk_.label = std::move(label);
    next_reg_ = 0;
    max_reg_ = 0;
    depth_ = 0;
    caches_.clear();
    loops_.clear();
    emit_body();
    emit({.op = Op::Halt});
    chunk_.num_regs = static_cast<std::uint32_t>(max_reg_);
    chunk_.num_caches = static_cast<std::uint32_t>(caches_.size());
    return std::move(chunk_);
  }

  // ------------------------------------------------------------ statements

  void compile_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        for (const auto& v : d.decls) compile_decl(*v);
        return;
      }
      case StmtKind::Expr: {
        const int r = compile_expr(*static_cast<const ExprStmt&>(s).expr);
        release_to(r);
        return;
      }
      case StmtKind::Compound: {
        const auto& block = static_cast<const CompoundStmt&>(s);
        emit({.op = Op::PushFrame});
        ++depth_;
        for (const auto& st : block.body) compile_stmt(*st);
        emit({.op = Op::PopFrame, .n = 1});
        --depth_;
        return;
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(s);
        const int c = compile_expr(*i.cond);
        release_to(c);
        const std::size_t jf = emit({.op = Op::JumpIfFalse, .a = u16(c)});
        compile_stmt(*i.then_branch);
        if (i.else_branch) {
          const std::size_t j = emit({.op = Op::Jump});
          patch(jf, here());
          compile_stmt(*i.else_branch);
          patch(j, here());
        } else {
          patch(jf, here());
        }
        return;
      }
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(s);
        emit({.op = Op::PushFrame});
        ++depth_;
        if (f.init) compile_stmt(*f.init);
        const std::size_t lcond = here();
        std::size_t jf = kNoPatch;
        if (f.cond) {
          const int c = compile_expr(*f.cond);
          release_to(c);
          jf = emit({.op = Op::JumpIfFalse, .a = u16(c)});
        }
        open_loop();
        compile_stmt(*f.body);
        const std::size_t lcont = here();
        if (f.inc) {
          const int r = compile_expr(*f.inc);
          release_to(r);
        }
        emit({.op = Op::Jump, .imm = static_cast<std::int32_t>(lcond)});
        const std::size_t lend = here();
        if (jf != kNoPatch) patch(jf, lend);
        close_loop(lend, lcont);
        emit({.op = Op::PopFrame, .n = 1});
        --depth_;
        return;
      }
      case StmtKind::While: {
        const auto& w = static_cast<const WhileStmt&>(s);
        const std::size_t lcond = here();
        const int c = compile_expr(*w.cond);
        release_to(c);
        const std::size_t jf = emit({.op = Op::JumpIfFalse, .a = u16(c)});
        open_loop();
        compile_stmt(*w.body);
        emit({.op = Op::Jump, .imm = static_cast<std::int32_t>(lcond)});
        const std::size_t lend = here();
        patch(jf, lend);
        close_loop(lend, lcond);
        return;
      }
      case StmtKind::Do: {
        const auto& d = static_cast<const DoStmt&>(s);
        const std::size_t lbody = here();
        open_loop();
        compile_stmt(*d.body);
        const std::size_t lcond = here();
        const int c = compile_expr(*d.cond);
        release_to(c);
        emit({.op = Op::JumpIfTrue,
              .a = u16(c),
              .imm = static_cast<std::int32_t>(lbody)});
        const std::size_t lend = here();
        close_loop(lend, lcond);
        return;
      }
      case StmtKind::Return: {
        const auto& r = static_cast<const ReturnStmt&>(s);
        const int v = alloc();
        if (r.value) {
          compile_expr_into(*r.value, v);
        } else {
          emit({.op = Op::Const,
                .a = u16(v),
                .imm = intern_const(Value::of_int(0))});
        }
        emit({.op = Op::RetValue, .a = u16(v)});
        release_to(v);
        return;
      }
      case StmtKind::Break:
        compile_flow_stmt(/*is_break=*/true);
        return;
      case StmtKind::Continue:
        compile_flow_stmt(/*is_break=*/false);
        return;
      case StmtKind::Null:
        return;
      case StmtKind::Omp: {
        // OpenMP constructs run through the interpreter's exec_omp, which
        // owns all the scheduling machinery.
        FlowInfo fi;
        fi.node = &s;
        fi.exit_pops = static_cast<std::uint16_t>(depth_);
        if (!loops_.empty()) {
          const auto pops =
              static_cast<std::uint16_t>(depth_ - loops_.back().depth);
          fi.brk_pops = pops;
          fi.cont_pops = pops;
        }
        const std::int32_t idx = append(m_.flow_infos, fi);
        emit({.op = Op::ExecStmt, .imm = idx});
        if (!loops_.empty()) loops_.back().flows.push_back(idx);
        return;
      }
    }
  }

  void compile_flow_stmt(bool is_break) {
    if (loops_.empty()) {
      // No enclosing loop in this chunk: unwind the chunk's frames and
      // hand the flow to the caller (the enclosing OpenMP construct).
      if (depth_ > 0) {
        emit({.op = Op::PopFrame, .n = static_cast<std::uint16_t>(depth_)});
      }
      emit({.op = Op::RetFlow, .n = is_break ? kFlowBreak : kFlowContinue});
      return;
    }
    LoopCtx& loop = loops_.back();
    if (depth_ > loop.depth) {
      emit({.op = Op::PopFrame,
            .n = static_cast<std::uint16_t>(depth_ - loop.depth)});
    }
    const std::size_t j = emit({.op = Op::Jump});
    if (is_break) {
      loop.break_jumps.push_back(j);
    } else {
      loop.continue_jumps.push_back(j);
    }
  }

  /// Declares `d` in the innermost frame: dimensions evaluated in order,
  /// then the object allocated and bound, then each initializer item
  /// (a brace list flattened row-major, a string literal one character
  /// per element) evaluated and stored. An empty leading dimension takes
  /// the brace list's top-level item count or the literal's length + 1.
  /// Objects are zero-filled, so a literal's terminating 0 needs no store
  /// and is there exactly when it fits.
  void compile_decl(const VarDecl& d) {
    // Eagerly give the declared variable a cache slot: DeclScalar and
    // DeclArray update it, so re-executions of the declaration (loop
    // iterations) repoint the cache at the freshly allocated object.
    const std::uint16_t cache = cache_u16(&d);
    const int save = next_reg_;
    const int addr = alloc();
    if (d.array_dims.empty() && !is_init_list(d.init.get())) {
      emit({.op = Op::DeclScalar,
            .a = u16(addr),
            .b = cache,
            .imm = append(m_.decls, &d)});
    } else {
      const int first = next_reg_;
      for (std::size_t k = 0; k < d.array_dims.size(); ++k) alloc();
      for (std::size_t k = 0; k < d.array_dims.size(); ++k) {
        const int reg = first + static_cast<int>(k);
        if (d.array_dims[k]) {
          into(*d.array_dims[k], reg);
        } else if (k == 0 && d.init) {
          emit({.op = Op::Const,
                .a = u16(reg),
                .imm = intern_const(Value::of_int(initializer_extent(d)))});
        } else {
          emit_fault("unsized array '" + d.name + "'");
          release_to(save);
          return;
        }
      }
      emit({.op = Op::DeclArray,
            .n = static_cast<std::uint16_t>(d.array_dims.size()),
            .a = u16(addr),
            .b = cache,
            .c = u16(first),
            .imm = append(m_.decls, &d)});
    }
    std::int32_t offset = 0;
    const auto store_value = [&](const auto& compile_into) {
      const int s2 = next_reg_;
      const int v = alloc();
      compile_into(v);
      emit({.op = Op::StoreDeclInit,
            .a = u16(addr),
            .b = u16(v),
            .imm = offset++});
      release_to(s2);
    };
    const auto store_item = [&](const Expr& item) {
      store_value([&](int v) { compile_expr_into(item, v); });
    };
    const auto fill = [&](const auto& self, const Call& list) -> void {
      for (const auto& item : list.args) {
        if (is_init_list(item.get())) {
          self(self, static_cast<const Call&>(*item));
        } else {
          store_item(*item);
        }
      }
    };
    if (is_init_list(d.init.get())) {
      fill(fill, static_cast<const Call&>(*d.init));
    } else if (const auto* str = expr_cast<StringLit>(d.init.get());
               str != nullptr && d.is_array()) {
      for (const char c : str->value) {
        store_value([&](int v) {
          emit({.op = Op::Const,
                .a = u16(v),
                .imm = intern_const(Value::of_int(c))});
        });
      }
    } else if (d.init) {
      store_item(*d.init);
    }
    release_to(save);
  }

  /// The leading dimension an initializer gives an array declared `[]`.
  static std::int64_t initializer_extent(const VarDecl& d) {
    if (const auto* str = expr_cast<StringLit>(d.init.get())) {
      return static_cast<std::int64_t>(str->value.size()) + 1;
    }
    if (is_init_list(d.init.get())) {
      return static_cast<std::int64_t>(
          static_cast<const Call&>(*d.init).args.size());
    }
    return 1;
  }

  void emit_fault(std::string message) {
    emit({.op = Op::FaultOp, .imm = intern_message(std::move(message))});
  }

  // ------------------------------------------------------------ expressions

  /// compile_expr_into, releasing the temporary registers it used.
  void into(const Expr& e, int dst) {
    const int save = next_reg_;
    compile_expr_into(e, dst);
    release_to(save);
  }

  int compile_expr(const Expr& e) {
    const int dst = alloc();
    compile_expr_into(e, dst);
    release_to(dst + 1);
    return dst;
  }

  void compile_expr_into(const Expr& e, int dst) {
    switch (e.kind) {
      case ExprKind::IntLit:
        emit({.op = Op::Const,
              .a = u16(dst),
              .imm = intern_const(
                  Value::of_int(static_cast<const IntLit&>(e).value))});
        return;
      case ExprKind::FloatLit:
        emit({.op = Op::Const,
              .a = u16(dst),
              .imm = intern_const(
                  Value::of_double(static_cast<const FloatLit&>(e).value))});
        return;
      case ExprKind::CharLit:
        emit({.op = Op::Const,
              .a = u16(dst),
              .imm = intern_const(
                  Value::of_int(static_cast<const CharLit&>(e).value))});
        return;
      case ExprKind::StringLit:
        emit({.op = Op::StrObj,
              .a = u16(dst),
              .imm = append(m_.strings, static_cast<const StringLit*>(&e))});
        return;
      case ExprKind::Ident: {
        const auto& id = static_cast<const Ident&>(e);
        if (id.decl == nullptr) {
          emit_fault("use of unknown identifier '" + id.name + "'");
          return;
        }
        if (id.decl->is_array()) {
          emit({.op = Op::ArrayAddr,
                .a = u16(dst),
                .imm = make_site(id.decl, nullptr)});
        } else {
          emit({.op = Op::LoadScalar,
                .a = u16(dst),
                .imm = make_site(id.decl, &e)});
        }
        return;
      }
      case ExprKind::Subscript: {
        const int save = next_reg_;
        const int addr = alloc();
        compile_subscript_addr(e, addr);
        emit({.op = Op::LoadElem,
              .a = u16(dst),
              .b = u16(addr),
              .imm = make_site(nullptr, &e)});
        release_to(save);
        return;
      }
      case ExprKind::Unary:
        compile_unary(static_cast<const Unary&>(e), dst);
        return;
      case ExprKind::Binary:
        compile_binary(static_cast<const Binary&>(e), dst);
        return;
      case ExprKind::Assign:
        compile_assign(static_cast<const Assign&>(e), dst);
        return;
      case ExprKind::Conditional: {
        const auto& c = static_cast<const Conditional&>(e);
        into(*c.cond, dst);
        const std::size_t jf = emit({.op = Op::JumpIfFalse, .a = u16(dst)});
        into(*c.then_expr, dst);
        const std::size_t j = emit({.op = Op::Jump});
        patch(jf, here());
        into(*c.else_expr, dst);
        patch(j, here());
        return;
      }
      case ExprKind::Call:
        compile_call(static_cast<const Call&>(e), dst);
        return;
      case ExprKind::Cast: {
        const auto& c = static_cast<const Cast&>(e);
        into(*c.operand, dst);
        if (c.type.is_pointer()) return;  // pointer casts pass through
        if (c.type.is_floating()) {
          emit({.op = Op::CastDbl, .a = u16(dst), .b = u16(dst)});
        } else {
          emit({.op = Op::CastInt, .a = u16(dst), .b = u16(dst)});
        }
        return;
      }
    }
    emit_fault("unsupported expression");  // unreachable; defensive
  }

  /// A user function with a body wins over a builtin of the same name.
  /// What cannot be called faults where the call would be evaluated,
  /// before any argument.
  void compile_call(const Call& c, int dst) {
    const FunctionDecl* fn = tu_.find_function(c.callee);
    if (fn != nullptr && fn->body != nullptr) {
      if (fn->params.size() != c.args.size()) {
        emit_fault("call to '" + c.callee + "' with wrong argument count");
        return;
      }
      const int save = next_reg_;
      const int base = next_reg_;
      for (std::size_t k = 0; k < c.args.size(); ++k) alloc();
      for (std::size_t k = 0; k < c.args.size(); ++k) {
        into(*c.args[k], base + static_cast<int>(k));
      }
      CallInfo ci;
      ci.fn = fn;
      ci.arg_base = u16(base);
      ci.argc = static_cast<std::uint16_t>(c.args.size());
      emit({.op = Op::CallUser,
            .a = u16(dst),
            .imm = append(m_.call_infos, ci)});
      release_to(save);
      return;
    }
    const std::optional<Builtin> builtin = builtin_named(c.callee);
    if (!builtin) {
      emit_fault(is_init_list(&c)
                     ? "brace initializer in expression context"
                     : "call to undefined function '" + c.callee + "'");
      return;
    }
    BuiltinCall call;
    call.node = &c;
    call.fn = *builtin;
    if (*builtin == Builtin::Assert && !c.args.empty()) {
      call.message =
          intern_message("assertion failed: " + expr_to_string(*c.args[0]));
    }
    for (const auto& arg : c.args) add_expr_chunk(*arg);
    emit({.op = Op::CallBuiltin,
          .a = u16(dst),
          .imm = append(m_.builtin_calls, call)});
  }

  void compile_unary(const Unary& u, int dst) {
    switch (u.op) {
      case UnaryOp::Plus:
        compile_expr_into(*u.operand, dst);
        return;
      case UnaryOp::Neg:
      case UnaryOp::Not:
      case UnaryOp::BitNot:
        into(*u.operand, dst);
        emit({.op = u.op == UnaryOp::Neg   ? Op::Neg
                    : u.op == UnaryOp::Not ? Op::NotOp
                                           : Op::BitNotOp,
              .a = u16(dst),
              .b = u16(dst)});
        return;
      case UnaryOp::AddrOf:
        compile_lvalue(*u.operand, dst);
        return;
      case UnaryOp::Deref: {
        into(*u.operand, dst);
        emit({.op = Op::CheckPtr,
              .a = u16(dst),
              .imm = intern_message("dereference of null pointer")});
        emit({.op = Op::LoadElem,
              .a = u16(dst),
              .b = u16(dst),
              .imm = make_site(nullptr, &u)});
        return;
      }
      case UnaryOp::PreInc:
      case UnaryOp::PreDec:
      case UnaryOp::PostInc:
      case UnaryOp::PostDec: {
        const int save = next_reg_;
        const int addr = alloc();
        compile_lvalue(*u.operand, addr);
        std::uint16_t flags = 0;
        if (u.op == UnaryOp::PreInc || u.op == UnaryOp::PreDec) {
          flags |= kIncDecPre;
        }
        if (u.op == UnaryOp::PreDec || u.op == UnaryOp::PostDec) {
          flags |= kIncDecNeg;
        }
        emit({.op = Op::IncDec,
              .n = flags,
              .a = u16(dst),
              .b = u16(addr),
              .imm = make_site(nullptr, u.operand.get())});
        release_to(save);
        return;
      }
    }
    emit_fault("unsupported unary operator");  // unreachable; defensive
  }

  void compile_binary(const Binary& b, int dst) {
    if (b.op == BinaryOp::LogicalAnd || b.op == BinaryOp::LogicalOr) {
      // The lhs decides alone when it is false (&&) or true (||).
      const bool is_and = b.op == BinaryOp::LogicalAnd;
      into(*b.lhs, dst);
      const std::size_t jshort =
          emit({.op = is_and ? Op::JumpIfFalse : Op::JumpIfTrue,
                .a = u16(dst)});
      into(*b.rhs, dst);
      emit({.op = Op::ToBool, .a = u16(dst), .b = u16(dst)});
      const std::size_t j = emit({.op = Op::Jump});
      patch(jshort, here());
      emit({.op = Op::Const,
            .a = u16(dst),
            .imm = intern_const(Value::of_int(is_and ? 0 : 1))});
      patch(j, here());
      return;
    }
    if (b.op == BinaryOp::Comma) {
      const int t = compile_expr(*b.lhs);
      release_to(t);
      compile_expr_into(*b.rhs, dst);
      return;
    }
    const int save = next_reg_;
    into(*b.lhs, dst);
    const int rhs = alloc();
    into(*b.rhs, rhs);
    emit({.op = Op::BinOp,
          .n = static_cast<std::uint16_t>(b.op),
          .a = u16(dst),
          .b = u16(dst),
          .c = u16(rhs)});
    release_to(save);
    return;
  }

  static BinaryOp compound_op(AssignOp op) {
    switch (op) {
      case AssignOp::Add: return BinaryOp::Add;
      case AssignOp::Sub: return BinaryOp::Sub;
      case AssignOp::Mul: return BinaryOp::Mul;
      case AssignOp::Div: return BinaryOp::Div;
      case AssignOp::Mod: return BinaryOp::Mod;
      case AssignOp::Shl: return BinaryOp::Shl;
      case AssignOp::Shr: return BinaryOp::Shr;
      case AssignOp::And: return BinaryOp::BitAnd;
      case AssignOp::Or: return BinaryOp::BitOr;
      case AssignOp::Xor: return BinaryOp::BitXor;
      default: return BinaryOp::Add;
    }
  }

  void compile_assign(const Assign& a, int dst) {
    const int save = next_reg_;
    const int addr = alloc();
    compile_lvalue(*a.target, addr);
    const std::int32_t site = make_site(nullptr, a.target.get());
    if (a.op == AssignOp::Assign) {
      into(*a.value, dst);
    } else {
      const int old = alloc();
      emit({.op = Op::LoadElem, .a = u16(old), .b = u16(addr), .imm = site});
      const int rhs = alloc();
      into(*a.value, rhs);
      emit({.op = Op::ApplyBin,
            .n = static_cast<std::uint16_t>(compound_op(a.op)),
            .a = u16(dst),
            .b = u16(old),
            .c = u16(rhs)});
    }
    emit({.op = Op::StoreElem, .a = u16(addr), .b = u16(dst), .imm = site});
    release_to(save);
  }

  void compile_lvalue(const Expr& e, int dst) {
    switch (e.kind) {
      case ExprKind::Ident: {
        const auto& id = static_cast<const Ident&>(e);
        emit({.op = Op::VarAddr,
              .a = u16(dst),
              .imm = make_site(id.decl, nullptr)});
        return;
      }
      case ExprKind::Subscript:
        compile_subscript_addr(e, dst);
        return;
      case ExprKind::Unary: {
        const auto& u = static_cast<const Unary&>(e);
        if (u.op == UnaryOp::Deref) {
          into(*u.operand, dst);
          emit({.op = Op::CheckPtr,
                .a = u16(dst),
                .imm = intern_message("dereference of null pointer")});
          return;
        }
        break;
      }
      default:
        break;
    }
    emit_fault("expression is not an lvalue: " + expr_to_string(e));
  }

  /// Leaves the element address of a subscript chain in `dst`: indices
  /// outermost-subscript-first, then base resolution (slot lookup, and
  /// for pointer bases a read event + null check).
  void compile_subscript_addr(const Expr& e, int dst) {
    std::vector<const Expr*> idx_exprs;  // outermost first
    const Expr* cur = &e;
    while (const auto* s = expr_cast<Subscript>(cur)) {
      idx_exprs.push_back(s->index.get());
      cur = s->base.get();
    }
    const auto n = static_cast<int>(idx_exprs.size());
    const int save = next_reg_;
    const int first = next_reg_;
    for (int k = 0; k < n; ++k) alloc();
    for (int k = 0; k < n; ++k) {
      into(*idx_exprs[static_cast<std::size_t>(k)], first + k);
    }

    IndexInfo info;
    Instr ins{.op = Op::IndexAddr,
              .n = static_cast<std::uint16_t>(n),
              .a = u16(dst),
              .b = u16(first)};
    if (const auto* id = expr_cast<Ident>(cur)) {
      info.base_is_ident = true;
      if (id->decl != nullptr && id->decl->is_array()) {
        info.base_is_array = true;
        info.base_site = make_site(id->decl, nullptr);
      } else {
        // Pointer variable (or unbound ident, which faults at lookup):
        // loading the pointer is itself an instrumented read.
        info.base_site = make_site(id->decl, cur);
        info.null_msg = intern_message(
            "dereference of null pointer '" +
            (id->decl != nullptr ? id->decl->name : id->name) + "'");
      }
    } else {
      const int base = alloc();
      into(*cur, base);
      ins.c = u16(base);
      info.null_msg = intern_message("dereference of null pointer");
    }
    ins.imm = append(m_.index_infos, info);
    emit(ins);
    release_to(save);
  }

  const TranslationUnit& tu_;
  Module m_;
  Chunk chunk_;
  int next_reg_ = 0;
  int max_reg_ = 0;
  int depth_ = 0;
  std::map<const VarDecl*, std::int32_t> caches_;
  std::vector<LoopCtx> loops_;
  std::map<std::pair<int, std::uint64_t>, std::int32_t> const_ids_;
  std::map<std::string, std::int32_t> message_ids_;
  std::vector<std::pair<const Expr*, bool>> pending_exprs_;  // add_expr_chunk
};

}  // namespace

std::optional<Builtin> builtin_named(std::string_view name) {
  for (std::size_t k = 0; k < kBuiltinNames.size(); ++k) {
    if (kBuiltinNames[k] == name) return static_cast<Builtin>(k);
  }
  return std::nullopt;
}

LoopNest loop_nest(const OmpStmt& s) {
  std::int64_t collapse = 1;
  if (const auto* c = s.directive.find_clause(OmpClauseKind::Collapse)) {
    collapse = std::max<std::int64_t>(1, c->int_arg);
  }
  LoopNest nest;
  const Stmt* cursor = s.body.get();
  for (std::int64_t level = 0; level < collapse; ++level) {
    while (const auto* block = stmt_cast<CompoundStmt>(cursor)) {
      if (block->body.size() != 1) break;
      cursor = block->body[0].get();
    }
    const auto* f = stmt_cast<ForStmt>(cursor);
    if (f == nullptr) return nest;
    nest.loops.push_back(f);
    cursor = f->body.get();
  }
  nest.complete = true;
  return nest;
}

AtomicParts atomic_parts(const OmpStmt& s) {
  const Stmt* body = s.body.get();
  while (const auto* block = stmt_cast<CompoundStmt>(body)) {
    if (block->body.size() != 1) break;
    body = block->body[0].get();
  }
  const auto* es = stmt_cast<ExprStmt>(body);
  if (es == nullptr) return {};
  AtomicParts parts{es->expr.get(), nullptr};
  if (const auto* a = expr_cast<Assign>(parts.stmt)) {
    parts.target = s.directive.atomic_kind == OmpAtomicKind::Read
                       ? a->value.get()
                       : a->target.get();
  } else if (const auto* u = expr_cast<Unary>(parts.stmt)) {
    parts.target = u->operand.get();
  }
  if (expr_cast<Ident>(parts.target) == nullptr &&
      expr_cast<Subscript>(parts.target) == nullptr) {
    parts.target = nullptr;
  }
  return parts;
}

Module compile(const TranslationUnit& tu) {
  static obs::Counter& modules = obs::metrics().counter(obs::kVmModules);
  static obs::Counter& chunks = obs::metrics().counter(obs::kVmChunks);
  static obs::Counter& instrs = obs::metrics().counter(obs::kVmInstructions);
  obs::Span span(obs::kSpanVmCompile, "unit");

  Compiler c(tu);
  Module m = c.compile_all();
  modules.add();
  chunks.add(m.chunks.size());
  std::uint64_t total = 0;
  for (const auto& ch : m.chunks) total += ch.code.size();
  instrs.add(total);
  return m;
}

Module compile_verified(const TranslationUnit& tu) {
  Module m = compile(tu);
  if (auto err = verify(m)) {
    throw Error("bytecode verification failed: " + err->to_string());
  }
  return m;
}

}  // namespace drbml::runtime::bc
