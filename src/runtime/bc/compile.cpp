// AST -> bytecode compiler. The golden rule: the compiled code makes
// exactly the instrumented calls (note_step / read & write events with the
// same rendered text and location), in exactly the order, that produced
// tests/golden/runtime_fingerprints.txt. Evaluation-order decisions below
// that look arbitrary (subscript indices outermost-first,
// allocate-then-init declarations, cond/inc placement in loops) are part
// of that contract and must not be "fixed". Anything not covered by the
// opcode set is emitted as an EvalExpr / ExecStmt / DeclVar call into the
// interpreter's AST handlers (interp.cpp), which share the instrumented
// access path with the compiled code.
#include "runtime/bc/compile.hpp"

#include <algorithm>
#include <cstring>
#include <map>
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

/// Innermost-base source coordinate of an access. Mirrors the
/// interpreter's access_loc; the two must agree for bit-identical race
/// reports.
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
    for (const auto& fn : tu_.functions) {
      visit_stmt(fn->body.get());
    }
    return std::move(m_);
  }

  [[nodiscard]] std::uint64_t fallback_sites() const noexcept {
    return fallback_sites_;
  }

 private:
  // ------------------------------------------------------------ chunk set

  void add_chunk(const Stmt& s, std::string label) {
    if (m_.entries.count(&s) != 0) return;
    Chunk ch = compile_chunk(s, std::move(label));
    m_.max_frame = std::max(m_.max_frame, ch.frame_size());
    m_.entries[&s] = static_cast<std::uint32_t>(m_.chunks.size());
    m_.chunks.push_back(std::move(ch));
  }

  /// Registers chunks for every body the interpreter enters: OpenMP
  /// construct bodies, the innermost loop bodies of worksharing and
  /// standalone simd loops (same unwrap + collapse walk as
  /// exec_worksharing_loop), and sections children. A body without a
  /// chunk faults when the runtime reaches it.
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
        if (o->body) {
          add_chunk(*o->body, "omp " + omp_directive_kind_name(k));
        }
        if (o->directive.is_worksharing_loop() ||
            k == OmpDirectiveKind::Simd) {
          add_worksharing_chunk(*o);
        }
        if (k == OmpDirectiveKind::Sections ||
            k == OmpDirectiveKind::ParallelSections) {
          add_sections_chunks(*o);
        }
        visit_stmt(o->body.get());
        break;
      }
      default:
        break;
    }
  }

  void add_worksharing_chunk(const OmpStmt& s) {
    // Same body unwrapping and collapse walk as exec_worksharing_loop.
    const Stmt* body = s.body.get();
    while (const auto* block = stmt_cast<CompoundStmt>(body)) {
      if (block->body.size() != 1) break;
      body = block->body[0].get();
    }
    const auto* loop = stmt_cast<ForStmt>(body);
    if (loop == nullptr) return;  // the runtime faults before iterating

    std::int64_t collapse = 1;
    if (const auto* c = s.directive.find_clause(OmpClauseKind::Collapse)) {
      collapse = std::max<std::int64_t>(1, c->int_arg);
    }
    const Stmt* cursor = loop;
    const Stmt* innermost = nullptr;
    for (std::int64_t level = 0; level < collapse; ++level) {
      const auto* f = stmt_cast<ForStmt>(cursor);
      if (f == nullptr) return;  // collapse depth fault at runtime
      innermost = f->body.get();
      cursor = f->body.get();
      while (const auto* block = stmt_cast<CompoundStmt>(cursor)) {
        if (block->body.size() != 1 || level + 1 >= collapse) break;
        cursor = block->body[0].get();
      }
    }
    if (innermost != nullptr) add_chunk(*innermost, "omp-ws body");
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
    const auto id = static_cast<std::int32_t>(m_.consts.size());
    m_.consts.push_back(v);
    const_ids_[key] = id;
    return id;
  }

  std::int32_t intern_message(std::string msg) {
    auto it = message_ids_.find(msg);
    if (it != message_ids_.end()) return it->second;
    const auto id = static_cast<std::int32_t>(m_.messages.size());
    message_ids_[msg] = id;
    m_.messages.push_back(std::move(msg));
    return id;
  }

  std::int32_t intern_decl(const VarDecl* d) {
    const auto id = static_cast<std::int32_t>(m_.decls.size());
    m_.decls.push_back(d);
    return id;
  }

  std::int32_t intern_string(const StringLit* s) {
    const auto id = static_cast<std::int32_t>(m_.strings.size());
    m_.strings.push_back(s);
    return id;
  }

  std::int32_t intern_expr(const Expr* e) {
    const auto id = static_cast<std::int32_t>(m_.exprs.size());
    m_.exprs.push_back(e);
    return id;
  }

  /// Access site carrying the rendered text + location of `access` (the
  /// expression the interpreter passes to on_read/on_write).
  std::int32_t make_event_site(const Expr& access) {
    AccessSite s;
    s.text = expr_to_string(access);
    s.loc = site_loc(access);
    const auto id = static_cast<std::int32_t>(m_.sites.size());
    m_.sites.push_back(std::move(s));
    return id;
  }

  /// Access site for a variable lookup (with the chunk's cache slot);
  /// `with_event` additionally renders text/loc for a read event on the
  /// variable itself (pointer-base reads, scalar loads).
  std::int32_t make_var_site(const VarDecl* decl, const Expr* access) {
    AccessSite s;
    s.decl = decl;
    s.cache = cache_slot(decl);
    if (access != nullptr) {
      s.text = expr_to_string(*access);
      s.loc = site_loc(*access);
    }
    const auto id = static_cast<std::int32_t>(m_.sites.size());
    m_.sites.push_back(std::move(s));
    return id;
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
    std::vector<std::size_t> break_flows;     // flow_infos[] indices
    std::vector<std::size_t> continue_flows;
  };

  void close_loop(LoopCtx&& loop, std::size_t lend, std::size_t lcont) {
    for (std::size_t j : loop.break_jumps) patch(j, lend);
    for (std::size_t j : loop.continue_jumps) patch(j, lcont);
    for (std::size_t f : loop.break_flows) {
      m_.flow_infos[f].brk = static_cast<std::int32_t>(lend);
    }
    for (std::size_t f : loop.continue_flows) {
      m_.flow_infos[f].cont = static_cast<std::int32_t>(lcont);
    }
  }

  Chunk compile_chunk(const Stmt& s, std::string label) {
    chunk_ = Chunk{};
    chunk_.entry = &s;
    chunk_.label = std::move(label);
    next_reg_ = 0;
    max_reg_ = 0;
    depth_ = 0;
    caches_.clear();
    loops_.clear();
    compile_stmt(s);
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
        loops_.push_back(LoopCtx{depth_, {}, {}, {}, {}});
        compile_stmt(*f.body);
        const std::size_t lcont = here();
        if (f.inc) {
          const int r = compile_expr(*f.inc);
          release_to(r);
        }
        emit({.op = Op::Jump, .imm = static_cast<std::int32_t>(lcond)});
        const std::size_t lend = here();
        if (jf != kNoPatch) patch(jf, lend);
        LoopCtx loop = std::move(loops_.back());
        loops_.pop_back();
        close_loop(std::move(loop), lend, lcont);
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
        loops_.push_back(LoopCtx{depth_, {}, {}, {}, {}});
        compile_stmt(*w.body);
        emit({.op = Op::Jump, .imm = static_cast<std::int32_t>(lcond)});
        const std::size_t lend = here();
        patch(jf, lend);
        LoopCtx loop = std::move(loops_.back());
        loops_.pop_back();
        close_loop(std::move(loop), lend, lcond);
        return;
      }
      case StmtKind::Do: {
        const auto& d = static_cast<const DoStmt&>(s);
        const std::size_t lbody = here();
        loops_.push_back(LoopCtx{depth_, {}, {}, {}, {}});
        compile_stmt(*d.body);
        const std::size_t lcond = here();
        const int c = compile_expr(*d.cond);
        release_to(c);
        emit({.op = Op::JumpIfTrue,
              .a = u16(c),
              .imm = static_cast<std::int32_t>(lbody)});
        const std::size_t lend = here();
        LoopCtx loop = std::move(loops_.back());
        loops_.pop_back();
        close_loop(std::move(loop), lend, lcond);
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
        const auto idx = static_cast<std::size_t>(m_.flow_infos.size());
        m_.flow_infos.push_back(fi);
        ++fallback_sites_;
        emit({.op = Op::ExecStmt, .imm = static_cast<std::int32_t>(idx)});
        if (!loops_.empty()) {
          loops_.back().break_flows.push_back(idx);
          loops_.back().continue_flows.push_back(idx);
        }
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

  void compile_decl(const VarDecl& d) {
    // Eagerly give the declared variable a cache slot: DeclScalar/DeclVar
    // update it, so re-executions of the declaration (loop iterations)
    // repoint the cache at the freshly allocated object.
    const std::uint16_t cache = cache_u16(&d);
    if (!d.array_dims.empty() || is_init_list(d.init.get())) {
      // Arrays, brace initializers: the interpreter's declare_var handles
      // dimension evaluation and the flattened fill.
      ++fallback_sites_;
      emit({.op = Op::DeclVar, .b = cache, .imm = intern_decl(&d)});
      return;
    }
    const int save = next_reg_;
    const int addr = alloc();
    emit({.op = Op::DeclScalar,
          .a = u16(addr),
          .b = cache,
          .imm = intern_decl(&d)});
    if (d.init) {
      const int v = alloc();
      compile_expr_into(*d.init, v);
      emit({.op = Op::StoreDeclInit, .a = u16(addr), .b = u16(v)});
    }
    release_to(save);
  }

  // ------------------------------------------------------------ expressions

  int compile_expr(const Expr& e) {
    const int dst = alloc();
    compile_expr_into(e, dst);
    release_to(dst + 1);
    return dst;
  }

  void emit_eval(const Expr& e, int dst) {
    ++fallback_sites_;
    emit({.op = Op::EvalExpr, .a = u16(dst), .imm = intern_expr(&e)});
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
              .imm = intern_string(static_cast<const StringLit*>(&e))});
        return;
      case ExprKind::Ident: {
        const auto& id = static_cast<const Ident&>(e);
        if (id.decl == nullptr) {
          emit_eval(e, dst);  // "use of unknown identifier" fault
          return;
        }
        if (id.decl->is_array()) {
          emit({.op = Op::ArrayAddr,
                .a = u16(dst),
                .imm = make_var_site(id.decl, nullptr)});
        } else {
          emit({.op = Op::LoadScalar,
                .a = u16(dst),
                .imm = make_var_site(id.decl, &e)});
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
              .imm = make_event_site(e)});
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
        {
          const int save = next_reg_;
          compile_expr_into(*c.cond, dst);
          release_to(save);
        }
        const std::size_t jf = emit({.op = Op::JumpIfFalse, .a = u16(dst)});
        {
          const int save = next_reg_;
          compile_expr_into(*c.then_expr, dst);
          release_to(save);
        }
        const std::size_t j = emit({.op = Op::Jump});
        patch(jf, here());
        {
          const int save = next_reg_;
          compile_expr_into(*c.else_expr, dst);
          release_to(save);
        }
        patch(j, here());
        return;
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const Call&>(e);
        const FunctionDecl* fn = tu_.find_function(c.callee);
        if (fn == nullptr || fn->body == nullptr ||
            fn->params.size() != c.args.size()) {
          // Builtins, externs, and arity errors: the interpreter's
          // eval_call.
          emit_eval(e, dst);
          return;
        }
        const int save = next_reg_;
        const int base = next_reg_;
        for (std::size_t k = 0; k < c.args.size(); ++k) alloc();
        for (std::size_t k = 0; k < c.args.size(); ++k) {
          const int s2 = next_reg_;
          compile_expr_into(*c.args[k], base + static_cast<int>(k));
          release_to(s2);
        }
        CallInfo ci;
        ci.fn = fn;
        ci.node = &c;
        ci.arg_base = u16(base);
        ci.argc = static_cast<std::uint16_t>(c.args.size());
        const auto idx = static_cast<std::int32_t>(m_.call_infos.size());
        m_.call_infos.push_back(ci);
        emit({.op = Op::CallUser, .a = u16(dst), .imm = idx});
        release_to(save);
        return;
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const Cast&>(e);
        {
          const int save = next_reg_;
          compile_expr_into(*c.operand, dst);
          release_to(save);
        }
        if (c.type.is_pointer()) return;  // pointer casts pass through
        if (c.type.is_floating()) {
          emit({.op = Op::CastDbl, .a = u16(dst), .b = u16(dst)});
        } else {
          emit({.op = Op::CastInt, .a = u16(dst), .b = u16(dst)});
        }
        return;
      }
    }
    emit_eval(e, dst);  // unreachable; defensive
  }

  void compile_unary(const Unary& u, int dst) {
    switch (u.op) {
      case UnaryOp::Plus:
        compile_expr_into(*u.operand, dst);
        return;
      case UnaryOp::Neg: {
        const int save = next_reg_;
        compile_expr_into(*u.operand, dst);
        release_to(save);
        emit({.op = Op::Neg, .a = u16(dst), .b = u16(dst)});
        return;
      }
      case UnaryOp::Not: {
        const int save = next_reg_;
        compile_expr_into(*u.operand, dst);
        release_to(save);
        emit({.op = Op::NotOp, .a = u16(dst), .b = u16(dst)});
        return;
      }
      case UnaryOp::BitNot: {
        const int save = next_reg_;
        compile_expr_into(*u.operand, dst);
        release_to(save);
        emit({.op = Op::BitNotOp, .a = u16(dst), .b = u16(dst)});
        return;
      }
      case UnaryOp::AddrOf:
        compile_lvalue(*u.operand, dst);
        return;
      case UnaryOp::Deref: {
        const int save = next_reg_;
        compile_expr_into(*u.operand, dst);
        release_to(save);
        emit({.op = Op::CheckPtr,
              .a = u16(dst),
              .imm = intern_message("dereference of null pointer")});
        emit({.op = Op::LoadElem,
              .a = u16(dst),
              .b = u16(dst),
              .imm = make_event_site(u)});
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
              .imm = make_event_site(*u.operand)});
        release_to(save);
        return;
      }
    }
    emit_eval(u, dst);  // unreachable; defensive
  }

  void compile_binary(const Binary& b, int dst) {
    if (b.op == BinaryOp::LogicalAnd) {
      {
        const int save = next_reg_;
        compile_expr_into(*b.lhs, dst);
        release_to(save);
      }
      const std::size_t jf = emit({.op = Op::JumpIfFalse, .a = u16(dst)});
      {
        const int save = next_reg_;
        compile_expr_into(*b.rhs, dst);
        release_to(save);
      }
      emit({.op = Op::ToBool, .a = u16(dst), .b = u16(dst)});
      const std::size_t j = emit({.op = Op::Jump});
      patch(jf, here());
      emit({.op = Op::Const,
            .a = u16(dst),
            .imm = intern_const(Value::of_int(0))});
      patch(j, here());
      return;
    }
    if (b.op == BinaryOp::LogicalOr) {
      {
        const int save = next_reg_;
        compile_expr_into(*b.lhs, dst);
        release_to(save);
      }
      const std::size_t jt = emit({.op = Op::JumpIfTrue, .a = u16(dst)});
      {
        const int save = next_reg_;
        compile_expr_into(*b.rhs, dst);
        release_to(save);
      }
      emit({.op = Op::ToBool, .a = u16(dst), .b = u16(dst)});
      const std::size_t j = emit({.op = Op::Jump});
      patch(jt, here());
      emit({.op = Op::Const,
            .a = u16(dst),
            .imm = intern_const(Value::of_int(1))});
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
    {
      const int s2 = next_reg_;
      compile_expr_into(*b.lhs, dst);
      release_to(s2);
    }
    const int rhs = alloc();
    {
      const int s2 = next_reg_;
      compile_expr_into(*b.rhs, rhs);
      release_to(s2);
    }
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
    const std::int32_t site = make_event_site(*a.target);
    if (a.op == AssignOp::Assign) {
      const int s2 = next_reg_;
      compile_expr_into(*a.value, dst);
      release_to(s2);
    } else {
      const int old = alloc();
      emit({.op = Op::LoadElem, .a = u16(old), .b = u16(addr), .imm = site});
      const int rhs = alloc();
      {
        const int s2 = next_reg_;
        compile_expr_into(*a.value, rhs);
        release_to(s2);
      }
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
              .imm = make_var_site(id.decl, nullptr)});
        return;
      }
      case ExprKind::Subscript:
        compile_subscript_addr(e, dst);
        return;
      case ExprKind::Unary: {
        const auto& u = static_cast<const Unary&>(e);
        if (u.op == UnaryOp::Deref) {
          const int save = next_reg_;
          compile_expr_into(*u.operand, dst);
          release_to(save);
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
    emit({.op = Op::FaultOp,
          .imm = intern_message("expression is not an lvalue: " +
                                expr_to_string(e))});
  }

  /// Leaves the element address of a subscript chain in `dst`, making the
  /// same evaluation steps as the walker's lvalue(): indices
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
      const int s2 = next_reg_;
      compile_expr_into(*idx_exprs[static_cast<std::size_t>(k)], first + k);
      release_to(s2);
    }

    IndexInfo info;
    info.node = static_cast<const Subscript*>(&e);
    Instr ins{.op = Op::IndexAddr,
              .n = static_cast<std::uint16_t>(n),
              .a = u16(dst),
              .b = u16(first)};
    if (const auto* id = expr_cast<Ident>(cur)) {
      info.base_is_ident = true;
      if (id->decl != nullptr && id->decl->is_array()) {
        info.base_is_array = true;
        info.base_site = make_var_site(id->decl, nullptr);
      } else {
        // Pointer variable (or unbound ident, which faults at lookup):
        // loading the pointer is itself an instrumented read.
        info.base_site = make_var_site(id->decl, cur);
        info.null_msg = intern_message(
            "dereference of null pointer '" +
            (id->decl != nullptr ? id->decl->name : id->name) + "'");
      }
    } else {
      const int base = alloc();
      {
        const int s2 = next_reg_;
        compile_expr_into(*cur, base);
        release_to(s2);
      }
      ins.c = u16(base);
      info.null_msg = intern_message("dereference of null pointer");
    }
    const auto idx = static_cast<std::int32_t>(m_.index_infos.size());
    m_.index_infos.push_back(info);
    ins.imm = idx;
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
  std::uint64_t fallback_sites_ = 0;
};

}  // namespace

Module compile(const TranslationUnit& tu) {
  static obs::Counter& modules = obs::metrics().counter(obs::kVmModules);
  static obs::Counter& chunks = obs::metrics().counter(obs::kVmChunks);
  static obs::Counter& instrs = obs::metrics().counter(obs::kVmInstructions);
  static obs::Counter& fallbacks =
      obs::metrics().counter(obs::kVmFallbackSites);
  obs::Span span(obs::kSpanVmCompile, "unit");

  Compiler c(tu);
  Module m = c.compile_all();
  modules.add();
  chunks.add(m.chunks.size());
  std::uint64_t total = 0;
  for (const auto& ch : m.chunks) total += ch.code.size();
  instrs.add(total);
  fallbacks.add(c.fallback_sites());
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
