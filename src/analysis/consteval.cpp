#include "analysis/consteval.hpp"

#include "minic/int_ops.hpp"

namespace drbml::analysis {

using namespace minic;

namespace {

/// Collects constant bindings. `conditional` is true inside branches and
/// loops, where assignments poison rather than bind. `tid_conditional`
/// tracks a looser discipline for thread-id forms: an OpenMP construct
/// body runs straight-line once per thread, so declaration initializers
/// there may still bind a TidForm, while loops and branches poison both.
class Scanner {
 public:
  /// Binds into `values`, `tid_values` and `poisoned`, the maps of
  /// `folder`, and folds initializers against `folder` as it stands:
  /// read-only, before the binding they produce is inserted.
  Scanner(const ConstantMap& folder,
          std::map<const VarDecl*, std::int64_t>& values,
          std::map<const VarDecl*, TidForm>& tid_values,
          std::set<const VarDecl*>& poisoned)
      : folder_(folder),
        values_(values),
        tid_values_(tid_values),
        poisoned_(poisoned) {}

  void scan_stmt(const Stmt& s, bool conditional, bool tid_conditional) {
    switch (s.kind) {
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        for (const auto& v : d.decls) {
          if (v->is_array() || v->type.is_pointer() ||
              v->type.is_floating()) {
            continue;
          }
          if (v->init) {
            bind(v.get(), v->init.get(), conditional, tid_conditional);
          }
        }
        break;
      }
      case StmtKind::Expr:
        scan_expr(*static_cast<const ExprStmt&>(s).expr, conditional);
        break;
      case StmtKind::Compound:
        for (const auto& st : static_cast<const CompoundStmt&>(s).body) {
          scan_stmt(*st, conditional, tid_conditional);
        }
        break;
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(s);
        scan_stmt(*i.then_branch, true, true);
        if (i.else_branch) scan_stmt(*i.else_branch, true, true);
        break;
      }
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(s);
        if (f.init) scan_stmt(*f.init, true, true);
        if (f.inc) scan_expr(*f.inc, true);
        scan_stmt(*f.body, true, true);
        break;
      }
      case StmtKind::While:
        scan_stmt(*static_cast<const WhileStmt&>(s).body, true, true);
        break;
      case StmtKind::Do:
        scan_stmt(*static_cast<const DoStmt&>(s).body, true, true);
        break;
      case StmtKind::Omp: {
        const auto& o = static_cast<const OmpStmt&>(s);
        // Everything under an OpenMP directive executes concurrently;
        // treat as conditional for plain constants. Thread-id forms stay
        // bindable: each thread runs the body's straight-line declarations
        // exactly once with its own omp_get_thread_num().
        if (o.body) scan_stmt(*o.body, true, tid_conditional);
        break;
      }
      default:
        break;
    }
  }

  /// Scans for assignments (anywhere in an expression tree).
  void scan_expr(const Expr& e, bool conditional) {
    switch (e.kind) {
      case ExprKind::Assign: {
        const auto& a = static_cast<const Assign&>(e);
        if (const auto* id = expr_cast<Ident>(a.target.get())) {
          if (id->decl != nullptr) {
            if (a.op == AssignOp::Assign && !conditional) {
              // Assignments never bind thread-id forms: the flow-
              // insensitive scan cannot prove the assignment precedes
              // every use, while a declaration trivially does.
              bind(id->decl, a.value.get(), conditional,
                   /*tid_conditional=*/true);
            } else {
              poison(id->decl);
            }
          }
        }
        scan_expr(*a.value, conditional);
        break;
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const Unary&>(e);
        if (u.op == UnaryOp::PreInc || u.op == UnaryOp::PreDec ||
            u.op == UnaryOp::PostInc || u.op == UnaryOp::PostDec ||
            u.op == UnaryOp::AddrOf) {
          if (const auto* id = expr_cast<Ident>(u.operand.get())) {
            if (id->decl != nullptr) poison(id->decl);
          }
        }
        scan_expr(*u.operand, conditional);
        break;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const Binary&>(e);
        scan_expr(*b.lhs, conditional);
        scan_expr(*b.rhs, conditional);
        break;
      }
      case ExprKind::Subscript: {
        const auto& sub = static_cast<const Subscript&>(e);
        scan_expr(*sub.base, conditional);
        scan_expr(*sub.index, conditional);
        break;
      }
      case ExprKind::Conditional: {
        const auto& c = static_cast<const Conditional&>(e);
        scan_expr(*c.cond, conditional);
        scan_expr(*c.then_expr, true);
        scan_expr(*c.else_expr, true);
        break;
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const Call&>(e);
        for (const auto& arg : c.args) scan_expr(*arg, conditional);
        // scanf-style writes through &x poison handled by AddrOf above.
        break;
      }
      case ExprKind::Cast:
        scan_expr(*static_cast<const Cast&>(e).operand, conditional);
        break;
      default:
        break;
    }
  }

 private:
  void bind(const VarDecl* v, const Expr* init, bool conditional,
            bool tid_conditional) {
    if (poisoned_.count(v) != 0) return;
    if (values_.count(v) != 0 || tid_values_.count(v) != 0) {
      // Second binding: keep the latest only if constant; simplest sound
      // choice is to poison.
      poison(v);
      return;
    }
    // Literal or foldable initializer, evaluated against current bindings.
    if (!conditional) {
      if (auto val = folder_.eval(*init)) {
        values_.emplace(v, *val);
        return;
      }
    }
    if (!tid_conditional) {
      // Straight-line declaration in an OpenMP body (or plain code whose
      // initializer mentions omp_get_thread_num()): bind the affine
      // thread-id form. A coefficient of zero is a per-thread constant.
      if (auto form = folder_.tid_eval(*init)) {
        tid_values_.emplace(v, *form);
        return;
      }
    }
    poison(v);
  }

  void poison(const VarDecl* v) {
    poisoned_.insert(v);
    values_.erase(v);
    tid_values_.erase(v);
  }

  const ConstantMap& folder_;
  std::map<const VarDecl*, std::int64_t>& values_;
  std::map<const VarDecl*, TidForm>& tid_values_;
  std::set<const VarDecl*>& poisoned_;
};

}  // namespace

ConstantMap ConstantMap::build(const TranslationUnit& unit,
                               const FunctionDecl& fn) {
  ConstantMap cm;
  Scanner scanner(cm, cm.values_, cm.tid_values_, cm.poisoned_);
  for (const auto& g : unit.globals) {
    if (g->init && !g->is_array() && !g->type.is_pointer() &&
        !g->type.is_floating()) {
      if (auto val = cm.eval(*g->init)) cm.values_[g.get()] = *val;
    }
  }
  if (fn.body) scanner.scan_stmt(*fn.body, false, false);
  return cm;
}

std::optional<std::int64_t> ConstantMap::value_of(const VarDecl* v) const {
  if (poisoned_.count(v) != 0) return std::nullopt;
  auto it = values_.find(v);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<TidForm> ConstantMap::tid_form_of(const VarDecl* v) const {
  if (poisoned_.count(v) != 0) return std::nullopt;
  auto it = tid_values_.find(v);
  if (it == tid_values_.end()) return std::nullopt;
  return it->second;
}

std::optional<TidForm> ConstantMap::tid_eval(const Expr& e) const {
  switch (e.kind) {
    case ExprKind::IntLit:
      return TidForm{0, static_cast<const IntLit&>(e).value};
    case ExprKind::CharLit:
      return TidForm{
          0, static_cast<std::int64_t>(static_cast<const CharLit&>(e).value)};
    case ExprKind::Ident: {
      const auto& id = static_cast<const Ident&>(e);
      if (id.decl == nullptr) return std::nullopt;
      if (auto c = value_of(id.decl)) return TidForm{0, *c};
      return tid_form_of(id.decl);
    }
    case ExprKind::Call: {
      const auto& c = static_cast<const Call&>(e);
      if (c.callee == "omp_get_thread_num" && c.args.empty()) {
        return TidForm{1, 0};
      }
      return std::nullopt;
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const Unary&>(e);
      auto f = tid_eval(*u.operand);
      if (!f) return std::nullopt;
      switch (u.op) {
        case UnaryOp::Plus: return f;
        case UnaryOp::Neg:
          return TidForm{int_neg(f->coeff), int_neg(f->constant)};
        default: return std::nullopt;
      }
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      auto l = tid_eval(*b.lhs);
      auto r = tid_eval(*b.rhs);
      if (!l || !r) return std::nullopt;
      switch (b.op) {
        case BinaryOp::Add:
          return TidForm{int_add(l->coeff, r->coeff),
                         int_add(l->constant, r->constant)};
        case BinaryOp::Sub:
          return TidForm{int_sub(l->coeff, r->coeff),
                         int_sub(l->constant, r->constant)};
        case BinaryOp::Mul:
          if (l->coeff == 0) {
            return TidForm{int_mul(l->constant, r->coeff),
                           int_mul(l->constant, r->constant)};
          }
          if (r->coeff == 0) {
            return TidForm{int_mul(l->coeff, r->constant),
                           int_mul(l->constant, r->constant)};
          }
          return std::nullopt;
        default:
          return std::nullopt;
      }
    }
    case ExprKind::Cast:
      return tid_eval(*static_cast<const Cast&>(e).operand);
    default:
      return std::nullopt;
  }
}

std::optional<std::int64_t> ConstantMap::eval(const Expr& e) const {
  switch (e.kind) {
    case ExprKind::IntLit:
      return static_cast<const IntLit&>(e).value;
    case ExprKind::CharLit:
      return static_cast<std::int64_t>(static_cast<const CharLit&>(e).value);
    case ExprKind::Ident: {
      const auto& id = static_cast<const Ident&>(e);
      if (id.decl == nullptr) return std::nullopt;
      return value_of(id.decl);
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const Unary&>(e);
      auto v = eval(*u.operand);
      if (!v) return std::nullopt;
      switch (u.op) {
        case UnaryOp::Plus: return v;
        case UnaryOp::Neg: return int_neg(*v);
        case UnaryOp::Not: return *v == 0 ? 1 : 0;
        case UnaryOp::BitNot: return ~*v;
        default: return std::nullopt;
      }
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      auto l = eval(*b.lhs);
      auto r = eval(*b.rhs);
      if (!l || !r) return std::nullopt;
      switch (b.op) {
        case BinaryOp::Add: return int_add(*l, *r);
        case BinaryOp::Sub: return int_sub(*l, *r);
        case BinaryOp::Mul: return int_mul(*l, *r);
        case BinaryOp::Div:
        case BinaryOp::Mod: {
          // A zero divisor or an unrepresentable quotient is not a
          // constant.
          const IntQuotient q =
              b.op == BinaryOp::Div ? int_div(*l, *r) : int_mod(*l, *r);
          return q.ok() ? std::optional(q.value) : std::nullopt;
        }
        case BinaryOp::Shl: return int_shl(*l, *r);
        case BinaryOp::Shr: return int_shr(*l, *r);
        case BinaryOp::Lt: return *l < *r ? 1 : 0;
        case BinaryOp::Gt: return *l > *r ? 1 : 0;
        case BinaryOp::Le: return *l <= *r ? 1 : 0;
        case BinaryOp::Ge: return *l >= *r ? 1 : 0;
        case BinaryOp::Eq: return *l == *r ? 1 : 0;
        case BinaryOp::Ne: return *l != *r ? 1 : 0;
        case BinaryOp::LogicalAnd: return (*l != 0 && *r != 0) ? 1 : 0;
        case BinaryOp::LogicalOr: return (*l != 0 || *r != 0) ? 1 : 0;
        case BinaryOp::BitAnd: return *l & *r;
        case BinaryOp::BitOr: return *l | *r;
        case BinaryOp::BitXor: return *l ^ *r;
        case BinaryOp::Comma: return r;
      }
      return std::nullopt;
    }
    case ExprKind::Cast:
      return eval(*static_cast<const Cast&>(e).operand);
    default:
      return std::nullopt;
  }
}

}  // namespace drbml::analysis
