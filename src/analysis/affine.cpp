#include "analysis/affine.hpp"

#include "minic/int_ops.hpp"

namespace drbml::analysis {

using namespace minic;

const VarDecl* tid_symbol() noexcept {
  // A never-declared sentinel: name chosen for readable rendering in
  // dependence-graph and evidence output.
  static const VarDecl sentinel = [] {
    VarDecl v;
    v.name = "__tid";
    return v;
  }();
  return &sentinel;
}

LinearForm& LinearForm::operator+=(const LinearForm& o) {
  if (!o.is_affine) is_affine = false;
  if (!is_affine) return *this;
  constant = int_add(constant, o.constant);
  for (const auto& [v, c] : o.coeffs) coeffs[v] = int_add(coeffs[v], c);
  return *this;
}

LinearForm& LinearForm::operator-=(const LinearForm& o) {
  if (!o.is_affine) is_affine = false;
  if (!is_affine) return *this;
  constant = int_sub(constant, o.constant);
  for (const auto& [v, c] : o.coeffs) coeffs[v] = int_sub(coeffs[v], c);
  return *this;
}

void LinearForm::scale(std::int64_t k) {
  constant = int_mul(constant, k);
  for (auto& [v, c] : coeffs) c = int_mul(c, k);
}

LinearForm linearize(const Expr& e, const ConstantMap& consts,
                     bool model_tid) {
  switch (e.kind) {
    case ExprKind::IntLit: {
      LinearForm f;
      f.constant = static_cast<const IntLit&>(e).value;
      return f;
    }
    case ExprKind::CharLit: {
      LinearForm f;
      f.constant = static_cast<const CharLit&>(e).value;
      return f;
    }
    case ExprKind::Ident: {
      const auto& id = static_cast<const Ident&>(e);
      LinearForm f;
      if (id.decl == nullptr) return LinearForm::non_affine();
      if (auto v = consts.value_of(id.decl)) {
        f.constant = *v;
      } else if (auto tid = model_tid ? consts.tid_form_of(id.decl)
                                      : std::nullopt) {
        if (tid->coeff != 0) f.coeffs[tid_symbol()] = tid->coeff;
        f.constant = tid->constant;
      } else {
        f.coeffs[id.decl] = 1;
      }
      return f;
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const Unary&>(e);
      LinearForm f = linearize(*u.operand, consts, model_tid);
      switch (u.op) {
        case UnaryOp::Plus: return f;
        case UnaryOp::Neg: f.scale(-1); return f;
        default: return LinearForm::non_affine();
      }
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const Binary&>(e);
      LinearForm l = linearize(*b.lhs, consts, model_tid);
      LinearForm r = linearize(*b.rhs, consts, model_tid);
      switch (b.op) {
        case BinaryOp::Add: l += r; return l;
        case BinaryOp::Sub: l -= r; return l;
        case BinaryOp::Mul:
          if (l.is_affine && l.is_constant()) {
            r.scale(l.constant);
            return r;
          }
          if (r.is_affine && r.is_constant()) {
            l.scale(r.constant);
            return l;
          }
          return LinearForm::non_affine();
        case BinaryOp::Div:
          if (r.is_affine && r.is_constant() && l.is_affine &&
              l.is_constant()) {
            const IntQuotient q = int_div(l.constant, r.constant);
            if (q.ok() && int_mod(l.constant, r.constant).value == 0) {
              LinearForm f;
              f.constant = q.value;
              return f;
            }
          }
          return LinearForm::non_affine();
        default:
          // %, shifts, comparisons: constant-fold or give up.
          if (l.is_affine && l.is_constant() && r.is_affine &&
              r.is_constant()) {
            // Delegate to ConstantMap::eval-equivalent folding.
            LinearForm f;
            switch (b.op) {
              case BinaryOp::Mod: {
                const IntQuotient q = int_mod(l.constant, r.constant);
                if (!q.ok()) return LinearForm::non_affine();
                f.constant = q.value;
                return f;
              }
              case BinaryOp::Shl:
                f.constant = int_shl(l.constant, r.constant);
                return f;
              case BinaryOp::Shr:
                f.constant = int_shr(l.constant, r.constant);
                return f;
              default: return LinearForm::non_affine();
            }
          }
          return LinearForm::non_affine();
      }
    }
    case ExprKind::Cast:
      return linearize(*static_cast<const Cast&>(e).operand, consts,
                       model_tid);
    case ExprKind::Call: {
      const auto& c = static_cast<const Call&>(e);
      if (model_tid && c.callee == "omp_get_thread_num" && c.args.empty()) {
        LinearForm f;
        f.coeffs[tid_symbol()] = 1;
        return f;
      }
      return LinearForm::non_affine();
    }
    default:
      // Subscript (indirect indexing), assignments: non-affine.
      return LinearForm::non_affine();
  }
}

}  // namespace drbml::analysis
