#include "runtime/bc/verify.hpp"

#include "obs/catalog.hpp"

namespace drbml::runtime::bc {

std::string VerifyError::to_string() const {
  return "chunk " + std::to_string(chunk) + ", pc " + std::to_string(pc) +
         ": " + message;
}

namespace {

class Checker {
 public:
  explicit Checker(const Module& m) : m_(m) {}

  std::optional<VerifyError> run() {
    for (ci_ = 0; ci_ < m_.chunks.size(); ++ci_) {
      const Chunk& ch = m_.chunks[ci_];
      if (ch.entry == nullptr) {
        return fail(ch.code.size(), "chunk has no entry statement");
      }
      if (ch.code.empty()) {
        return fail(0, "chunk has no code (missing terminator)");
      }
      for (pc_ = 0; pc_ < ch.code.size(); ++pc_) {
        if (auto err = check(ch, ch.code[pc_])) return err;
      }
      const Op last = ch.code.back().op;
      if (last != Op::Halt && last != Op::Jump && last != Op::RetValue &&
          last != Op::RetFlow && last != Op::FaultOp) {
        return fail(ch.code.size() - 1,
                    "chunk may fall through past its last instruction");
      }
    }
    for (const auto& [stmt, idx] : m_.entries) {
      if (stmt == nullptr || idx >= m_.chunks.size()) {
        return fail(0, "entry table references chunk " + std::to_string(idx) +
                           " of " + std::to_string(m_.chunks.size()));
      }
    }
    return std::nullopt;
  }

 private:
  std::optional<VerifyError> fail(std::size_t pc, std::string msg) {
    return VerifyError{ci_, pc, std::move(msg)};
  }

  // Operand helpers; each returns a defect or nullopt.
  std::optional<VerifyError> reg(const Chunk& ch, std::uint16_t r,
                                 const char* what) {
    if (r >= ch.frame_size()) {
      return fail(pc_, std::string(what) + " register " + std::to_string(r) +
                           " out of range (frame size " +
                           std::to_string(ch.frame_size()) + ")");
    }
    return std::nullopt;
  }

  std::optional<VerifyError> jump_target(const Chunk& ch, std::int32_t t) {
    if (t < 0 || static_cast<std::size_t>(t) > ch.code.size()) {
      return fail(pc_, "jump target " + std::to_string(t) +
                           " outside chunk of " +
                           std::to_string(ch.code.size()) + " instructions");
    }
    return std::nullopt;
  }

  std::optional<VerifyError> pool(std::int32_t idx, std::size_t size,
                                  const char* name) {
    if (idx < 0 || static_cast<std::size_t>(idx) >= size) {
      return fail(pc_, std::string(name) + " index " + std::to_string(idx) +
                           " out of range (" + std::to_string(size) + ")");
    }
    return std::nullopt;
  }

  std::optional<VerifyError> site(const Chunk& ch, std::int32_t idx) {
    if (auto e = pool(idx, m_.sites.size(), "site")) return e;
    const AccessSite& s = m_.sites[static_cast<std::size_t>(idx)];
    if (s.cache != kNoCache &&
        (s.cache < 0 ||
         static_cast<std::uint32_t>(s.cache) >= ch.num_caches)) {
      return fail(pc_, "site cache slot " + std::to_string(s.cache) +
                           " out of range (" + std::to_string(ch.num_caches) +
                           " caches)");
    }
    return std::nullopt;
  }

  std::optional<VerifyError> check(const Chunk& ch, const Instr& in) {
    if (static_cast<int>(in.op) >= kOpCount) {
      return fail(pc_, "unknown opcode " +
                           std::to_string(static_cast<int>(in.op)));
    }
    switch (in.op) {
      case Op::Const:
        if (auto e = reg(ch, in.a, "dst")) return e;
        return pool(in.imm, m_.consts.size(), "const");
      case Op::StrObj:
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (auto e = pool(in.imm, m_.strings.size(), "string")) return e;
        if (m_.strings[static_cast<std::size_t>(in.imm)] == nullptr) {
          return fail(pc_, "null string literal node");
        }
        return std::nullopt;
      case Op::LoadScalar:
      case Op::ArrayAddr:
      case Op::VarAddr:
        if (auto e = reg(ch, in.a, "dst")) return e;
        return site(ch, in.imm);
      case Op::LoadElem:
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (auto e = reg(ch, in.b, "addr")) return e;
        return site(ch, in.imm);
      case Op::StoreElem:
        if (auto e = reg(ch, in.a, "addr")) return e;
        if (auto e = reg(ch, in.b, "src")) return e;
        return site(ch, in.imm);
      case Op::IncDec:
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (auto e = reg(ch, in.b, "addr")) return e;
        return site(ch, in.imm);
      case Op::IndexAddr: {
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (in.n < 1) return fail(pc_, "IndexAddr with zero indices");
        if (static_cast<std::uint32_t>(in.b) + in.n > ch.frame_size()) {
          return fail(pc_, "IndexAddr index span out of range");
        }
        if (auto e = pool(in.imm, m_.index_infos.size(), "index_info")) {
          return e;
        }
        const IndexInfo& info =
            m_.index_infos[static_cast<std::size_t>(in.imm)];
        if (info.base_is_ident) {
          if (auto e = site(ch, info.base_site)) return e;
        } else {
          if (auto e = reg(ch, in.c, "base")) return e;
        }
        if (!info.base_is_array) {
          // Pointer bases (ident or computed) fault through null_msg.
          if (auto e = pool(info.null_msg, m_.messages.size(), "message")) {
            return e;
          }
        }
        return std::nullopt;
      }
      case Op::CheckPtr:
        if (auto e = reg(ch, in.a, "ptr")) return e;
        return pool(in.imm, m_.messages.size(), "message");
      case Op::BinOp:
      case Op::ApplyBin:
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (auto e = reg(ch, in.b, "lhs")) return e;
        if (auto e = reg(ch, in.c, "rhs")) return e;
        if (in.n > static_cast<std::uint16_t>(minic::BinaryOp::Comma)) {
          return fail(pc_, "binary operator selector out of range");
        }
        return std::nullopt;
      case Op::Neg:
      case Op::NotOp:
      case Op::BitNotOp:
      case Op::ToBool:
      case Op::CastDbl:
      case Op::CastInt:
        if (auto e = reg(ch, in.a, "dst")) return e;
        return reg(ch, in.b, "src");
      case Op::Jump:
        return jump_target(ch, in.imm);
      case Op::JumpIfFalse:
      case Op::JumpIfTrue:
        if (auto e = reg(ch, in.a, "cond")) return e;
        return jump_target(ch, in.imm);
      case Op::PushFrame:
        return std::nullopt;
      case Op::PopFrame:
        if (in.n == 0) return fail(pc_, "PopFrame of zero frames");
        return std::nullopt;
      case Op::DeclVar:
        if (auto e = pool(in.imm, m_.decls.size(), "decl")) return e;
        if (m_.decls[static_cast<std::size_t>(in.imm)] == nullptr) {
          return fail(pc_, "null declaration node");
        }
        return cache_operand(ch, in.b);
      case Op::DeclScalar:
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (auto e = pool(in.imm, m_.decls.size(), "decl")) return e;
        if (m_.decls[static_cast<std::size_t>(in.imm)] == nullptr) {
          return fail(pc_, "null declaration node");
        }
        return cache_operand(ch, in.b);
      case Op::StoreDeclInit:
        if (auto e = reg(ch, in.a, "addr")) return e;
        return reg(ch, in.b, "src");
      case Op::CallUser: {
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (auto e = pool(in.imm, m_.call_infos.size(), "call_info")) {
          return e;
        }
        const CallInfo& info =
            m_.call_infos[static_cast<std::size_t>(in.imm)];
        if (info.fn == nullptr || info.fn->body == nullptr) {
          return fail(pc_, "call to function without a body");
        }
        if (info.fn->params.size() != info.argc) {
          return fail(pc_, "call argument count does not match callee");
        }
        if (static_cast<std::uint32_t>(info.arg_base) + info.argc >
            ch.frame_size()) {
          return fail(pc_, "call argument span out of range");
        }
        return std::nullopt;
      }
      case Op::EvalExpr:
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (auto e = pool(in.imm, m_.exprs.size(), "expr")) return e;
        if (m_.exprs[static_cast<std::size_t>(in.imm)] == nullptr) {
          return fail(pc_, "null expression node");
        }
        return std::nullopt;
      case Op::ExecStmt: {
        if (auto e = pool(in.imm, m_.flow_infos.size(), "flow_info")) {
          return e;
        }
        const FlowInfo& info =
            m_.flow_infos[static_cast<std::size_t>(in.imm)];
        if (info.node == nullptr) return fail(pc_, "null statement node");
        if (info.node->kind != minic::StmtKind::Omp) {
          return fail(pc_, "ExecStmt on a statement that is not an OpenMP "
                           "construct");
        }
        if (info.brk != -1) {
          if (auto e = jump_target(ch, info.brk)) return e;
        }
        if (info.cont != -1) {
          if (auto e = jump_target(ch, info.cont)) return e;
        }
        return std::nullopt;
      }
      case Op::RetValue:
        return reg(ch, in.a, "value");
      case Op::RetFlow:
        if (in.n != kFlowBreak && in.n != kFlowContinue) {
          return fail(pc_, "RetFlow with unknown flow selector");
        }
        return std::nullopt;
      case Op::FaultOp:
        return pool(in.imm, m_.messages.size(), "message");
      case Op::Halt:
        return std::nullopt;
    }
    return fail(pc_, "unhandled opcode in verifier");
  }

  std::optional<VerifyError> cache_operand(const Chunk& ch,
                                           std::uint16_t slot) {
    // Decl cache operands use u16; the compiler always assigns one.
    if (static_cast<std::uint32_t>(slot) >= ch.num_caches) {
      return fail(pc_, "decl cache slot " + std::to_string(slot) +
                           " out of range (" + std::to_string(ch.num_caches) +
                           " caches)");
    }
    return std::nullopt;
  }

  const Module& m_;
  std::size_t ci_ = 0;
  std::size_t pc_ = 0;
};

}  // namespace

std::optional<VerifyError> verify(Module& m) {
  Checker checker(m);
  auto err = checker.run();
  if (err) {
    static obs::Counter& failures =
        obs::metrics().counter(obs::kVmVerifyFailures);
    failures.add();
    m.verified = false;
    return err;
  }
  m.verified = true;
  return std::nullopt;
}

}  // namespace drbml::runtime::bc
