#include "runtime/bc/verify.hpp"

#include <vector>

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
    flow_uses_.assign(m_.flow_infos.size(), 0);
    builtin_uses_.assign(m_.builtin_calls.size(), 0);
    for (ci_ = 0; ci_ < m_.chunks.size(); ++ci_) {
      const Chunk& ch = m_.chunks[ci_];
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
      if (auto err = check_frames(ch)) return err;
    }
    ci_ = 0;
    for (const auto& [stmt, idx] : m_.entries) {
      if (stmt == nullptr || idx >= m_.chunks.size()) {
        return fail(0, "entry table references chunk " + std::to_string(idx) +
                           " of " + std::to_string(m_.chunks.size()));
      }
    }
    for (const auto& [expr, idx] : m_.expr_entries) {
      if (expr == nullptr || idx >= m_.chunks.size()) {
        return fail(0, "expression table references chunk " +
                           std::to_string(idx) + " of " +
                           std::to_string(m_.chunks.size()));
      }
      if (m_.chunks[idx].num_regs == 0) {
        ci_ = idx;
        return fail(0, "expression chunk has no result register");
      }
    }
    if (m_.globals >= m_.chunks.size()) {
      return fail(0, "globals chunk " + std::to_string(m_.globals) + " of " +
                         std::to_string(m_.chunks.size()));
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

  std::optional<VerifyError> span(const Chunk& ch, std::uint32_t first,
                                  std::uint32_t count, const char* what) {
    if (first + count > ch.frame_size()) {
      return fail(pc_, std::string(what) + " register span out of range");
    }
    return std::nullopt;
  }

  std::optional<VerifyError> jump_target(const Chunk& ch, std::int32_t t) {
    if (t < 0 || static_cast<std::size_t>(t) >= ch.code.size()) {
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

  std::optional<VerifyError> decl(const Chunk& ch, const Instr& in) {
    if (auto e = reg(ch, in.a, "dst")) return e;
    if (auto e = pool(in.imm, m_.decls.size(), "decl")) return e;
    if (m_.decls[static_cast<std::size_t>(in.imm)] == nullptr) {
      return fail(pc_, "null declaration node");
    }
    // The declared variable's cache slot (u16; the compiler always
    // assigns one).
    if (static_cast<std::uint32_t>(in.b) >= ch.num_caches) {
      return fail(pc_, "decl cache slot " + std::to_string(in.b) +
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
        if (auto e = span(ch, in.b, in.n, "IndexAddr index")) return e;
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
        if (!info.base_is_ident || !info.base_is_array) {
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
      case Op::DeclArray:
        if (auto e = span(ch, in.c, in.n, "DeclArray dimension")) return e;
        return decl(ch, in);
      case Op::DeclScalar:
        return decl(ch, in);
      case Op::StoreDeclInit:
        if (auto e = reg(ch, in.a, "addr")) return e;
        if (auto e = reg(ch, in.b, "src")) return e;
        if (in.imm < 0) return fail(pc_, "negative initializer element");
        return std::nullopt;
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
        return span(ch, info.arg_base, info.argc, "call argument");
      }
      case Op::CallBuiltin: {
        if (auto e = reg(ch, in.a, "dst")) return e;
        if (auto e = pool(in.imm, m_.builtin_calls.size(), "builtin_call")) {
          return e;
        }
        // One site per call: argument chunks then nest as in the source,
        // so no builtin can re-enter itself through an argument.
        if (++builtin_uses_[static_cast<std::size_t>(in.imm)] > 1) {
          return fail(pc_, "builtin call site used twice");
        }
        const BuiltinCall& call =
            m_.builtin_calls[static_cast<std::size_t>(in.imm)];
        if (static_cast<int>(call.fn) >= kBuiltinCount) {
          return fail(pc_, "unknown builtin " +
                               std::to_string(static_cast<int>(call.fn)));
        }
        if (call.node == nullptr) return fail(pc_, "null call node");
        for (const auto& arg : call.node->args) {
          if (m_.find_expr(arg.get()) == nullptr) {
            return fail(pc_, "builtin argument without an expression chunk");
          }
        }
        if (call.fn == Builtin::Assert && !call.node->args.empty()) {
          return pool(call.message, m_.messages.size(), "message");
        }
        return std::nullopt;
      }
      case Op::ExecStmt: {
        if (auto e = pool(in.imm, m_.flow_infos.size(), "flow_info")) {
          return e;
        }
        // One site per construct: the constructs then nest as in the
        // source, so no chunk can re-enter a construct it runs inside.
        if (++flow_uses_[static_cast<std::size_t>(in.imm)] > 1) {
          return fail(pc_, "OpenMP construct site used twice");
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

  /// Frame depth of every reachable pc relative to chunk entry (a
  /// worklist pass over the checked instructions): never negative, equal
  /// wherever paths meet, and 0 wherever control leaves the chunk
  /// normally -- Halt, RetFlow and an ExecStmt's exit routes. So a chunk
  /// never pops a frame its caller pushed.
  std::optional<VerifyError> check_frames(const Chunk& ch) {
    std::vector<int> depth(ch.code.size(), -1);
    std::vector<std::size_t> work;
    const auto reach = [&](std::size_t from, std::size_t to,
                           int d) -> std::optional<VerifyError> {
      if (d < 0) return fail(from, "pops a frame the chunk did not push");
      if (to >= ch.code.size()) {
        return fail(from, "falls through past the chunk's last instruction");
      }
      if (depth[to] < 0) {
        depth[to] = d;
        work.push_back(to);
      } else if (depth[to] != d) {
        return fail(to, "frame depth " + std::to_string(d) +
                            " disagrees with " + std::to_string(depth[to]) +
                            " on another path");
      }
      return std::nullopt;
    };
    const auto leave = [&](std::size_t pc,
                           int d) -> std::optional<VerifyError> {
      if (d != 0) {
        return fail(pc, "leaves the chunk with " + std::to_string(d) +
                            " frames pushed");
      }
      return std::nullopt;
    };
    depth[0] = 0;
    work.push_back(0);
    while (!work.empty()) {
      const std::size_t pc = work.back();
      work.pop_back();
      const Instr& in = ch.code[pc];
      const int d = depth[pc];
      std::optional<VerifyError> err;
      switch (in.op) {
        case Op::PushFrame:
          err = reach(pc, pc + 1, d + 1);
          break;
        case Op::PopFrame:
          err = reach(pc, pc + 1, d - in.n);
          break;
        case Op::Jump:
          err = reach(pc, static_cast<std::size_t>(in.imm), d);
          break;
        case Op::JumpIfFalse:
        case Op::JumpIfTrue:
          err = reach(pc, pc + 1, d);
          if (!err) err = reach(pc, static_cast<std::size_t>(in.imm), d);
          break;
        case Op::ExecStmt: {
          const FlowInfo& f = m_.flow_infos[static_cast<std::size_t>(in.imm)];
          err = reach(pc, pc + 1, d);
          for (const auto& [to, pops] :
               {std::pair{f.brk, f.brk_pops}, std::pair{f.cont, f.cont_pops}}) {
            if (err) break;
            err = to >= 0 ? reach(pc, static_cast<std::size_t>(to), d - pops)
                          : leave(pc, d - f.exit_pops);
          }
          break;
        }
        case Op::Halt:
        case Op::RetFlow:
          err = leave(pc, d);
          break;
        case Op::RetValue:  // unwinds to the caller, which restores frames
        case Op::FaultOp:   // ends the run
          break;
        default:
          err = reach(pc, pc + 1, d);
          break;
      }
      if (err) return err;
    }
    return std::nullopt;
  }

  const Module& m_;
  std::size_t ci_ = 0;
  std::size_t pc_ = 0;
  std::vector<int> flow_uses_;     // ExecStmt references per flow_info
  std::vector<int> builtin_uses_;  // CallBuiltin references per call site
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
