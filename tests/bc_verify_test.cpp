// The bytecode verifier and the module/runtime contract around it:
// malformed bytecode is rejected with a structured error before a single
// instruction executes, a verified module that lacks a body's or an
// expression's chunk makes the run fault instead of evaluating it some
// other way, and every module verify() accepts runs to a result or a
// structured fault (the mutated-module fuzz target).
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/resolve.hpp"
#include "drb/corpus.hpp"
#include "minic/parser.hpp"
#include "runtime/bc/bc.hpp"
#include "runtime/bc/compile.hpp"
#include "runtime/bc/verify.hpp"
#include "runtime/interp.hpp"
#include "support/error.hpp"

namespace drbml {
namespace {

using runtime::RunOptions;
using runtime::RunResult;
using runtime::bc::Instr;
using runtime::bc::Op;

runtime::bc::Module compile_entry(const std::string& body,
                                  minic::Program& prog) {
  prog = minic::parse_program(body);
  analysis::resolve(*prog.unit);
  return runtime::bc::compile(*prog.unit);
}

TEST(VmVerifier, AcceptsEveryCorpusModule) {
  for (const auto& e : drb::corpus()) {
    minic::Program prog;
    runtime::bc::Module m = compile_entry(e.body, prog);
    const auto err = runtime::bc::verify(m);
    EXPECT_FALSE(err.has_value())
        << e.name << ": " << (err ? err->to_string() : "");
    EXPECT_TRUE(m.verified);
  }
}

TEST(VmVerifier, RejectsTruncatedChunk) {
  minic::Program prog;
  runtime::bc::Module m =
      compile_entry("int main() { int x = 1; return x; }", prog);
  ASSERT_FALSE(m.chunks.empty());
  ASSERT_GT(m.chunks[0].code.size(), 1u);
  m.chunks[0].code.pop_back();  // drop the terminating Halt
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(m.verified);
  EXPECT_NE(err->to_string().find("chunk"), std::string::npos);
}

TEST(VmVerifier, RejectsOutOfRangeRegister) {
  minic::Program prog;
  runtime::bc::Module m =
      compile_entry("int main() { int x = 1; return x; }", prog);
  ASSERT_FALSE(m.chunks.empty());
  bool patched = false;
  for (auto& in : m.chunks[0].code) {
    if (in.op == runtime::bc::Op::Const) {
      in.a = 60001;  // far beyond frame_size()
      patched = true;
      break;
    }
  }
  ASSERT_TRUE(patched);
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(m.verified);
}

TEST(VmVerifier, RejectsWildJumpTarget) {
  minic::Program prog;
  runtime::bc::Module m = compile_entry(
      "int main() { int i; for (i = 0; i < 3; i++) {} return 0; }", prog);
  bool patched = false;
  for (auto& ch : m.chunks) {
    for (auto& in : ch.code) {
      if (in.op == runtime::bc::Op::Jump ||
          in.op == runtime::bc::Op::JumpIfFalse) {
        in.imm = static_cast<std::int32_t>(ch.code.size()) + 7;
        patched = true;
        break;
      }
    }
    if (patched) break;
  }
  ASSERT_TRUE(patched) << "expected a jump in the compiled loop";
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(m.verified);
}

TEST(VmVerifier, RejectsOutOfRangePoolIndex) {
  minic::Program prog;
  runtime::bc::Module m =
      compile_entry("int main() { int x = 42; return x; }", prog);
  bool patched = false;
  for (auto& ch : m.chunks) {
    for (auto& in : ch.code) {
      if (in.op == runtime::bc::Op::Const) {
        in.imm = static_cast<std::int32_t>(m.consts.size());
        patched = true;
        break;
      }
    }
    if (patched) break;
  }
  ASSERT_TRUE(patched);
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(m.verified);
}

TEST(VmVerifier, UnverifiedModuleIsNeverExecuted) {
  const std::string src = "int main() { int x = 1; return x; }";
  minic::Program prog = minic::parse_program(src);
  analysis::Resolution res = analysis::resolve(*prog.unit);
  runtime::bc::Module m = runtime::bc::compile(*prog.unit);
  ASSERT_FALSE(m.verified);  // compile() does not verify

  RunOptions opts;
  opts.module = &m;
  EXPECT_THROW(
      { (void)runtime::run_program(*prog.unit, res, opts); }, Error);
}

TEST(VmVerifier, CompileVerifiedRoundTrips) {
  // compile_verified must round-trip: whatever it returns is verified and
  // carries a chunk for main's body.
  minic::Program prog = minic::parse_program(
      "int main() { int a = 1; int b = 2; return a + b; }");
  analysis::resolve(*prog.unit);
  runtime::bc::Module m = runtime::bc::compile_verified(*prog.unit);
  EXPECT_TRUE(m.verified);
  EXPECT_FALSE(m.chunks.empty());
  EXPECT_EQ(m.find(nullptr), nullptr);
}

TEST(VmVerifier, RejectsExecStmtOnNonOmpNode) {
  // ExecStmt hands its node to the OpenMP construct handler; any other
  // statement kind must be rejected before the run starts.
  minic::Program prog;
  runtime::bc::Module m = compile_entry(
      "int main() { int x = 0;\n#pragma omp parallel\n{ x = 1; }\n"
      "return x; }",
      prog);
  ASSERT_FALSE(m.flow_infos.empty());
  ASSERT_EQ(m.flow_infos[0].node->kind, minic::StmtKind::Omp);
  ASSERT_FALSE(runtime::bc::verify(m).has_value());
  m.flow_infos[0].node = prog.unit->find_function("main")->body.get();
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(m.verified);
  EXPECT_NE(err->message.find("not an OpenMP construct"), std::string::npos)
      << err->to_string();
}

TEST(VmVerifier, RejectsJumpToEndOfCode) {
  // A target equal to code.size() used to pass, and the dispatch loop then
  // read past the chunk.
  minic::Program prog;
  runtime::bc::Module m =
      compile_entry("int main() { int x = 1; return x; }", prog);
  auto& code = m.chunks[0].code;
  code.insert(code.begin(), Instr{.op = Op::Jump});
  code[0].imm = static_cast<std::int32_t>(code.size());
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("jump target"), std::string::npos)
      << err->to_string();
  RunOptions opts;
  opts.module = &m;
  EXPECT_THROW({ (void)runtime::run_program(*prog.unit, {}, opts); }, Error);
}

TEST(VmVerifier, RejectsPopBelowChunkEntry) {
  // Popping frames the chunk never pushed used to pass, and the run then
  // popped its caller's frames down to an empty stack.
  minic::Program prog;
  runtime::bc::Module m =
      compile_entry("int main() { int x = 1; return x; }", prog);
  auto& code = m.chunks[0].code;
  code.insert(code.begin(), Instr{.op = Op::PopFrame, .n = 50});
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("did not push"), std::string::npos)
      << err->to_string();
}

TEST(VmVerifier, RejectsUnbalancedFrameExit) {
  // A chunk must leave with the frames it found: no PushFrame may reach
  // Halt unpopped.
  minic::Program prog;
  runtime::bc::Module m =
      compile_entry("int main() { int x = 1; return x; }", prog);
  auto& code = m.chunks[0].code;
  code.insert(code.begin(), Instr{.op = Op::Halt});
  code.insert(code.begin(), Instr{.op = Op::PushFrame});
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("frames pushed"), std::string::npos)
      << err->to_string();
}

TEST(VmVerifier, RejectsConstructSiteUsedTwice) {
  // Point the critical construct's ExecStmt, inside the parallel body, at
  // the parallel construct itself: each run of the body would fork the
  // region again, without end.
  minic::Program prog;
  runtime::bc::Module m = compile_entry(
      "int main() { int x = 0;\n#pragma omp parallel\n{\n"
      "#pragma omp critical\n{ x = 1; }\n}\nreturn x; }",
      prog);
  ASSERT_EQ(m.flow_infos.size(), 2u);
  ASSERT_FALSE(runtime::bc::verify(m).has_value());
  int patched = 0;
  for (auto& ch : m.chunks) {
    for (auto& in : ch.code) {
      if (in.op == Op::ExecStmt &&
          static_cast<const minic::OmpStmt*>(
              m.flow_infos[static_cast<std::size_t>(in.imm)].node)
                  ->directive.kind == minic::OmpDirectiveKind::Critical) {
        for (std::size_t k = 0; k < m.flow_infos.size(); ++k) {
          if (static_cast<const minic::OmpStmt*>(m.flow_infos[k].node)
                  ->directive.kind == minic::OmpDirectiveKind::Parallel) {
            in.imm = static_cast<std::int32_t>(k);
            ++patched;
          }
        }
      }
    }
  }
  ASSERT_EQ(patched, 1);
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("used twice"), std::string::npos)
      << err->to_string();
}

TEST(VmVerifier, RejectsUnknownBuiltin) {
  minic::Program prog;
  runtime::bc::Module m = compile_entry(
      "int main() { printf(\"%d\\n\", 1); return 0; }", prog);
  ASSERT_EQ(m.builtin_calls.size(), 1u);
  ASSERT_FALSE(runtime::bc::verify(m).has_value());
  m.builtin_calls[0].fn =
      static_cast<runtime::bc::Builtin>(runtime::bc::kBuiltinCount);
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("unknown builtin"), std::string::npos)
      << err->to_string();
}

TEST(VmVerifier, RejectsBuiltinArgumentWithoutChunk) {
  minic::Program prog;
  runtime::bc::Module m = compile_entry(
      "int main() { int x = 2; printf(\"%d\\n\", x + 1); return 0; }",
      prog);
  ASSERT_EQ(m.builtin_calls.size(), 1u);
  const minic::Call& call = *m.builtin_calls[0].node;
  ASSERT_EQ(call.args.size(), 2u);
  ASSERT_EQ(m.expr_entries.erase(call.args[1].get()), 1u);
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("without an expression chunk"),
            std::string::npos)
      << err->to_string();
}

TEST(VmVerifier, RejectsDeclArrayDimensionsOutsideFrame) {
  minic::Program prog;
  runtime::bc::Module m = compile_entry(
      "int main() { int a[4][2]; a[1][1] = 3; return a[1][1]; }", prog);
  bool patched = false;
  for (auto& in : m.chunks[0].code) {
    if (in.op == Op::DeclArray) {
      ASSERT_EQ(in.n, 2);
      in.c = static_cast<std::uint16_t>(m.chunks[0].frame_size() - 1);
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  const auto err = runtime::bc::verify(m);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("DeclArray dimension"), std::string::npos)
      << err->to_string();
}

TEST(VmModule, MissingBodyChunkFaultsNamingTheBody) {
  // Erase the chunk of a construct body (entered through exec_body) or of
  // a worksharing loop's innermost body: the module still verifies, and
  // the run must fault on reaching the body -- naming it -- rather than
  // execute it some other way or crash.
  const struct {
    const char* label;
    const char* src;
  } cases[] = {
      {"omp parallel",
       "int main() {\n"
       "  int x = 0;\n"
       "#pragma omp parallel num_threads(2)\n"
       "  {\n"
       "    x = 1;\n"
       "  }\n"
       "  printf(\"%d\", x);\n"
       "  return 0;\n"
       "}\n"},
      {"omp-ws body",
       "int main() {\n"
       "  int a[8];\n"
       "#pragma omp parallel for\n"
       "  for (int i = 0; i < 8; i++) {\n"
       "    a[i] = i;\n"
       "  }\n"
       "  printf(\"%d\", a[7]);\n"
       "  return 0;\n"
       "}\n"},
  };
  for (const auto& c : cases) {
    minic::Program prog = minic::parse_program(c.src);
    analysis::Resolution res = analysis::resolve(*prog.unit);
    runtime::bc::Module m = runtime::bc::compile(*prog.unit);
    const minic::Stmt* body = nullptr;
    for (const auto& [stmt, idx] : m.entries) {
      if (m.chunks[idx].label == c.label) body = stmt;
    }
    ASSERT_NE(body, nullptr) << c.label;
    m.entries.erase(body);
    ASSERT_FALSE(runtime::bc::verify(m).has_value()) << c.label;

    RunOptions opts;
    opts.module = &m;
    const RunResult r = runtime::run_program(*prog.unit, res, opts);
    EXPECT_TRUE(r.faulted) << c.label;
    EXPECT_EQ(r.fault_message,
              "bytecode module has no chunk for the body at line " +
                  std::to_string(body->loc.line) + ":" +
                  std::to_string(body->loc.col))
        << c.label;
    EXPECT_EQ(r.output, "") << c.label;
  }
}

TEST(VmModule, MissingExpressionChunkFaultsNamingTheExpression) {
  // The OpenMP handlers evaluate clause arguments and loop bounds only
  // through their expression chunks. Erase one: the module still
  // verifies, and the run faults naming the expression.
  const char* src =
      "int main() {\n"
      "  int a[8];\n"
      "  int n = 8;\n"
      "  int t = 2;\n"
      "#pragma omp parallel for num_threads(t)\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    a[i] = i;\n"
      "  }\n"
      "  printf(\"%d\", a[7]);\n"
      "  return 0;\n"
      "}\n";
  minic::Program prog = minic::parse_program(src);
  analysis::Resolution res = analysis::resolve(*prog.unit);
  const auto& body = prog.unit->find_function("main")->body->body;
  const auto* omp = minic::stmt_cast<minic::OmpStmt>(body[3].get());
  ASSERT_NE(omp, nullptr);
  const auto* loop = minic::stmt_cast<minic::ForStmt>(omp->body.get());
  ASSERT_NE(loop, nullptr);
  const minic::Expr* limit =
      minic::expr_cast<minic::Binary>(loop->cond.get())->rhs.get();
  const minic::Expr* threads = omp->directive.clauses[0].expr.get();
  for (const minic::Expr* erased : {limit, threads}) {
    runtime::bc::Module m = runtime::bc::compile(*prog.unit);
    ASSERT_EQ(m.expr_entries.erase(erased), 1u);
    ASSERT_FALSE(runtime::bc::verify(m).has_value());
    RunOptions opts;
    opts.module = &m;
    const RunResult r = runtime::run_program(*prog.unit, res, opts);
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault_message,
              "bytecode module has no chunk for the expression at line " +
                  std::to_string(erased->loc.line) + ":" +
                  std::to_string(erased->loc.col));
    EXPECT_EQ(r.output, "");
  }
}

// ---------------------------------------------------------------- fuzz

/// Changes one field of `m` -- an instruction's opcode, operand or
/// immediate, or one entry of a pool -- to a nearby or random value.
void mutate_one_field(runtime::bc::Module& m, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto small = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo));
  };
  const auto u16 = [&](std::uint16_t v) {
    return static_cast<std::uint16_t>(pick(2) == 0 ? v + small(-2, 3)
                                                   : small(0, 40));
  };
  switch (pick(7)) {
    case 0:
    case 1:
    case 2: {  // the opcode, an operand or the immediate of an instruction
      auto& code = m.chunks[pick(m.chunks.size())].code;
      Instr& in = code[pick(code.size())];
      switch (pick(6)) {
        case 0:
          in.op = static_cast<Op>(small(0, runtime::bc::kOpCount + 2));
          return;
        case 1: in.n = u16(in.n); return;
        case 2: in.a = u16(in.a); return;
        case 3: in.b = u16(in.b); return;
        case 4: in.c = u16(in.c); return;
        default:
          in.imm = pick(2) == 0 ? in.imm + small(-3, 4) : small(-2, 60);
          return;
      }
    }
    case 3:
      if (!m.consts.empty()) {
        m.consts[pick(m.consts.size())] =
            runtime::Value::of_int(small(-3, 40));
      }
      return;
    case 4:
      if (!m.flow_infos.empty()) {
        auto& f = m.flow_infos[pick(m.flow_infos.size())];
        switch (pick(5)) {
          case 0: f.brk = small(-1, 30); return;
          case 1: f.cont = small(-1, 30); return;
          case 2: f.brk_pops = u16(f.brk_pops); return;
          case 3: f.cont_pops = u16(f.cont_pops); return;
          default: f.exit_pops = u16(f.exit_pops); return;
        }
      }
      return;
    case 5:
      if (!m.builtin_calls.empty()) {
        auto& b = m.builtin_calls[pick(m.builtin_calls.size())];
        if (pick(2) == 0) {
          b.fn = static_cast<runtime::bc::Builtin>(
              small(0, runtime::bc::kBuiltinCount + 2));
        } else {
          b.message = small(-1, 8);
        }
      }
      return;
    default:
      if (!m.index_infos.empty() && pick(2) == 0) {
        auto& x = m.index_infos[pick(m.index_infos.size())];
        switch (pick(4)) {
          case 0: x.base_is_ident = !x.base_is_ident; return;
          case 1: x.base_is_array = !x.base_is_array; return;
          case 2: x.base_site = small(-1, 40); return;
          default: x.null_msg = small(-1, 8); return;
        }
      } else if (!m.sites.empty()) {
        m.sites[pick(m.sites.size())].cache = small(-1, 6);
      } else if (!m.call_infos.empty()) {
        auto& c = m.call_infos[pick(m.call_infos.size())];
        c.arg_base = u16(c.arg_base);
      }
      return;
  }
}

TEST(VmFuzz, AcceptedMutantsOfCorpusModulesRunCleanly) {
  // Fixed seed, fixed budget: every module verify() accepts must run, under
  // a small step limit, to a result or a structured fault -- never crash,
  // hang or trip a sanitizer.
  std::mt19937_64 rng(0x5eed);
  const auto& corpus = drb::corpus();
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 10; ++round) {
    for (const auto& e : corpus) {
      minic::Program prog = minic::parse_program(e.body);
      analysis::Resolution res = analysis::resolve(*prog.unit);
      runtime::bc::Module m = runtime::bc::compile(*prog.unit);
      mutate_one_field(m, rng);
      if (runtime::bc::verify(m).has_value()) {
        ++rejected;
        continue;
      }
      ++accepted;
      RunOptions opts;
      opts.module = &m;
      opts.seed = rng() % 4;
      opts.step_limit = 3000;
      const RunResult r = runtime::run_program(*prog.unit, res, opts);
      if (r.faulted) {
        EXPECT_FALSE(r.fault_message.empty()) << e.name;
      }
    }
  }
  // The budget must reach the VM, not only the verifier.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace drbml
