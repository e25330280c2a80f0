// The bytecode verifier and the module/runtime contract around it:
// malformed bytecode is rejected with a structured error before a single
// instruction executes, and a verified module that lacks a body's chunk
// makes the run fault instead of executing the body some other way.
#include <cstdint>
#include <string>

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

}  // namespace
}  // namespace drbml
