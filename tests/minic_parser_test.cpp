// Unit tests for the Mini-C parser: statements, expressions, OpenMP
// pragmas, and the parse_program pipeline.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "support/error.hpp"

namespace drbml::minic {
namespace {

std::unique_ptr<TranslationUnit> parse_src(const char* src) {
  Program p = parse_program(src);
  return std::move(p.unit);
}

const FunctionDecl& main_of(const TranslationUnit& tu) {
  const FunctionDecl* fn = tu.find_function("main");
  EXPECT_NE(fn, nullptr);
  return *fn;
}

TEST(Parser, ParsesMainWithParams) {
  auto tu = parse_src("int main(int argc, char* argv[]) { return 0; }");
  const auto& fn = main_of(*tu);
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0]->name, "argc");
  EXPECT_EQ(fn.params[1]->name, "argv");
  // argv decays to char**.
  EXPECT_EQ(fn.params[1]->type.pointer_depth, 2);
}

TEST(Parser, GlobalsAndMultipleDeclarators) {
  auto tu = parse_src("int a = 5, b[10];\ndouble x;\nint main() { return 0; }");
  ASSERT_EQ(tu->globals.size(), 3u);
  EXPECT_EQ(tu->globals[0]->name, "a");
  ASSERT_NE(tu->globals[0]->init, nullptr);
  EXPECT_TRUE(tu->globals[1]->is_array());
  EXPECT_EQ(tu->globals[2]->type.kind, TypeKind::Double);
}

TEST(Parser, ArrayDeclarationsMultiDim) {
  auto tu = parse_src("int main() { double m[20][30]; return 0; }");
  const auto& fn = main_of(*tu);
  const auto* decl = stmt_cast<DeclStmt>(fn.body->body[0].get());
  ASSERT_NE(decl, nullptr);
  EXPECT_EQ(decl->decls[0]->array_dims.size(), 2u);
}

TEST(Parser, ForLoopCanonicalShape) {
  auto tu = parse_src(
      "int main() { int i; for (i = 0; i < 100; i++) { } return 0; }");
  const auto& fn = main_of(*tu);
  const auto* f = stmt_cast<ForStmt>(fn.body->body[1].get());
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->cond, nullptr);
  EXPECT_NE(f->inc, nullptr);
}

TEST(Parser, OperatorPrecedence) {
  auto tu = parse_src("int main() { int x; x = 1 + 2 * 3; return 0; }");
  const auto& fn = main_of(*tu);
  const auto* es = stmt_cast<ExprStmt>(fn.body->body[1].get());
  ASSERT_NE(es, nullptr);
  const auto* a = expr_cast<Assign>(es->expr.get());
  ASSERT_NE(a, nullptr);
  const auto* add = expr_cast<Binary>(a->value.get());
  ASSERT_NE(add, nullptr);
  EXPECT_EQ(add->op, BinaryOp::Add);
  const auto* mul = expr_cast<Binary>(add->rhs.get());
  ASSERT_NE(mul, nullptr);
  EXPECT_EQ(mul->op, BinaryOp::Mul);
}

TEST(Parser, SubscriptChainsAndSpelling) {
  auto tu = parse_src("int main() { int a[9][9]; a[1][2] = a[2][1]; return 0; }");
  const auto& fn = main_of(*tu);
  const auto* es = stmt_cast<ExprStmt>(fn.body->body[1].get());
  const auto* assign = expr_cast<Assign>(es->expr.get());
  ASSERT_NE(assign, nullptr);
  EXPECT_EQ(expr_to_string(*assign->target), "a[1][2]");
  EXPECT_EQ(expr_to_string(*assign->value), "a[2][1]");
}

TEST(Parser, ExprSpellingMatchesDrbConvention) {
  auto tu = parse_src("int main() { int a[10]; int i; a[i] = a[i+1] + 1; return 0; }");
  const auto& fn = main_of(*tu);
  const auto* es = stmt_cast<ExprStmt>(fn.body->body[2].get());
  const auto* assign = expr_cast<Assign>(es->expr.get());
  EXPECT_EQ(expr_to_string(*assign->target), "a[i]");
  const auto* add = expr_cast<Binary>(assign->value.get());
  EXPECT_EQ(expr_to_string(*add->lhs), "a[i+1]");
}

TEST(Parser, CompoundAssignAndIncrement) {
  auto tu = parse_src("int main() { int x = 0; x += 2; x++; --x; return x; }");
  const auto& fn = main_of(*tu);
  const auto* plus = stmt_cast<ExprStmt>(fn.body->body[1].get());
  EXPECT_EQ(expr_cast<Assign>(plus->expr.get())->op, AssignOp::Add);
  const auto* inc = stmt_cast<ExprStmt>(fn.body->body[2].get());
  EXPECT_EQ(expr_cast<Unary>(inc->expr.get())->op, UnaryOp::PostInc);
  const auto* dec = stmt_cast<ExprStmt>(fn.body->body[3].get());
  EXPECT_EQ(expr_cast<Unary>(dec->expr.get())->op, UnaryOp::PreDec);
}

TEST(Parser, TernaryAndLogical) {
  auto tu = parse_src("int main() { int x = 1 && 0 ? 3 : 4; return x; }");
  const auto& fn = main_of(*tu);
  const auto* decl = stmt_cast<DeclStmt>(fn.body->body[0].get());
  const auto* cond = expr_cast<Conditional>(decl->decls[0]->init.get());
  ASSERT_NE(cond, nullptr);
  EXPECT_EQ(expr_cast<Binary>(cond->cond.get())->op, BinaryOp::LogicalAnd);
}

TEST(Parser, CastExpression) {
  auto tu = parse_src(
      "int main() { double d = 1.5; int x = (int)d; return x; }");
  const auto& fn = main_of(*tu);
  const auto* decl = stmt_cast<DeclStmt>(fn.body->body[1].get());
  const auto* cast = expr_cast<Cast>(decl->decls[0]->init.get());
  ASSERT_NE(cast, nullptr);
  EXPECT_EQ(cast->type.kind, TypeKind::Int);
}

TEST(Parser, MallocStylePointer) {
  auto tu = parse_src(
      "int main() { int* p; p = (int*)malloc(10 * sizeof(int)); p[0] = 1; "
      "return 0; }");
  const auto& fn = main_of(*tu);
  EXPECT_EQ(fn.body->body.size(), 4u);
}

TEST(Parser, FunctionDefinitionAndCall) {
  auto tu = parse_src(
      "void init(double* a, int n) { for (int i = 0; i < n; i++) a[i] = 0.0; }\n"
      "int main() { double v[100]; init(v, 100); return 0; }");
  EXPECT_NE(tu->find_function("init"), nullptr);
  EXPECT_NE(tu->find_function("main"), nullptr);
}

TEST(Parser, IfElseChain) {
  auto tu = parse_src(
      "int main() { int x = 1; if (x > 0) x = 2; else if (x < 0) x = 3; else "
      "x = 4; return x; }");
  const auto& fn = main_of(*tu);
  const auto* ifs = stmt_cast<IfStmt>(fn.body->body[1].get());
  ASSERT_NE(ifs, nullptr);
  EXPECT_NE(ifs->else_branch, nullptr);
}

TEST(Parser, WhileAndDoWhile) {
  auto tu = parse_src(
      "int main() { int i = 0; while (i < 3) i++; do { i--; } while (i > 0); "
      "return i; }");
  const auto& fn = main_of(*tu);
  EXPECT_EQ(fn.body->body[1]->kind, StmtKind::While);
  EXPECT_EQ(fn.body->body[2]->kind, StmtKind::Do);
}

TEST(Parser, BreakContinueReturn) {
  auto tu = parse_src(
      "int main() { for (int i = 0; i < 9; i++) { if (i == 2) continue; if "
      "(i == 5) break; } return 0; }");
  EXPECT_NE(tu->find_function("main"), nullptr);
}

TEST(Parser, ThrowsOnMalformedInput) {
  EXPECT_THROW(parse_src("int main() {"), ParseError);
  EXPECT_THROW(parse_src("int main() { x y z; }"), ParseError);
  EXPECT_THROW(parse_src("42;"), ParseError);
}

// ----------------------------------------------------------- OpenMP

TEST(OmpPragma, ParallelForWithClauses) {
  auto d = parse_omp_pragma(
      " omp parallel for private(i,j) shared(a) schedule(dynamic, 4)",
      {1, 1});
  EXPECT_EQ(d.kind, OmpDirectiveKind::ParallelFor);
  const auto* priv = d.find_clause(OmpClauseKind::Private);
  ASSERT_NE(priv, nullptr);
  EXPECT_EQ(priv->vars, (std::vector<std::string>{"i", "j"}));
  const auto* sched = d.find_clause(OmpClauseKind::Schedule);
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->arg, "dynamic");
  ASSERT_NE(sched->expr, nullptr);
}

TEST(OmpPragma, CompoundClauseArgumentsAreCExpressions) {
  const SourceLoc at{7, 3};
  auto d = parse_omp_pragma(" omp parallel num_threads(n + 1) if(n > 2)", at);
  const auto* nt = d.find_clause(OmpClauseKind::NumThreads);
  ASSERT_NE(nt, nullptr);
  const auto* sum = expr_cast<Binary>(nt->expr.get());
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->op, BinaryOp::Add);
  ASSERT_NE(expr_cast<Ident>(sum->lhs.get()), nullptr);
  EXPECT_EQ(expr_cast<Ident>(sum->lhs.get())->name, "n");
  ASSERT_NE(expr_cast<IntLit>(sum->rhs.get()), nullptr);
  EXPECT_EQ(expr_cast<IntLit>(sum->rhs.get())->value, 1);
  // Every node carries the pragma's location.
  for (const Expr* e : {static_cast<const Expr*>(sum),
                        static_cast<const Expr*>(sum->lhs.get()),
                        static_cast<const Expr*>(sum->rhs.get())}) {
    EXPECT_EQ(e->loc.line, at.line);
    EXPECT_EQ(e->loc.col, at.col);
  }
  const auto* cond =
      expr_cast<Binary>(d.find_clause(OmpClauseKind::If)->expr.get());
  ASSERT_NE(cond, nullptr);
  EXPECT_EQ(cond->op, BinaryOp::Gt);

  // A lone literal or name keeps its own node.
  auto lone = parse_omp_pragma(" omp parallel num_threads(4) if(cond)", at);
  const auto* lit = expr_cast<IntLit>(
      lone.find_clause(OmpClauseKind::NumThreads)->expr.get());
  ASSERT_NE(lit, nullptr);
  EXPECT_EQ(lit->value, 4);
  const auto* name =
      expr_cast<Ident>(lone.find_clause(OmpClauseKind::If)->expr.get());
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->name, "cond");

  EXPECT_THROW(parse_omp_pragma(" omp parallel num_threads(n +)", at),
               ParseError);
  EXPECT_THROW(parse_omp_pragma(" omp parallel num_threads(n m)", at),
               ParseError);
}

TEST(OmpPragma, ReductionOperators) {
  auto d = parse_omp_pragma(" omp parallel for reduction(+:sum)", {1, 1});
  const auto* red = d.find_clause(OmpClauseKind::Reduction);
  ASSERT_NE(red, nullptr);
  EXPECT_EQ(red->arg, "+");
  EXPECT_EQ(red->vars, (std::vector<std::string>{"sum"}));

  auto d2 = parse_omp_pragma(" omp parallel for reduction(max:best)", {1, 1});
  EXPECT_EQ(d2.find_clause(OmpClauseKind::Reduction)->arg, "max");
}

TEST(OmpPragma, CriticalWithName) {
  auto d = parse_omp_pragma(" omp critical (updatelock)", {1, 1});
  EXPECT_EQ(d.kind, OmpDirectiveKind::Critical);
  EXPECT_EQ(d.critical_name, "updatelock");
}

TEST(OmpPragma, AtomicKinds) {
  EXPECT_EQ(parse_omp_pragma(" omp atomic", {1, 1}).atomic_kind,
            OmpAtomicKind::Update);
  EXPECT_EQ(parse_omp_pragma(" omp atomic read", {1, 1}).atomic_kind,
            OmpAtomicKind::Read);
  EXPECT_EQ(parse_omp_pragma(" omp atomic capture", {1, 1}).atomic_kind,
            OmpAtomicKind::Capture);
}

TEST(OmpPragma, TaskDepend) {
  auto d = parse_omp_pragma(" omp task depend(out: x) depend(in: y)", {1, 1});
  EXPECT_EQ(d.kind, OmpDirectiveKind::Task);
  auto deps = d.find_clauses(OmpClauseKind::Depend);
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_EQ(deps[0]->arg, "out");
  EXPECT_EQ(deps[1]->vars, (std::vector<std::string>{"y"}));
}

TEST(OmpPragma, DependWithArraySection) {
  auto d = parse_omp_pragma(" omp task depend(inout: a[i])", {1, 1});
  const auto* dep = d.find_clause(OmpClauseKind::Depend);
  ASSERT_NE(dep, nullptr);
  EXPECT_EQ(dep->vars, (std::vector<std::string>{"a[i]"}));
}

TEST(OmpPragma, TargetVariants) {
  EXPECT_EQ(parse_omp_pragma(" omp target map(tofrom: a)", {1, 1}).kind,
            OmpDirectiveKind::Target);
  EXPECT_EQ(parse_omp_pragma(" omp target parallel for", {1, 1}).kind,
            OmpDirectiveKind::TargetParallelFor);
  EXPECT_EQ(parse_omp_pragma(
                " omp target teams distribute parallel for", {1, 1})
                .kind,
            OmpDirectiveKind::TargetParallelFor);
}

TEST(OmpPragma, SimdAndSafelen) {
  auto d = parse_omp_pragma(" omp simd safelen(8)", {1, 1});
  EXPECT_EQ(d.kind, OmpDirectiveKind::Simd);
  EXPECT_EQ(d.find_clause(OmpClauseKind::Safelen)->int_arg, 8);
}

TEST(OmpPragma, CollapseNowaitOrdered) {
  auto d = parse_omp_pragma(" omp for collapse(2) nowait ordered", {1, 1});
  EXPECT_EQ(d.find_clause(OmpClauseKind::Collapse)->int_arg, 2);
  EXPECT_TRUE(d.has_clause(OmpClauseKind::Nowait));
  EXPECT_TRUE(d.has_clause(OmpClauseKind::Ordered));
}

TEST(OmpPragma, ThreadprivateAndFlush) {
  auto d = parse_omp_pragma(" omp threadprivate(counter)", {1, 1});
  EXPECT_EQ(d.kind, OmpDirectiveKind::Threadprivate);
  ASSERT_EQ(d.clauses.size(), 1u);
  EXPECT_EQ(d.clauses[0].vars, (std::vector<std::string>{"counter"}));
}

TEST(OmpPragma, UnknownDirectiveThrows) {
  EXPECT_THROW(parse_omp_pragma(" omp bogus", {1, 1}), ParseError);
  EXPECT_THROW(parse_omp_pragma(" omp parallel for frobnicate(x)", {1, 1}),
               ParseError);
}

TEST(OmpStmtParsing, DirectiveAttachesToStatement) {
  auto tu = parse_src(
      "int main() {\n"
      "  int a[100];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 100; i++) a[i] = i;\n"
      "  return 0;\n"
      "}\n");
  const auto& fn = main_of(*tu);
  const auto* omp = stmt_cast<OmpStmt>(fn.body->body[1].get());
  ASSERT_NE(omp, nullptr);
  EXPECT_EQ(omp->directive.kind, OmpDirectiveKind::ParallelFor);
  EXPECT_EQ(omp->body->kind, StmtKind::For);
}

TEST(OmpStmtParsing, StandaloneDirectivesHaveNoBody) {
  auto tu = parse_src(
      "int main() {\n"
      "#pragma omp parallel\n"
      "  {\n"
      "#pragma omp barrier\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const auto& fn = main_of(*tu);
  const auto* par = stmt_cast<OmpStmt>(fn.body->body[0].get());
  ASSERT_NE(par, nullptr);
  const auto* block = stmt_cast<CompoundStmt>(par->body.get());
  ASSERT_NE(block, nullptr);
  const auto* barrier = stmt_cast<OmpStmt>(block->body[0].get());
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->directive.kind, OmpDirectiveKind::Barrier);
  EXPECT_EQ(barrier->body, nullptr);
}

TEST(OmpStmtParsing, SectionsStructure) {
  auto tu = parse_src(
      "int main() {\n"
      "#pragma omp parallel sections\n"
      "  {\n"
      "#pragma omp section\n"
      "    { }\n"
      "#pragma omp section\n"
      "    { }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const auto& fn = main_of(*tu);
  const auto* omp = stmt_cast<OmpStmt>(fn.body->body[0].get());
  ASSERT_NE(omp, nullptr);
  EXPECT_EQ(omp->directive.kind, OmpDirectiveKind::ParallelSections);
}


TEST(DirectivePrinting, RoundTripsThroughPragmaParser) {
  // Rendering a parsed directive and re-parsing it yields an equivalent
  // directive, across a representative clause zoo.
  const char* pragmas[] = {
      " omp parallel for private(i,j) shared(a) schedule(dynamic,4) nowait",
      " omp parallel for reduction(+:sum) reduction(max:best) collapse(2)",
      " omp critical (tag)",
      " omp atomic capture",
      " omp task depend(out:x) depend(in:y) firstprivate(i)",
      " omp target teams distribute parallel for map(tofrom:a) device(0)",
      " omp simd safelen(8)",
      " omp for ordered schedule(static,2)",
      " omp single nowait",
      " omp parallel sections num_threads(3)",
  };
  for (const char* text : pragmas) {
    const OmpDirective first = parse_omp_pragma(text, {1, 1});
    const std::string printed = directive_to_string(first);
    ASSERT_EQ(printed.rfind("#pragma", 0), 0u) << printed;
    const OmpDirective second =
        parse_omp_pragma(printed.substr(7), {1, 1});  // strip "#pragma"
    EXPECT_EQ(second.kind, first.kind) << text;
    EXPECT_EQ(second.clauses.size(), first.clauses.size()) << text;
    EXPECT_EQ(second.critical_name, first.critical_name) << text;
    EXPECT_EQ(second.atomic_kind, first.atomic_kind) << text;
    EXPECT_EQ(directive_to_string(second), printed) << text;
  }
}

// ----------------------------------------------------------- parse_program

TEST(ParseProgram, LocationsAreInTrimmedCoordinates) {
  const char* src =
      "/* A loop with loop-carried anti-dependence.\n"
      "   Data race pair: a[i+1]@6:10:R vs. a[i]@6:5:W */\n"
      "int main() {\n"
      "  int a[100];\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 99; i++)\n"
      "    a[i] = a[i+1] + 1;\n"
      "  return 0;\n"
      "}\n";
  Program p = parse_program(src);
  // Trimmed code starts at `int main`.
  EXPECT_EQ(p.strip.to_trimmed_line(3), 1);
  const FunctionDecl* fn = p.unit->find_function("main");
  ASSERT_NE(fn, nullptr);
  // The assignment lives on trimmed line 5.
  const auto* omp = stmt_cast<OmpStmt>(fn->body->body[1].get());
  ASSERT_NE(omp, nullptr);
  const auto* loop = stmt_cast<ForStmt>(omp->body.get());
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->body->loc.line, 5);
}

TEST(ParseProgram, RoundTripThroughPrinterReparses) {
  const char* src =
      "int sum = 0;\n"
      "int main() {\n"
      "  int a[50];\n"
      "#pragma omp parallel for reduction(+:sum)\n"
      "  for (int i = 0; i < 50; i++) sum += a[i];\n"
      "  printf(\"%d\\n\", sum);\n"
      "  return 0;\n"
      "}\n";
  Program p = parse_program(src);
  const std::string printed = unit_to_string(*p.unit);
  // The printed form must itself parse.
  Program p2 = parse_program(printed);
  EXPECT_EQ(unit_to_string(*p2.unit), printed);
}

// ------------------------------------------------------------ nesting

std::string repeat(std::string_view s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// A construct nested `n` deep inside main. `slack` is how many levels
/// main's own tree takes around it: n = kMaxNestingDepth - slack is the
/// deepest that parses. `offending` is the token one level deeper gets
/// the error at.
struct NestShape {
  const char* name;
  std::string (*program)(int n);
  int slack;
  const char* offending;
};

const NestShape kNestShapes[] = {
    {"parentheses",
     [](int n) {
       return "int main() { return " + repeat("(", n) + "1" + repeat(")", n) +
              "; }\n";
     },
     5, "("},
    {"unary minus",
     [](int n) { return "int main() { return " + repeat("- ", n) + "1; }\n"; },
     5, "-"},
    {"casts",
     [](int n) {
       return "int main() { return " + repeat("(int)", n) + "1; }\n";
     },
     5, "("},
    {"flat sum",
     [](int n) {
       return "int main() { int x = 1; return x" + repeat(" + x", n - 1) +
              "; }\n";
     },
     4, "+"},
    {"comma chain",
     [](int n) {
       return "int main() { int x = 1; return x" + repeat(", x", n - 1) +
              "; }\n";
     },
     4, ","},
    {"assignment chain",
     [](int n) {
       return "int main() { int x; " + repeat("x = ", n) + "1; return x; }\n";
     },
     5, "="},
    {"subscript chain",
     [](int n) {
       return "int a[1]; int main() { return a" + repeat("[0]", n) + "; }\n";
     },
     5, "["},
    {"postfix increments",
     [](int n) {
       return "int main() { int x = 0; x" + repeat("++", n) +
              "; return x; }\n";
     },
     5, "++"},
    {"else-if chain",
     [](int n) {
       return "int main() { int x = 0; " +
              repeat("if (x) x = 1; else ", n) + "x = 2; return x; }\n";
     },
     6, "="},
    {"blocks",
     [](int n) {
       return "int main() { int x = 0; " + repeat("{ ", n) + "x = 1;" +
              repeat(" }", n) + " return x; }\n";
     },
     6, "="},
};

TEST(Nesting, JustUnderTheBoundParses) {
  for (const NestShape& shape : kNestShapes) {
    const int n = kMaxNestingDepth - shape.slack;
    try {
      const Program p = parse_program(shape.program(n));
      EXPECT_FALSE(unit_to_string(*p.unit).empty()) << shape.name;
    } catch (const ParseError& e) {
      ADD_FAILURE() << shape.name << " " << n << " deep: " << e.what();
    }
  }
}

TEST(Nesting, JustOverTheBoundIsAParseErrorAtTheOffendingToken) {
  const std::string limit =
      "nesting deeper than " + std::to_string(kMaxNestingDepth) + " levels";
  for (const NestShape& shape : kNestShapes) {
    const std::string src =
        shape.program(kMaxNestingDepth - shape.slack + 1);
    try {
      (void)parse_program(src);
      ADD_FAILURE() << shape.name << " parsed past the bound";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(limit), std::string::npos) << shape.name << what;
      EXPECT_NE(what.find(std::string("(got '") + shape.offending + "')"),
                std::string::npos)
          << shape.name << ": " << what;
      // The location names that token in the one-line program.
      ASSERT_EQ(e.line(), 1) << shape.name;
      EXPECT_EQ(src.compare(static_cast<std::size_t>(e.col() - 1),
                            std::string_view(shape.offending).size(),
                            shape.offending),
                0)
          << shape.name << " at column " << e.col();
    }
  }
}

TEST(Nesting, HostileDepthsFailAtTheBoundNotTheStack) {
  // Far past the bound: the parser stops at it instead of recursing on.
  for (const NestShape& shape : kNestShapes) {
    EXPECT_THROW((void)parse_program(shape.program(100'000)), ParseError)
        << shape.name;
  }
}

TEST(Nesting, PragmaClauseExpressionsCountFromTheirStatement) {
  // A clause expression sits below its directive's statement: nesting
  // inside `num_threads(...)` counts from there.
  const auto program = [](int n) {
    return "int main() {\n#pragma omp parallel num_threads(" +
           repeat("(", n) + "1" + repeat(")", n) + ")\n  { }\n  return 0;\n}\n";
  };
  EXPECT_NO_THROW((void)parse_program(program(kMaxNestingDepth / 2)));
  EXPECT_THROW((void)parse_program(program(kMaxNestingDepth)), ParseError);
}

}  // namespace
}  // namespace drbml::minic
