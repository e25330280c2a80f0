#include "minic/parser.hpp"

#include <utility>

#include "minic/lexer.hpp"
#include "support/error.hpp"

namespace drbml::minic {

namespace {

/// Parses End-terminated tokens as one C expression (defined with the C
/// parser below).
ExprPtr parse_clause_expr(std::vector<Token> tokens);

// ---------------------------------------------------------------------------
// OpenMP pragma parsing
//
// Pragma text is re-lexed with the main lexer and parsed by a dedicated
// clause parser. Variable lists may contain array sections (`a[i]`), which
// are captured textually.

class OmpParser {
 public:
  OmpParser(std::vector<Token> tokens, SourceLoc loc)
      : tokens_(std::move(tokens)), loc_(loc) {}

  OmpDirective parse() {
    OmpDirective dir;
    dir.loc = loc_;
    expect_word("omp");
    dir.kind = parse_directive_kind();
    parse_directive_suffix(dir);
    while (!at_end()) {
      dir.clauses.push_back(parse_clause());
    }
    return dir;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("in omp pragma: " + msg, loc_.line, loc_.col);
  }

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    if (i < tokens_.size()) return tokens_[i];
    return tokens_.back();  // End token
  }
  const Token& get() {
    const Token& t = peek();
    if (!t.is(TokenKind::End)) ++pos_;
    return t;
  }
  [[nodiscard]] bool at_end() const { return peek().is(TokenKind::End); }

  [[nodiscard]] bool peek_word(const char* w, std::size_t ahead = 0) const {
    const Token& t = peek(ahead);
    return (t.is(TokenKind::Identifier) || t.is(TokenKind::Keyword)) &&
           t.text == w;
  }
  bool accept_word(const char* w) {
    if (peek_word(w)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect_word(const char* w) {
    if (!accept_word(w)) fail(std::string("expected '") + w + "'");
  }
  void expect_punct(const char* p) {
    if (!peek().is_punct(p)) fail(std::string("expected '") + p + "'");
    ++pos_;
  }

  OmpDirectiveKind parse_directive_kind() {
    if (accept_word("parallel")) {
      if (accept_word("for")) {
        if (accept_word("simd")) return OmpDirectiveKind::ParallelForSimd;
        return OmpDirectiveKind::ParallelFor;
      }
      if (accept_word("sections")) return OmpDirectiveKind::ParallelSections;
      return OmpDirectiveKind::Parallel;
    }
    if (accept_word("for")) {
      if (accept_word("simd")) return OmpDirectiveKind::ForSimd;
      return OmpDirectiveKind::For;
    }
    if (accept_word("simd")) return OmpDirectiveKind::Simd;
    if (accept_word("critical")) return OmpDirectiveKind::Critical;
    if (accept_word("atomic")) return OmpDirectiveKind::Atomic;
    if (accept_word("barrier")) return OmpDirectiveKind::Barrier;
    if (accept_word("single")) return OmpDirectiveKind::Single;
    if (accept_word("master")) return OmpDirectiveKind::Master;
    if (accept_word("masked")) return OmpDirectiveKind::Master;
    if (accept_word("sections")) return OmpDirectiveKind::Sections;
    if (accept_word("section")) return OmpDirectiveKind::Section;
    if (accept_word("taskwait")) return OmpDirectiveKind::Taskwait;
    if (accept_word("task")) return OmpDirectiveKind::Task;
    if (accept_word("ordered")) return OmpDirectiveKind::Ordered;
    if (accept_word("threadprivate")) return OmpDirectiveKind::Threadprivate;
    if (accept_word("flush")) return OmpDirectiveKind::Flush;
    if (accept_word("target")) {
      // Accept `target`, `target parallel for`, and
      // `target teams distribute parallel for [simd]`.
      bool saw_loop = false;
      accept_word("teams");
      accept_word("distribute");
      if (accept_word("parallel")) {
        expect_word("for");
        accept_word("simd");
        saw_loop = true;
      } else if (accept_word("map")) {
        // `target map(...)`: rewind so the clause loop sees `map`.
        --pos_;
      }
      return saw_loop ? OmpDirectiveKind::TargetParallelFor
                      : OmpDirectiveKind::Target;
    }
    fail("unknown directive '" + peek().text + "'");
  }

  void parse_directive_suffix(OmpDirective& dir) {
    if (dir.kind == OmpDirectiveKind::Critical && peek().is_punct("(")) {
      get();
      if (!peek().is(TokenKind::Identifier)) fail("expected critical name");
      dir.critical_name = get().text;
      expect_punct(")");
    }
    if (dir.kind == OmpDirectiveKind::Atomic) {
      if (accept_word("read")) dir.atomic_kind = OmpAtomicKind::Read;
      else if (accept_word("write")) dir.atomic_kind = OmpAtomicKind::Write;
      else if (accept_word("update")) dir.atomic_kind = OmpAtomicKind::Update;
      else if (accept_word("capture")) dir.atomic_kind = OmpAtomicKind::Capture;
    }
    if (dir.kind == OmpDirectiveKind::Threadprivate ||
        dir.kind == OmpDirectiveKind::Flush) {
      if (peek().is_punct("(")) {
        OmpClause c;
        c.kind = OmpClauseKind::Shared;  // variable-list carrier
        get();
        c.vars = parse_var_list();
        expect_punct(")");
        dir.clauses.push_back(std::move(c));
      }
    }
  }

  /// Parses a comma-separated variable list up to the closing ')'. Items
  /// may be plain identifiers or textual array sections (`a[i]`, `b[0:n]`).
  std::vector<std::string> parse_var_list() {
    std::vector<std::string> vars;
    std::string current;
    int bracket_depth = 0;
    for (;;) {
      const Token& t = peek();
      if (t.is(TokenKind::End)) fail("unterminated variable list");
      if (t.is_punct(")") && bracket_depth == 0) break;
      if (t.is_punct(",") && bracket_depth == 0) {
        get();
        if (!current.empty()) vars.push_back(current);
        current.clear();
        continue;
      }
      if (t.is_punct("[")) ++bracket_depth;
      if (t.is_punct("]")) --bracket_depth;
      current += get().text;
    }
    if (!current.empty()) vars.push_back(current);
    return vars;
  }

  /// The tokens of a clause argument, up to its closing parenthesis.
  std::vector<Token> capture_arg() {
    std::vector<Token> out;
    int depth = 0;
    for (;;) {
      const Token& t = peek();
      if (t.is(TokenKind::End)) fail("unterminated clause argument");
      if (t.is_punct(")") && depth == 0) break;
      if (t.is_punct("(")) ++depth;
      if (t.is_punct(")")) --depth;
      out.push_back(get());
    }
    return out;
  }

  OmpClause parse_clause() {
    // Clause separators (commas between clauses) are permitted.
    while (peek().is_punct(",")) get();
    const Token& t = peek();
    if (!(t.is(TokenKind::Identifier) || t.is(TokenKind::Keyword))) {
      fail("expected clause, got '" + t.text + "'");
    }
    const std::string name = get().text;
    OmpClause c;

    auto var_list_clause = [&](OmpClauseKind kind) {
      c.kind = kind;
      expect_punct("(");
      c.vars = parse_var_list();
      expect_punct(")");
    };

    if (name == "private") { var_list_clause(OmpClauseKind::Private); return c; }
    if (name == "firstprivate") { var_list_clause(OmpClauseKind::FirstPrivate); return c; }
    if (name == "lastprivate") { var_list_clause(OmpClauseKind::LastPrivate); return c; }
    if (name == "shared") { var_list_clause(OmpClauseKind::Shared); return c; }
    if (name == "copyprivate") { var_list_clause(OmpClauseKind::Copyprivate); return c; }
    if (name == "linear") { var_list_clause(OmpClauseKind::Linear); return c; }
    if (name == "nowait") { c.kind = OmpClauseKind::Nowait; return c; }
    if (name == "ordered") {
      c.kind = OmpClauseKind::Ordered;
      if (peek().is_punct("(")) {
        get();
        if (peek().is(TokenKind::IntLiteral)) c.int_arg = get().int_value;
        expect_punct(")");
      }
      return c;
    }
    if (name == "reduction") {
      c.kind = OmpClauseKind::Reduction;
      expect_punct("(");
      // Operator may span several punct tokens (&&, ||) or be an identifier
      // (min/max).
      std::string op;
      while (!peek().is_punct(":")) {
        if (peek().is(TokenKind::End)) fail("unterminated reduction clause");
        op += get().text;
      }
      expect_punct(":");
      c.arg = op;
      c.vars = parse_var_list();
      expect_punct(")");
      return c;
    }
    if (name == "schedule") {
      c.kind = OmpClauseKind::Schedule;
      expect_punct("(");
      if (!(peek().is(TokenKind::Identifier) || peek().is(TokenKind::Keyword))) {
        fail("expected schedule kind");
      }
      c.arg = get().text;
      if (peek().is_punct(",")) {
        get();
        c.expr = parse_embedded_expr();
      }
      expect_punct(")");
      return c;
    }
    if (name == "collapse" || name == "safelen" || name == "simdlen") {
      c.kind = name == "collapse" ? OmpClauseKind::Collapse
                                  : OmpClauseKind::Safelen;
      expect_punct("(");
      if (!peek().is(TokenKind::IntLiteral)) fail("expected integer");
      c.int_arg = get().int_value;
      expect_punct(")");
      return c;
    }
    if (name == "num_threads" || name == "if" || name == "device" ||
        name == "final" || name == "priority") {
      c.kind = name == "num_threads" ? OmpClauseKind::NumThreads
               : name == "device"    ? OmpClauseKind::Device
                                     : OmpClauseKind::If;
      expect_punct("(");
      c.expr = parse_embedded_expr();
      expect_punct(")");
      return c;
    }
    if (name == "depend") {
      c.kind = OmpClauseKind::Depend;
      expect_punct("(");
      if (!(peek().is(TokenKind::Identifier) || peek().is(TokenKind::Keyword))) {
        fail("expected dependence type");
      }
      c.arg = get().text;
      expect_punct(":");
      c.vars = parse_var_list();
      expect_punct(")");
      return c;
    }
    if (name == "map") {
      c.kind = OmpClauseKind::Map;
      expect_punct("(");
      // Optional map-type prefix.
      if ((peek().is(TokenKind::Identifier)) && peek(1).is_punct(":")) {
        c.arg = get().text;
        get();  // ':'
      }
      c.vars = parse_var_list();
      expect_punct(")");
      return c;
    }
    if (name == "default") {
      c.kind = OmpClauseKind::Default;
      expect_punct("(");
      if (!(peek().is(TokenKind::Identifier) || peek().is(TokenKind::Keyword))) {
        fail("expected default kind");
      }
      c.arg = get().text;
      expect_punct(")");
      return c;
    }
    fail("unknown clause '" + name + "'");
  }

  /// Parses an expression argument inside a clause: a lone integer
  /// literal becomes an IntLit, a lone name an Ident, and anything else
  /// (`n + 1`, `n > 2`) goes through the C expression parser. Every node
  /// carries the pragma's location.
  ExprPtr parse_embedded_expr() {
    std::vector<Token> arg = capture_arg();
    if (arg.empty()) fail("empty clause expression");
    const std::string& text = arg.front().text;
    if (arg.size() == 1 && !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos) {
      auto lit = std::make_unique<IntLit>();
      try {
        lit->value = std::stoll(text);
      } catch (const std::out_of_range&) {
        fail("clause literal out of range: " + text);
      }
      lit->loc = loc_;
      return lit;
    }
    if (arg.size() == 1 && arg.front().is(TokenKind::Identifier)) {
      auto id = std::make_unique<Ident>();
      id->name = text;
      id->loc = loc_;
      return id;
    }
    for (Token& t : arg) t.loc = loc_;
    Token end;
    end.kind = TokenKind::End;
    end.loc = loc_;
    arg.push_back(std::move(end));
    return parse_clause_expr(std::move(arg));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  SourceLoc loc_;
};

// ---------------------------------------------------------------------------
// C parser

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  std::unique_ptr<TranslationUnit> parse() {
    auto tu = std::make_unique<TranslationUnit>();
    while (!at_end()) {
      if (peek().is(TokenKind::Pragma)) {
        tu->global_directives.push_back(
            parse_omp_pragma(peek().text, peek().loc));
        get();
        continue;
      }
      parse_top_level(*tu);
    }
    return tu;
  }

  /// Parses the whole token stream as one assignment-expression.
  ExprPtr parse_lone_expr() {
    ExprPtr e = parse_assign_expr();
    if (!at_end()) fail("unexpected token after clause expression");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    const Token& t = peek();
    throw ParseError(msg + " (got '" + t.text + "')", t.loc.line, t.loc.col);
  }

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& get() {
    const Token& t = peek();
    if (!t.is(TokenKind::End)) ++pos_;
    return t;
  }
  [[nodiscard]] bool at_end() const { return peek().is(TokenKind::End); }

  bool accept_punct(const char* p) {
    if (peek().is_punct(p)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect_punct(const char* p) {
    if (!accept_punct(p)) fail(std::string("expected '") + p + "'");
  }
  bool accept_keyword(const char* kw) {
    if (peek().is_keyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  // -- types ----------------------------------------------------------------

  /// Named opaque types treated as scalars (OpenMP lock types, size_t).
  [[nodiscard]] static bool is_named_type(const Token& t) {
    return t.is(TokenKind::Identifier) &&
           (t.text == "omp_lock_t" || t.text == "omp_nest_lock_t" ||
            t.text == "size_t");
  }

  [[nodiscard]] bool peek_is_type_start(std::size_t ahead = 0) const {
    const Token& t = peek(ahead);
    if (is_named_type(t)) return true;
    if (!t.is(TokenKind::Keyword)) return false;
    return t.text == "void" || t.text == "bool" || t.text == "char" ||
           t.text == "short" || t.text == "int" || t.text == "long" ||
           t.text == "float" || t.text == "double" || t.text == "signed" ||
           t.text == "unsigned" || t.text == "const" || t.text == "static" ||
           t.text == "volatile" || t.text == "extern";
  }

  Type parse_type_specifiers() {
    Type ty;
    bool have_base = false;
    for (;;) {
      const Token& t = peek();
      if (is_named_type(t) && !have_base) {
        // Opaque named types are modelled as long integers.
        ty.kind = TypeKind::Long;
        get();
        have_base = true;
        continue;
      }
      if (!t.is(TokenKind::Keyword)) break;
      if (t.text == "const" || t.text == "volatile" || t.text == "static" ||
          t.text == "extern") {
        if (t.text == "const") ty.is_const = true;
        get();
        continue;
      }
      if (t.text == "unsigned") {
        ty.is_unsigned = true;
        get();
        have_base = true;  // `unsigned` alone means unsigned int
        continue;
      }
      if (t.text == "signed") {
        get();
        have_base = true;
        continue;
      }
      if (t.text == "void") { ty.kind = TypeKind::Void; get(); have_base = true; continue; }
      if (t.text == "bool") { ty.kind = TypeKind::Bool; get(); have_base = true; continue; }
      if (t.text == "char") { ty.kind = TypeKind::Char; get(); have_base = true; continue; }
      if (t.text == "short") { ty.kind = TypeKind::Short; get(); have_base = true; continue; }
      if (t.text == "int") {
        if (ty.kind != TypeKind::Long && ty.kind != TypeKind::Short) {
          ty.kind = TypeKind::Int;
        }
        get();
        have_base = true;
        continue;
      }
      if (t.text == "long") {
        ty.kind = TypeKind::Long;
        get();
        have_base = true;
        // `long long` / `long double`
        if (peek().is_keyword("long")) get();
        if (peek().is_keyword("double")) {
          ty.kind = TypeKind::Double;
          get();
        }
        continue;
      }
      if (t.text == "float") { ty.kind = TypeKind::Float; get(); have_base = true; continue; }
      if (t.text == "double") { ty.kind = TypeKind::Double; get(); have_base = true; continue; }
      break;
    }
    if (!have_base) fail("expected type");
    return ty;
  }

  // -- top level --------------------------------------------------------------

  void parse_top_level(TranslationUnit& tu) {
    if (!peek_is_type_start()) fail("expected declaration");
    Type base = parse_type_specifiers();

    // First declarator decides function vs. variables.
    Type ty = base;
    while (accept_punct("*")) ++ty.pointer_depth;
    if (!peek().is(TokenKind::Identifier)) fail("expected identifier");
    const Token name_tok = get();

    if (peek().is_punct("(")) {
      tu.functions.push_back(parse_function_rest(ty, name_tok));
      return;
    }

    // Global variable declaration(s).
    auto first = finish_declarator(ty, name_tok);
    first->is_global = true;
    tu.globals.push_back(std::move(first));
    while (accept_punct(",")) {
      Type ty2 = base;
      while (accept_punct("*")) ++ty2.pointer_depth;
      if (!peek().is(TokenKind::Identifier)) fail("expected identifier");
      const Token name2 = get();
      auto d = finish_declarator(ty2, name2);
      d->is_global = true;
      tu.globals.push_back(std::move(d));
    }
    expect_punct(";");
  }

  std::unique_ptr<VarDecl> finish_declarator(Type ty, const Token& name_tok) {
    auto d = std::make_unique<VarDecl>();
    d->type = ty;
    d->name = name_tok.text;
    d->loc = name_tok.loc;
    while (accept_punct("[")) {
      if (peek().is_punct("]")) {
        d->array_dims.push_back(nullptr);  // unsized: `char* argv[]`
      } else {
        d->array_dims.push_back(parse_assign_expr());
      }
      expect_punct("]");
    }
    if (accept_punct("=")) {
      if (peek().is_punct("{")) {
        d->init = parse_initializer_list();
      } else {
        d->init = parse_assign_expr();
      }
    }
    return d;
  }

  /// Brace initializers are represented as a Call named "__init_list".
  ExprPtr parse_initializer_list() {
    auto call = std::make_unique<Call>();
    call->callee = "__init_list";
    call->loc = peek().loc;
    expect_punct("{");
    if (!peek().is_punct("}")) {
      for (;;) {
        if (peek().is_punct("{")) {
          call->args.push_back(parse_initializer_list());
        } else {
          call->args.push_back(parse_assign_expr());
        }
        if (!accept_punct(",")) break;
        if (peek().is_punct("}")) break;  // trailing comma
      }
    }
    expect_punct("}");
    return call;
  }

  std::unique_ptr<FunctionDecl> parse_function_rest(Type ret,
                                                    const Token& name_tok) {
    auto fn = std::make_unique<FunctionDecl>();
    fn->return_type = ret;
    fn->name = name_tok.text;
    fn->loc = name_tok.loc;
    expect_punct("(");
    if (!peek().is_punct(")")) {
      if (peek().is_keyword("void") && peek(1).is_punct(")")) {
        get();
      } else {
        for (;;) {
          Type pty = parse_type_specifiers();
          while (accept_punct("*")) ++pty.pointer_depth;
          if (!peek().is(TokenKind::Identifier)) fail("expected parameter name");
          const Token pname = get();
          auto p = finish_declarator(pty, pname);
          p->is_param = true;
          // Array parameters decay to pointers.
          if (p->is_array()) {
            p->array_dims.clear();
            ++p->type.pointer_depth;
          }
          fn->params.push_back(std::move(p));
          if (!accept_punct(",")) break;
        }
      }
    }
    expect_punct(")");
    if (accept_punct(";")) {
      fn->body = nullptr;  // prototype
      return fn;
    }
    fn->body = parse_compound();
    return fn;
  }

  // -- statements -------------------------------------------------------------

  std::unique_ptr<CompoundStmt> parse_compound() {
    auto block = std::make_unique<CompoundStmt>();
    block->loc = peek().loc;
    expect_punct("{");
    while (!peek().is_punct("}")) {
      if (at_end()) fail("unterminated block");
      block->body.push_back(parse_statement());
    }
    expect_punct("}");
    return block;
  }

  StmtPtr parse_statement() {
    const Token& t = peek();

    if (t.is(TokenKind::Pragma)) return parse_omp_statement();
    if (t.is_punct("{")) return parse_compound();
    if (t.is_punct(";")) {
      auto s = std::make_unique<NullStmt>();
      s->loc = t.loc;
      get();
      return s;
    }
    if (t.is_keyword("if")) return parse_if();
    if (t.is_keyword("for")) return parse_for();
    if (t.is_keyword("while")) return parse_while();
    if (t.is_keyword("do")) return parse_do();
    if (t.is_keyword("return")) {
      auto s = std::make_unique<ReturnStmt>();
      s->loc = t.loc;
      get();
      if (!peek().is_punct(";")) s->value = parse_expr();
      expect_punct(";");
      return s;
    }
    if (t.is_keyword("break")) {
      auto s = std::make_unique<BreakStmt>();
      s->loc = t.loc;
      get();
      expect_punct(";");
      return s;
    }
    if (t.is_keyword("continue")) {
      auto s = std::make_unique<ContinueStmt>();
      s->loc = t.loc;
      get();
      expect_punct(";");
      return s;
    }
    if (peek_is_type_start()) return parse_decl_stmt();

    auto s = std::make_unique<ExprStmt>();
    s->loc = t.loc;
    s->expr = parse_expr();
    expect_punct(";");
    return s;
  }

  StmtPtr parse_decl_stmt() {
    auto s = std::make_unique<DeclStmt>();
    s->loc = peek().loc;
    Type base = parse_type_specifiers();
    for (;;) {
      Type ty = base;
      while (accept_punct("*")) ++ty.pointer_depth;
      if (!peek().is(TokenKind::Identifier)) fail("expected identifier");
      const Token name_tok = get();
      s->decls.push_back(finish_declarator(ty, name_tok));
      if (!accept_punct(",")) break;
    }
    expect_punct(";");
    return s;
  }

  StmtPtr parse_if() {
    auto s = std::make_unique<IfStmt>();
    s->loc = peek().loc;
    get();  // 'if'
    expect_punct("(");
    s->cond = parse_expr();
    expect_punct(")");
    s->then_branch = parse_statement();
    if (accept_keyword("else")) s->else_branch = parse_statement();
    return s;
  }

  StmtPtr parse_for() {
    auto s = std::make_unique<ForStmt>();
    s->loc = peek().loc;
    get();  // 'for'
    expect_punct("(");
    if (peek().is_punct(";")) {
      auto n = std::make_unique<NullStmt>();
      n->loc = peek().loc;
      s->init = std::move(n);
      get();
    } else if (peek_is_type_start()) {
      s->init = parse_decl_stmt();
    } else {
      auto e = std::make_unique<ExprStmt>();
      e->loc = peek().loc;
      e->expr = parse_expr();
      s->init = std::move(e);
      expect_punct(";");
    }
    if (!peek().is_punct(";")) s->cond = parse_expr();
    expect_punct(";");
    if (!peek().is_punct(")")) s->inc = parse_expr();
    expect_punct(")");
    s->body = parse_statement();
    return s;
  }

  StmtPtr parse_while() {
    auto s = std::make_unique<WhileStmt>();
    s->loc = peek().loc;
    get();
    expect_punct("(");
    s->cond = parse_expr();
    expect_punct(")");
    s->body = parse_statement();
    return s;
  }

  StmtPtr parse_do() {
    auto s = std::make_unique<DoStmt>();
    s->loc = peek().loc;
    get();
    s->body = parse_statement();
    if (!accept_keyword("while")) fail("expected 'while'");
    expect_punct("(");
    s->cond = parse_expr();
    expect_punct(")");
    expect_punct(";");
    return s;
  }

  StmtPtr parse_omp_statement() {
    const Token pragma = get();
    auto s = std::make_unique<OmpStmt>();
    s->loc = pragma.loc;
    s->directive = parse_omp_pragma(pragma.text, pragma.loc);
    switch (s->directive.kind) {
      case OmpDirectiveKind::Barrier:
      case OmpDirectiveKind::Taskwait:
      case OmpDirectiveKind::Flush:
      case OmpDirectiveKind::Threadprivate:
        s->body = nullptr;
        break;
      default:
        s->body = parse_statement();
        break;
    }
    return s;
  }

  // -- expressions ------------------------------------------------------------

  ExprPtr parse_expr() {
    ExprPtr e = parse_assign_expr();
    while (peek().is_punct(",")) {
      auto b = std::make_unique<Binary>();
      b->loc = peek().loc;
      get();
      b->op = BinaryOp::Comma;
      b->lhs = std::move(e);
      b->rhs = parse_assign_expr();
      e = std::move(b);
    }
    return e;
  }

  ExprPtr parse_assign_expr() {
    ExprPtr lhs = parse_conditional();
    const Token& t = peek();
    AssignOp op;
    if (t.is_punct("=")) op = AssignOp::Assign;
    else if (t.is_punct("+=")) op = AssignOp::Add;
    else if (t.is_punct("-=")) op = AssignOp::Sub;
    else if (t.is_punct("*=")) op = AssignOp::Mul;
    else if (t.is_punct("/=")) op = AssignOp::Div;
    else if (t.is_punct("%=")) op = AssignOp::Mod;
    else if (t.is_punct("<<=")) op = AssignOp::Shl;
    else if (t.is_punct(">>=")) op = AssignOp::Shr;
    else if (t.is_punct("&=")) op = AssignOp::And;
    else if (t.is_punct("|=")) op = AssignOp::Or;
    else if (t.is_punct("^=")) op = AssignOp::Xor;
    else return lhs;

    auto a = std::make_unique<Assign>();
    a->loc = t.loc;
    get();
    a->op = op;
    a->target = std::move(lhs);
    a->value = parse_assign_expr();
    return a;
  }

  ExprPtr parse_conditional() {
    ExprPtr cond = parse_binary(0);
    if (!peek().is_punct("?")) return cond;
    auto c = std::make_unique<Conditional>();
    c->loc = peek().loc;
    get();
    c->cond = std::move(cond);
    c->then_expr = parse_expr();
    expect_punct(":");
    c->else_expr = parse_assign_expr();
    return c;
  }

  struct OpInfo {
    const char* spelling;
    BinaryOp op;
    int prec;
  };

  [[nodiscard]] static const OpInfo* binary_op_info(const Token& t) noexcept {
    static constexpr OpInfo kOps[] = {
        {"||", BinaryOp::LogicalOr, 1},
        {"&&", BinaryOp::LogicalAnd, 2},
        {"|", BinaryOp::BitOr, 3},
        {"^", BinaryOp::BitXor, 4},
        {"&", BinaryOp::BitAnd, 5},
        {"==", BinaryOp::Eq, 6},
        {"!=", BinaryOp::Ne, 6},
        {"<", BinaryOp::Lt, 7},
        {">", BinaryOp::Gt, 7},
        {"<=", BinaryOp::Le, 7},
        {">=", BinaryOp::Ge, 7},
        {"<<", BinaryOp::Shl, 8},
        {">>", BinaryOp::Shr, 8},
        {"+", BinaryOp::Add, 9},
        {"-", BinaryOp::Sub, 9},
        {"*", BinaryOp::Mul, 10},
        {"/", BinaryOp::Div, 10},
        {"%", BinaryOp::Mod, 10},
    };
    if (!t.is(TokenKind::Punct)) return nullptr;
    for (const auto& info : kOps) {
      if (t.text == info.spelling) return &info;
    }
    return nullptr;
  }

  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    for (;;) {
      const OpInfo* info = binary_op_info(peek());
      if (info == nullptr || info->prec < min_prec) return lhs;
      auto b = std::make_unique<Binary>();
      b->loc = peek().loc;
      get();
      b->op = info->op;
      b->lhs = std::move(lhs);
      b->rhs = parse_binary(info->prec + 1);
      lhs = std::move(b);
    }
  }

  ExprPtr parse_unary() {
    const Token& t = peek();
    auto make_unary = [&](UnaryOp op) {
      auto u = std::make_unique<Unary>();
      u->loc = t.loc;
      get();
      u->op = op;
      u->operand = parse_unary();
      return u;
    };
    if (t.is_punct("-")) return make_unary(UnaryOp::Neg);
    if (t.is_punct("+")) return make_unary(UnaryOp::Plus);
    if (t.is_punct("!")) return make_unary(UnaryOp::Not);
    if (t.is_punct("~")) return make_unary(UnaryOp::BitNot);
    if (t.is_punct("++")) return make_unary(UnaryOp::PreInc);
    if (t.is_punct("--")) return make_unary(UnaryOp::PreDec);
    if (t.is_punct("&")) return make_unary(UnaryOp::AddrOf);
    if (t.is_punct("*")) return make_unary(UnaryOp::Deref);
    if (t.is_keyword("sizeof")) {
      // sizeof(type) and sizeof(expr) both evaluate to a constant in our
      // subset; represent as a Call for the interpreter.
      get();
      auto call = std::make_unique<Call>();
      call->loc = t.loc;
      call->callee = "__sizeof";
      expect_punct("(");
      if (peek_is_type_start()) {
        Type ty = parse_type_specifiers();
        while (accept_punct("*")) ++ty.pointer_depth;
        auto lit = std::make_unique<StringLit>();
        lit->loc = t.loc;
        lit->value = type_to_string(ty);
        call->args.push_back(std::move(lit));
      } else {
        call->args.push_back(parse_expr());
      }
      expect_punct(")");
      return call;
    }
    // Cast: '(' type ')' unary. Unambiguous because the subset has no
    // typedefs: a type keyword after '(' can only be a cast.
    if (t.is_punct("(") && peek_is_type_start(1)) {
      auto c = std::make_unique<Cast>();
      c->loc = t.loc;
      get();
      c->type = parse_type_specifiers();
      while (accept_punct("*")) ++c->type.pointer_depth;
      // Abstract array declarator in casts is not supported.
      expect_punct(")");
      c->operand = parse_unary();
      return c;
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    for (;;) {
      const Token& t = peek();
      if (t.is_punct("[")) {
        auto s = std::make_unique<Subscript>();
        s->loc = t.loc;
        get();
        s->base = std::move(e);
        s->index = parse_expr();
        expect_punct("]");
        e = std::move(s);
        continue;
      }
      if (t.is_punct("++") || t.is_punct("--")) {
        auto u = std::make_unique<Unary>();
        u->loc = t.loc;
        u->op = t.is_punct("++") ? UnaryOp::PostInc : UnaryOp::PostDec;
        get();
        u->operand = std::move(e);
        e = std::move(u);
        continue;
      }
      break;
    }
    return e;
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::IntLiteral: {
        auto e = std::make_unique<IntLit>();
        e->loc = t.loc;
        e->value = t.int_value;
        get();
        return e;
      }
      case TokenKind::FloatLiteral: {
        auto e = std::make_unique<FloatLit>();
        e->loc = t.loc;
        e->value = t.float_value;
        get();
        return e;
      }
      case TokenKind::StringLiteral: {
        auto e = std::make_unique<StringLit>();
        e->loc = t.loc;
        e->value = t.string_value;
        get();
        return e;
      }
      case TokenKind::CharLiteral: {
        auto e = std::make_unique<CharLit>();
        e->loc = t.loc;
        e->value = static_cast<char>(t.int_value);
        get();
        return e;
      }
      case TokenKind::Identifier: {
        const Token name = get();
        if (peek().is_punct("(")) {
          auto call = std::make_unique<Call>();
          call->loc = name.loc;
          call->callee = name.text;
          get();  // '('
          if (!peek().is_punct(")")) {
            for (;;) {
              call->args.push_back(parse_assign_expr());
              if (!accept_punct(",")) break;
            }
          }
          expect_punct(")");
          return call;
        }
        auto id = std::make_unique<Ident>();
        id->loc = name.loc;
        id->name = name.text;
        return id;
      }
      case TokenKind::Punct:
        if (t.is_punct("(")) {
          get();
          ExprPtr e = parse_expr();
          expect_punct(")");
          return e;
        }
        break;
      default:
        break;
    }
    fail("expected expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

ExprPtr parse_clause_expr(std::vector<Token> tokens) {
  return Parser(std::move(tokens)).parse_lone_expr();
}

}  // namespace

OmpDirective parse_omp_pragma(std::string_view pragma_text, SourceLoc loc) {
  std::vector<Token> toks = lex(pragma_text);
  return OmpParser(std::move(toks), loc).parse();
}

std::unique_ptr<TranslationUnit> parse_tokens(std::vector<Token> tokens) {
  return Parser(std::move(tokens)).parse();
}

Program parse_program(std::string_view source) {
  Program p;
  p.original = std::string(source);
  p.strip = strip_comments(source);
  p.unit = parse_tokens(lex(p.strip.trimmed));
  return p;
}

}  // namespace drbml::minic
