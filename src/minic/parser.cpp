#include "minic/parser.hpp"

#include <algorithm>
#include <utility>

#include "minic/lexer.hpp"
#include "support/error.hpp"

namespace drbml::minic {

namespace {

/// Parses End-terminated tokens as one C expression whose root sits
/// `depth` levels down the tree (defined with the C parser below).
ExprPtr parse_clause_expr(std::vector<Token> tokens, int depth);

/// The spelling of a bracket or separator code, for "expected" messages.
const char* punct_spelling(Tok code) noexcept {
  switch (code) {
    case Tok::LParen: return "(";
    case Tok::RParen: return ")";
    case Tok::LBrace: return "{";
    case Tok::RBrace: return "}";
    case Tok::LBracket: return "[";
    case Tok::RBracket: return "]";
    case Tok::Semi: return ";";
    case Tok::Comma: return ",";
    case Tok::Colon: return ":";
    default: return "?";
  }
}

// ---------------------------------------------------------------------------
// OpenMP pragma parsing
//
// Pragma text is re-lexed with the main lexer and parsed by a dedicated
// clause parser. Variable lists may contain array sections (`a[i]`), which
// are captured textually.

class OmpParser {
 public:
  /// `depth`: how far down the tree the clause expressions sit.
  OmpParser(std::vector<Token> tokens, SourceLoc loc, int depth)
      : tokens_(std::move(tokens)), loc_(loc), depth_(depth) {}

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
  void expect(Tok code) {
    if (!peek().is(code)) {
      fail(std::string("expected '") + punct_spelling(code) + "'");
    }
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
    fail("unknown directive '" + display_text(peek()) + "'");
  }

  void parse_directive_suffix(OmpDirective& dir) {
    if (dir.kind == OmpDirectiveKind::Critical && peek().is(Tok::LParen)) {
      get();
      if (!peek().is(TokenKind::Identifier)) fail("expected critical name");
      dir.critical_name = get().text;
      expect(Tok::RParen);
    }
    if (dir.kind == OmpDirectiveKind::Atomic) {
      if (accept_word("read")) dir.atomic_kind = OmpAtomicKind::Read;
      else if (accept_word("write")) dir.atomic_kind = OmpAtomicKind::Write;
      else if (accept_word("update")) dir.atomic_kind = OmpAtomicKind::Update;
      else if (accept_word("capture")) dir.atomic_kind = OmpAtomicKind::Capture;
    }
    if (dir.kind == OmpDirectiveKind::Threadprivate ||
        dir.kind == OmpDirectiveKind::Flush) {
      if (peek().is(Tok::LParen)) {
        OmpClause c;
        c.kind = OmpClauseKind::Shared;  // variable-list carrier
        get();
        c.vars = parse_var_list();
        expect(Tok::RParen);
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
      if (t.is(Tok::RParen) && bracket_depth == 0) break;
      if (t.is(Tok::Comma) && bracket_depth == 0) {
        get();
        if (!current.empty()) vars.push_back(current);
        current.clear();
        continue;
      }
      if (t.is(Tok::LBracket)) ++bracket_depth;
      if (t.is(Tok::RBracket)) --bracket_depth;
      current += display_text(get());
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
      if (t.is(Tok::RParen) && depth == 0) break;
      if (t.is(Tok::LParen)) ++depth;
      if (t.is(Tok::RParen)) --depth;
      out.push_back(get());
    }
    return out;
  }

  OmpClause parse_clause() {
    // Clause separators (commas between clauses) are permitted.
    while (peek().is(Tok::Comma)) get();
    const Token& t = peek();
    if (!(t.is(TokenKind::Identifier) || t.is(TokenKind::Keyword))) {
      fail("expected clause, got '" + display_text(t) + "'");
    }
    const std::string_view name = get().text;
    OmpClause c;

    auto var_list_clause = [&](OmpClauseKind kind) {
      c.kind = kind;
      expect(Tok::LParen);
      c.vars = parse_var_list();
      expect(Tok::RParen);
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
      if (peek().is(Tok::LParen)) {
        get();
        if (peek().is(TokenKind::IntLiteral)) c.int_arg = get().int_value;
        expect(Tok::RParen);
      }
      return c;
    }
    if (name == "reduction") {
      c.kind = OmpClauseKind::Reduction;
      expect(Tok::LParen);
      // Operator may span several punct tokens (&&, ||) or be an identifier
      // (min/max).
      std::string op;
      while (!peek().is(Tok::Colon)) {
        if (peek().is(TokenKind::End)) fail("unterminated reduction clause");
        op += display_text(get());
      }
      expect(Tok::Colon);
      c.arg = op;
      c.vars = parse_var_list();
      expect(Tok::RParen);
      return c;
    }
    if (name == "schedule") {
      c.kind = OmpClauseKind::Schedule;
      expect(Tok::LParen);
      if (!(peek().is(TokenKind::Identifier) || peek().is(TokenKind::Keyword))) {
        fail("expected schedule kind");
      }
      c.arg = get().text;
      if (peek().is(Tok::Comma)) {
        get();
        c.expr = parse_embedded_expr();
      }
      expect(Tok::RParen);
      return c;
    }
    if (name == "collapse" || name == "safelen" || name == "simdlen") {
      c.kind = name == "collapse" ? OmpClauseKind::Collapse
                                  : OmpClauseKind::Safelen;
      expect(Tok::LParen);
      if (!peek().is(TokenKind::IntLiteral)) fail("expected integer");
      c.int_arg = get().int_value;
      expect(Tok::RParen);
      return c;
    }
    if (name == "num_threads" || name == "if" || name == "device" ||
        name == "final" || name == "priority") {
      c.kind = name == "num_threads" ? OmpClauseKind::NumThreads
               : name == "device"    ? OmpClauseKind::Device
                                     : OmpClauseKind::If;
      expect(Tok::LParen);
      c.expr = parse_embedded_expr();
      expect(Tok::RParen);
      return c;
    }
    if (name == "depend") {
      c.kind = OmpClauseKind::Depend;
      expect(Tok::LParen);
      if (!(peek().is(TokenKind::Identifier) || peek().is(TokenKind::Keyword))) {
        fail("expected dependence type");
      }
      c.arg = get().text;
      expect(Tok::Colon);
      c.vars = parse_var_list();
      expect(Tok::RParen);
      return c;
    }
    if (name == "map") {
      c.kind = OmpClauseKind::Map;
      expect(Tok::LParen);
      // Optional map-type prefix.
      if ((peek().is(TokenKind::Identifier)) && peek(1).is(Tok::Colon)) {
        c.arg = get().text;
        get();  // ':'
      }
      c.vars = parse_var_list();
      expect(Tok::RParen);
      return c;
    }
    if (name == "default") {
      c.kind = OmpClauseKind::Default;
      expect(Tok::LParen);
      if (!(peek().is(TokenKind::Identifier) || peek().is(TokenKind::Keyword))) {
        fail("expected default kind");
      }
      c.arg = get().text;
      expect(Tok::RParen);
      return c;
    }
    fail("unknown clause '" + std::string(name) + "'");
  }

  /// Parses an expression argument inside a clause: a lone integer
  /// literal becomes an IntLit, a lone name an Ident, and anything else
  /// (`n + 1`, `n > 2`) goes through the C expression parser. Every node
  /// carries the pragma's location.
  ExprPtr parse_embedded_expr() {
    std::vector<Token> arg = capture_arg();
    if (arg.empty()) fail("empty clause expression");
    const std::string_view text = arg.front().text;
    if (arg.size() == 1 && !text.empty() &&
        text.find_first_not_of("0123456789") == std::string_view::npos) {
      auto lit = std::make_unique<IntLit>();
      try {
        lit->value = std::stoll(std::string(text));
      } catch (const std::out_of_range&) {
        fail("clause literal out of range: " + std::string(text));
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
    Token& end = arg.emplace_back();
    end.loc = loc_;
    return parse_clause_expr(std::move(arg), depth_);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  SourceLoc loc_;
  int depth_;
};

/// Parses a pragma's text (continuations included) into a directive whose
/// clause expressions sit `depth` levels down the tree.
OmpDirective parse_pragma(std::string_view text, SourceLoc loc, int depth) {
  if (text.find("\\\n") != std::string_view::npos) {
    const std::string joined = join_continuations(text);
    return OmpParser(lex(joined), loc, depth).parse();
  }
  return OmpParser(lex(text), loc, depth).parse();
}

// ---------------------------------------------------------------------------
// C parser
//
// The parser bounds the depth of the tree it returns by kMaxNestingDepth,
// so no later recursive pass can overflow the stack. `depth_` counts the
// levels above the construct being parsed; every expression parse leaves
// the height of the subtree it returned in `height_`. A bracket pair counts
// as a level although it makes no node. A child parse goes one level down
// (Nest), and a loop that wraps what it has built in a new node (`a + b
// + c`, `a[i][j]`, `x, y`) first checks that the deeper tree still fits.

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens, int depth = 0)
      : tokens_(std::move(tokens)), depth_(depth) {}

  std::unique_ptr<TranslationUnit> parse() {
    auto tu = std::make_unique<TranslationUnit>();
    while (!at_end()) {
      if (peek().is(TokenKind::Pragma)) {
        tu->global_directives.push_back(parse_directive(peek()));
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
    throw ParseError(msg + " (got '" + display_text(t) + "')", t.loc.line,
                     t.loc.col);
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

  bool accept(Tok code) {
    if (peek().is(code)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(Tok code) {
    if (!accept(code)) {
      fail(std::string("expected '") + punct_spelling(code) + "'");
    }
  }

  // -- nesting ----------------------------------------------------------------

  [[noreturn]] void fail_too_deep() const {
    fail("nesting deeper than " + std::to_string(kMaxNestingDepth) +
         " levels");
  }

  /// One level down for the parse of a child, checked at the current
  /// token: the child needs room for at least a leaf.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (p_.depth_ + 1 >= kMaxNestingDepth) p_.fail_too_deep();
      ++p_.depth_;
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  /// Before a loop wraps a subtree of `height` in a new node at the
  /// current depth: the subtree moves one level down.
  void check_wrap(int height) const {
    if (depth_ + height + 1 > kMaxNestingDepth) fail_too_deep();
  }

  OmpDirective parse_directive(const Token& pragma) {
    Nest clause_exprs(*this);
    return parse_pragma(pragma.text, pragma.loc, depth_);
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
    switch (t.code) {
      case Tok::KwVoid:
      case Tok::KwBool:
      case Tok::KwChar:
      case Tok::KwShort:
      case Tok::KwInt:
      case Tok::KwLong:
      case Tok::KwFloat:
      case Tok::KwDouble:
      case Tok::KwSigned:
      case Tok::KwUnsigned:
      case Tok::KwConst:
      case Tok::KwStatic:
      case Tok::KwVolatile:
      case Tok::KwExtern:
        return true;
      default:
        return is_named_type(t);
    }
  }

  Type parse_type_specifiers() {
    Type ty;
    bool have_base = false;
    // Sets the base kind from one keyword.
    const auto base = [&](TypeKind kind) {
      ty.kind = kind;
      get();
      have_base = true;
    };
    for (;;) {
      const Token& t = peek();
      if (is_named_type(t) && !have_base) {
        // Opaque named types are modelled as long integers.
        base(TypeKind::Long);
        continue;
      }
      const Tok code = t.code;
      if (code == Tok::KwConst || code == Tok::KwVolatile ||
          code == Tok::KwStatic || code == Tok::KwExtern) {
        if (code == Tok::KwConst) ty.is_const = true;
        get();
        continue;
      }
      if (code == Tok::KwUnsigned) {
        ty.is_unsigned = true;
        get();
        have_base = true;  // `unsigned` alone means unsigned int
        continue;
      }
      if (code == Tok::KwSigned) {
        get();
        have_base = true;
        continue;
      }
      if (code == Tok::KwVoid) { base(TypeKind::Void); continue; }
      if (code == Tok::KwBool) { base(TypeKind::Bool); continue; }
      if (code == Tok::KwChar) { base(TypeKind::Char); continue; }
      if (code == Tok::KwShort) { base(TypeKind::Short); continue; }
      if (code == Tok::KwInt) {
        if (ty.kind != TypeKind::Long && ty.kind != TypeKind::Short) {
          ty.kind = TypeKind::Int;
        }
        get();
        have_base = true;
        continue;
      }
      if (code == Tok::KwLong) {
        base(TypeKind::Long);
        // `long long` / `long double`
        accept(Tok::KwLong);
        if (accept(Tok::KwDouble)) ty.kind = TypeKind::Double;
        continue;
      }
      if (code == Tok::KwFloat) { base(TypeKind::Float); continue; }
      if (code == Tok::KwDouble) { base(TypeKind::Double); continue; }
      break;
    }
    if (!have_base) fail("expected type");
    return ty;
  }

  // -- top level --------------------------------------------------------------

  void parse_top_level(TranslationUnit& tu) {
    if (!peek_is_type_start()) fail("expected declaration");
    Nest decl(*this);
    Type base = parse_type_specifiers();

    // First declarator decides function vs. variables.
    Type ty = base;
    while (accept(Tok::Star)) ++ty.pointer_depth;
    if (!peek().is(TokenKind::Identifier)) fail("expected identifier");
    const Token& name_tok = get();

    if (peek().is(Tok::LParen)) {
      tu.functions.push_back(parse_function_rest(ty, name_tok));
      return;
    }

    // Global variable declaration(s).
    auto first = finish_declarator(ty, name_tok);
    first->is_global = true;
    tu.globals.push_back(std::move(first));
    while (accept(Tok::Comma)) {
      Type ty2 = base;
      while (accept(Tok::Star)) ++ty2.pointer_depth;
      if (!peek().is(TokenKind::Identifier)) fail("expected identifier");
      const Token& name2 = get();
      auto d = finish_declarator(ty2, name2);
      d->is_global = true;
      tu.globals.push_back(std::move(d));
    }
    expect(Tok::Semi);
  }

  std::unique_ptr<VarDecl> finish_declarator(Type ty, const Token& name_tok) {
    auto d = std::make_unique<VarDecl>();
    d->type = ty;
    d->name = name_tok.text;
    d->loc = name_tok.loc;
    while (accept(Tok::LBracket)) {
      if (peek().is(Tok::RBracket)) {
        d->array_dims.push_back(nullptr);  // unsized: `char* argv[]`
      } else {
        Nest dim(*this);
        d->array_dims.push_back(parse_assign_expr());
      }
      expect(Tok::RBracket);
    }
    if (accept(Tok::Assign)) {
      Nest init(*this);
      if (peek().is(Tok::LBrace)) {
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
    expect(Tok::LBrace);
    if (!peek().is(Tok::RBrace)) {
      Nest elements(*this);
      for (;;) {
        if (peek().is(Tok::LBrace)) {
          call->args.push_back(parse_initializer_list());
        } else {
          call->args.push_back(parse_assign_expr());
        }
        if (!accept(Tok::Comma)) break;
        if (peek().is(Tok::RBrace)) break;  // trailing comma
      }
    }
    expect(Tok::RBrace);
    return call;
  }

  std::unique_ptr<FunctionDecl> parse_function_rest(Type ret,
                                                    const Token& name_tok) {
    auto fn = std::make_unique<FunctionDecl>();
    fn->return_type = ret;
    fn->name = name_tok.text;
    fn->loc = name_tok.loc;
    expect(Tok::LParen);
    if (!peek().is(Tok::RParen)) {
      if (peek().is(Tok::KwVoid) && peek(1).is(Tok::RParen)) {
        get();
      } else {
        Nest params(*this);
        for (;;) {
          Type pty = parse_type_specifiers();
          while (accept(Tok::Star)) ++pty.pointer_depth;
          if (!peek().is(TokenKind::Identifier)) fail("expected parameter name");
          const Token& pname = get();
          auto p = finish_declarator(pty, pname);
          p->is_param = true;
          // Array parameters decay to pointers.
          if (p->is_array()) {
            p->array_dims.clear();
            ++p->type.pointer_depth;
          }
          fn->params.push_back(std::move(p));
          if (!accept(Tok::Comma)) break;
        }
      }
    }
    expect(Tok::RParen);
    if (accept(Tok::Semi)) {
      fn->body = nullptr;  // prototype
      return fn;
    }
    Nest body(*this);
    fn->body = parse_compound();
    return fn;
  }

  // -- statements -------------------------------------------------------------

  /// A statement one level below the current one.
  StmtPtr child_statement() {
    Nest child(*this);
    return parse_statement();
  }

  /// An expression one level below the current statement.
  ExprPtr child_expr() {
    Nest child(*this);
    return parse_expr();
  }

  std::unique_ptr<CompoundStmt> parse_compound() {
    auto block = std::make_unique<CompoundStmt>();
    block->loc = peek().loc;
    expect(Tok::LBrace);
    while (!peek().is(Tok::RBrace)) {
      if (at_end()) fail("unterminated block");
      block->body.push_back(child_statement());
    }
    expect(Tok::RBrace);
    return block;
  }

  StmtPtr parse_statement() {
    const Token& t = peek();

    if (t.is(TokenKind::Pragma)) return parse_omp_statement();
    switch (t.code) {
      case Tok::LBrace:
        return parse_compound();
      case Tok::Semi: {
        auto s = std::make_unique<NullStmt>();
        s->loc = t.loc;
        get();
        return s;
      }
      case Tok::KwIf:
        return parse_if();
      case Tok::KwFor:
        return parse_for();
      case Tok::KwWhile:
        return parse_while();
      case Tok::KwDo:
        return parse_do();
      case Tok::KwReturn: {
        auto s = std::make_unique<ReturnStmt>();
        s->loc = t.loc;
        get();
        if (!peek().is(Tok::Semi)) s->value = child_expr();
        expect(Tok::Semi);
        return s;
      }
      case Tok::KwBreak: {
        auto s = std::make_unique<BreakStmt>();
        s->loc = t.loc;
        get();
        expect(Tok::Semi);
        return s;
      }
      case Tok::KwContinue: {
        auto s = std::make_unique<ContinueStmt>();
        s->loc = t.loc;
        get();
        expect(Tok::Semi);
        return s;
      }
      default:
        break;
    }
    if (peek_is_type_start()) return parse_decl_stmt();

    auto s = std::make_unique<ExprStmt>();
    s->loc = t.loc;
    s->expr = child_expr();
    expect(Tok::Semi);
    return s;
  }

  StmtPtr parse_decl_stmt() {
    auto s = std::make_unique<DeclStmt>();
    s->loc = peek().loc;
    Type base = parse_type_specifiers();
    Nest decls(*this);
    for (;;) {
      Type ty = base;
      while (accept(Tok::Star)) ++ty.pointer_depth;
      if (!peek().is(TokenKind::Identifier)) fail("expected identifier");
      const Token& name_tok = get();
      s->decls.push_back(finish_declarator(ty, name_tok));
      if (!accept(Tok::Comma)) break;
    }
    expect(Tok::Semi);
    return s;
  }

  StmtPtr parse_if() {
    auto s = std::make_unique<IfStmt>();
    s->loc = peek().loc;
    get();  // 'if'
    expect(Tok::LParen);
    s->cond = child_expr();
    expect(Tok::RParen);
    s->then_branch = child_statement();
    if (accept(Tok::KwElse)) s->else_branch = child_statement();
    return s;
  }

  StmtPtr parse_for() {
    auto s = std::make_unique<ForStmt>();
    s->loc = peek().loc;
    get();  // 'for'
    expect(Tok::LParen);
    {
      Nest init(*this);
      if (peek().is(Tok::Semi)) {
        auto n = std::make_unique<NullStmt>();
        n->loc = peek().loc;
        s->init = std::move(n);
        get();
      } else if (peek_is_type_start()) {
        s->init = parse_decl_stmt();
      } else {
        auto e = std::make_unique<ExprStmt>();
        e->loc = peek().loc;
        e->expr = child_expr();
        s->init = std::move(e);
        expect(Tok::Semi);
      }
    }
    if (!peek().is(Tok::Semi)) s->cond = child_expr();
    expect(Tok::Semi);
    if (!peek().is(Tok::RParen)) s->inc = child_expr();
    expect(Tok::RParen);
    s->body = child_statement();
    return s;
  }

  StmtPtr parse_while() {
    auto s = std::make_unique<WhileStmt>();
    s->loc = peek().loc;
    get();
    expect(Tok::LParen);
    s->cond = child_expr();
    expect(Tok::RParen);
    s->body = child_statement();
    return s;
  }

  StmtPtr parse_do() {
    auto s = std::make_unique<DoStmt>();
    s->loc = peek().loc;
    get();
    s->body = child_statement();
    if (!accept(Tok::KwWhile)) fail("expected 'while'");
    expect(Tok::LParen);
    s->cond = child_expr();
    expect(Tok::RParen);
    expect(Tok::Semi);
    return s;
  }

  StmtPtr parse_omp_statement() {
    const Token& pragma = get();
    auto s = std::make_unique<OmpStmt>();
    s->loc = pragma.loc;
    s->directive = parse_directive(pragma);
    switch (s->directive.kind) {
      case OmpDirectiveKind::Barrier:
      case OmpDirectiveKind::Taskwait:
      case OmpDirectiveKind::Flush:
      case OmpDirectiveKind::Threadprivate:
        s->body = nullptr;
        break;
      default:
        s->body = child_statement();
        break;
    }
    return s;
  }

  // -- expressions ------------------------------------------------------------
  //
  // Each function returns its subtree and leaves the subtree's height in
  // height_.

  ExprPtr parse_expr() {
    ExprPtr e = parse_assign_expr();
    int height = height_;
    while (peek().is(Tok::Comma)) {
      check_wrap(height);
      auto b = std::make_unique<Binary>();
      b->loc = peek().loc;
      get();
      b->op = BinaryOp::Comma;
      b->lhs = std::move(e);
      {
        Nest rhs(*this);
        b->rhs = parse_assign_expr();
      }
      height = 1 + std::max(height, height_);
      e = std::move(b);
    }
    height_ = height;
    return e;
  }

  ExprPtr parse_assign_expr() {
    ExprPtr lhs = parse_conditional();
    const Token& t = peek();
    AssignOp op;
    switch (t.code) {
      case Tok::Assign: op = AssignOp::Assign; break;
      case Tok::PlusAssign: op = AssignOp::Add; break;
      case Tok::MinusAssign: op = AssignOp::Sub; break;
      case Tok::StarAssign: op = AssignOp::Mul; break;
      case Tok::SlashAssign: op = AssignOp::Div; break;
      case Tok::PercentAssign: op = AssignOp::Mod; break;
      case Tok::ShlAssign: op = AssignOp::Shl; break;
      case Tok::ShrAssign: op = AssignOp::Shr; break;
      case Tok::AmpAssign: op = AssignOp::And; break;
      case Tok::PipeAssign: op = AssignOp::Or; break;
      case Tok::CaretAssign: op = AssignOp::Xor; break;
      default: return lhs;
    }

    const int target_height = height_;
    check_wrap(target_height);
    auto a = std::make_unique<Assign>();
    a->loc = t.loc;
    get();
    a->op = op;
    a->target = std::move(lhs);
    {
      Nest value(*this);
      a->value = parse_assign_expr();
    }
    height_ = 1 + std::max(target_height, height_);
    return a;
  }

  ExprPtr parse_conditional() {
    ExprPtr cond = parse_binary(0);
    if (!peek().is(Tok::Question)) return cond;
    int height = height_;
    check_wrap(height);
    auto c = std::make_unique<Conditional>();
    c->loc = peek().loc;
    get();
    c->cond = std::move(cond);
    Nest branches(*this);
    c->then_expr = parse_expr();
    height = std::max(height, height_);
    expect(Tok::Colon);
    c->else_expr = parse_assign_expr();
    height_ = 1 + std::max(height, height_);
    return c;
  }

  struct OpInfo {
    BinaryOp op = BinaryOp::Add;
    int prec = 0;  // 0: not a binary operator
  };

  [[nodiscard]] static OpInfo binary_op_info(Tok code) noexcept {
    switch (code) {
      case Tok::PipePipe: return {BinaryOp::LogicalOr, 1};
      case Tok::AmpAmp: return {BinaryOp::LogicalAnd, 2};
      case Tok::Pipe: return {BinaryOp::BitOr, 3};
      case Tok::Caret: return {BinaryOp::BitXor, 4};
      case Tok::Amp: return {BinaryOp::BitAnd, 5};
      case Tok::EqEq: return {BinaryOp::Eq, 6};
      case Tok::Ne: return {BinaryOp::Ne, 6};
      case Tok::Lt: return {BinaryOp::Lt, 7};
      case Tok::Gt: return {BinaryOp::Gt, 7};
      case Tok::Le: return {BinaryOp::Le, 7};
      case Tok::Ge: return {BinaryOp::Ge, 7};
      case Tok::Shl: return {BinaryOp::Shl, 8};
      case Tok::Shr: return {BinaryOp::Shr, 8};
      case Tok::Plus: return {BinaryOp::Add, 9};
      case Tok::Minus: return {BinaryOp::Sub, 9};
      case Tok::Star: return {BinaryOp::Mul, 10};
      case Tok::Slash: return {BinaryOp::Div, 10};
      case Tok::Percent: return {BinaryOp::Mod, 10};
      default: return {};
    }
  }

  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    int height = height_;
    for (;;) {
      const OpInfo info = binary_op_info(peek().code);
      if (info.prec == 0 || info.prec < min_prec) break;
      check_wrap(height);
      auto b = std::make_unique<Binary>();
      b->loc = peek().loc;
      get();
      b->op = info.op;
      b->lhs = std::move(lhs);
      {
        Nest rhs(*this);
        b->rhs = parse_binary(info.prec + 1);
      }
      height = 1 + std::max(height, height_);
      lhs = std::move(b);
    }
    height_ = height;
    return lhs;
  }

  ExprPtr parse_unary() {
    const Token& t = peek();
    auto make_unary = [&](UnaryOp op) {
      auto u = std::make_unique<Unary>();
      u->loc = t.loc;
      u->op = op;
      Nest operand(*this);
      get();
      u->operand = parse_unary();
      ++height_;
      return u;
    };
    switch (t.code) {
      case Tok::Minus: return make_unary(UnaryOp::Neg);
      case Tok::Plus: return make_unary(UnaryOp::Plus);
      case Tok::Bang: return make_unary(UnaryOp::Not);
      case Tok::Tilde: return make_unary(UnaryOp::BitNot);
      case Tok::PlusPlus: return make_unary(UnaryOp::PreInc);
      case Tok::MinusMinus: return make_unary(UnaryOp::PreDec);
      case Tok::Amp: return make_unary(UnaryOp::AddrOf);
      case Tok::Star: return make_unary(UnaryOp::Deref);
      case Tok::KwSizeof: {
        // sizeof(type) and sizeof(expr) both evaluate to a constant in our
        // subset; represent as a Call for the interpreter.
        get();
        auto call = std::make_unique<Call>();
        call->loc = t.loc;
        call->callee = "__sizeof";
        expect(Tok::LParen);
        Nest arg(*this);
        if (peek_is_type_start()) {
          Type ty = parse_type_specifiers();
          while (accept(Tok::Star)) ++ty.pointer_depth;
          auto lit = std::make_unique<StringLit>();
          lit->loc = t.loc;
          lit->value = type_to_string(ty);
          call->args.push_back(std::move(lit));
          height_ = 1;
        } else {
          call->args.push_back(parse_expr());
        }
        expect(Tok::RParen);
        ++height_;
        return call;
      }
      case Tok::LParen:
        // Cast: '(' type ')' unary. Unambiguous because the subset has no
        // typedefs: a type keyword after '(' can only be a cast.
        if (peek_is_type_start(1)) {
          auto c = std::make_unique<Cast>();
          c->loc = t.loc;
          Nest operand(*this);
          get();
          c->type = parse_type_specifiers();
          while (accept(Tok::Star)) ++c->type.pointer_depth;
          // Abstract array declarator in casts is not supported.
          expect(Tok::RParen);
          c->operand = parse_unary();
          ++height_;
          return c;
        }
        break;
      default:
        break;
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    int height = height_;
    for (;;) {
      const Token& t = peek();
      if (t.is(Tok::LBracket)) {
        check_wrap(height);
        auto s = std::make_unique<Subscript>();
        s->loc = t.loc;
        get();
        s->base = std::move(e);
        {
          Nest index(*this);
          s->index = parse_expr();
        }
        height = 1 + std::max(height, height_);
        expect(Tok::RBracket);
        e = std::move(s);
        continue;
      }
      if (t.is(Tok::PlusPlus) || t.is(Tok::MinusMinus)) {
        check_wrap(height);
        auto u = std::make_unique<Unary>();
        u->loc = t.loc;
        u->op = t.is(Tok::PlusPlus) ? UnaryOp::PostInc : UnaryOp::PostDec;
        get();
        u->operand = std::move(e);
        ++height;
        e = std::move(u);
        continue;
      }
      break;
    }
    height_ = height;
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
        height_ = 1;
        return e;
      }
      case TokenKind::FloatLiteral: {
        auto e = std::make_unique<FloatLit>();
        e->loc = t.loc;
        e->value = t.float_value;
        get();
        height_ = 1;
        return e;
      }
      case TokenKind::StringLiteral: {
        auto e = std::make_unique<StringLit>();
        e->loc = t.loc;
        e->value = t.string_value;
        get();
        height_ = 1;
        return e;
      }
      case TokenKind::CharLiteral: {
        auto e = std::make_unique<CharLit>();
        e->loc = t.loc;
        e->value = static_cast<char>(t.int_value);
        get();
        height_ = 1;
        return e;
      }
      case TokenKind::Identifier: {
        const Token& name = get();
        if (peek().is(Tok::LParen)) {
          auto call = std::make_unique<Call>();
          call->loc = name.loc;
          call->callee = name.text;
          get();  // '('
          int height = 0;
          if (!peek().is(Tok::RParen)) {
            Nest args(*this);
            for (;;) {
              call->args.push_back(parse_assign_expr());
              height = std::max(height, height_);
              if (!accept(Tok::Comma)) break;
            }
          }
          expect(Tok::RParen);
          height_ = height + 1;
          return call;
        }
        auto id = std::make_unique<Ident>();
        id->loc = name.loc;
        id->name = name.text;
        height_ = 1;
        return id;
      }
      case TokenKind::Punct:
        if (t.is(Tok::LParen)) {
          Nest inner(*this);
          get();
          ExprPtr e = parse_expr();
          expect(Tok::RParen);
          ++height_;  // the brackets count as a level
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
  int depth_ = 0;   // levels above the construct being parsed
  int height_ = 0;  // height of the expression last returned
};

ExprPtr parse_clause_expr(std::vector<Token> tokens, int depth) {
  return Parser(std::move(tokens), depth).parse_lone_expr();
}

}  // namespace

OmpDirective parse_omp_pragma(std::string_view pragma_text, SourceLoc loc) {
  return parse_pragma(pragma_text, loc, 1);
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
