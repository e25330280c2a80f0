#include "repair/patch.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "support/error.hpp"

namespace drbml::repair {

namespace {

using namespace minic;

// ---------------------------------------------------------------------------
// AST walking

void visit_expr(const Expr* e, const std::function<void(const Expr&)>& f) {
  if (e == nullptr) return;
  f(*e);
  switch (e->kind) {
    case ExprKind::Subscript: {
      const auto& s = static_cast<const Subscript&>(*e);
      visit_expr(s.base.get(), f);
      visit_expr(s.index.get(), f);
      break;
    }
    case ExprKind::Unary:
      visit_expr(static_cast<const Unary&>(*e).operand.get(), f);
      break;
    case ExprKind::Binary: {
      const auto& b = static_cast<const Binary&>(*e);
      visit_expr(b.lhs.get(), f);
      visit_expr(b.rhs.get(), f);
      break;
    }
    case ExprKind::Assign: {
      const auto& a = static_cast<const Assign&>(*e);
      visit_expr(a.target.get(), f);
      visit_expr(a.value.get(), f);
      break;
    }
    case ExprKind::Conditional: {
      const auto& c = static_cast<const Conditional&>(*e);
      visit_expr(c.cond.get(), f);
      visit_expr(c.then_expr.get(), f);
      visit_expr(c.else_expr.get(), f);
      break;
    }
    case ExprKind::Call:
      for (const auto& a : static_cast<const Call&>(*e).args) {
        visit_expr(a.get(), f);
      }
      break;
    case ExprKind::Cast:
      visit_expr(static_cast<const Cast&>(*e).operand.get(), f);
      break;
    default:
      break;
  }
}

/// Visits the expressions attached *directly* to `s` (not those of child
/// statements).
void visit_stmt_exprs(const Stmt& s, const std::function<void(const Expr&)>& f) {
  switch (s.kind) {
    case StmtKind::Decl:
      for (const auto& d : static_cast<const DeclStmt&>(s).decls) {
        for (const auto& dim : d->array_dims) visit_expr(dim.get(), f);
        visit_expr(d->init.get(), f);
      }
      break;
    case StmtKind::Expr:
      visit_expr(static_cast<const ExprStmt&>(s).expr.get(), f);
      break;
    case StmtKind::If:
      visit_expr(static_cast<const IfStmt&>(s).cond.get(), f);
      break;
    case StmtKind::For: {
      const auto& l = static_cast<const ForStmt&>(s);
      visit_expr(l.cond.get(), f);
      visit_expr(l.inc.get(), f);
      break;
    }
    case StmtKind::While:
      visit_expr(static_cast<const WhileStmt&>(s).cond.get(), f);
      break;
    case StmtKind::Do:
      visit_expr(static_cast<const DoStmt&>(s).cond.get(), f);
      break;
    case StmtKind::Return:
      visit_expr(static_cast<const ReturnStmt&>(s).value.get(), f);
      break;
    default:
      break;
  }
}

/// Calls `f` on every direct child statement slot of `s`; stops early when
/// `f` returns true.
bool for_child_slots(Stmt& s, const std::function<bool(StmtPtr&)>& f) {
  switch (s.kind) {
    case StmtKind::Compound:
      for (auto& c : static_cast<CompoundStmt&>(s).body) {
        if (f(c)) return true;
      }
      break;
    case StmtKind::If: {
      auto& i = static_cast<IfStmt&>(s);
      if (f(i.then_branch)) return true;
      if (i.else_branch && f(i.else_branch)) return true;
      break;
    }
    case StmtKind::For: {
      auto& l = static_cast<ForStmt&>(s);
      if (l.init && f(l.init)) return true;
      if (f(l.body)) return true;
      break;
    }
    case StmtKind::While:
      if (f(static_cast<WhileStmt&>(s).body)) return true;
      break;
    case StmtKind::Do:
      if (f(static_cast<DoStmt&>(s).body)) return true;
      break;
    case StmtKind::Omp: {
      auto& o = static_cast<OmpStmt&>(s);
      if (o.body && f(o.body)) return true;
      break;
    }
    default:
      break;
  }
  return false;
}

bool walk_slot(StmtPtr& slot, const std::function<bool(StmtPtr&)>& f) {
  if (!slot) return false;
  if (f(slot)) return true;
  return for_child_slots(*slot,
                         [&](StmtPtr& c) { return walk_slot(c, f); });
}

bool walk_unit(TranslationUnit& tu, const std::function<bool(StmtPtr&)>& f) {
  for (auto& fn : tu.functions) {
    if (!fn->body) continue;
    for (auto& c : fn->body->body) {
      if (walk_slot(c, f)) return true;
    }
  }
  return false;
}

/// The slot holding the statement whose own loc is `anchor`.
StmtPtr* find_slot(TranslationUnit& tu, SourceLoc anchor) {
  StmtPtr* hit = nullptr;
  walk_unit(tu, [&](StmtPtr& slot) {
    if (slot->loc == anchor) {
      hit = &slot;
      return true;
    }
    return false;
  });
  return hit;
}

/// The OmpStmt whose directive loc is `anchor`.
OmpStmt* find_directive(TranslationUnit& tu, SourceLoc anchor) {
  OmpStmt* hit = nullptr;
  walk_unit(tu, [&](StmtPtr& slot) {
    if (auto* omp = stmt_cast<OmpStmt>(slot.get());
        omp != nullptr && omp->directive.loc == anchor) {
      hit = omp;
      return true;
    }
    return false;
  });
  return hit;
}

/// The compound statement (function bodies included) directly holding the
/// statement at `anchor`, plus its index in the body vector.
struct CompoundPos {
  CompoundStmt* compound = nullptr;
  std::size_t index = 0;
};

CompoundPos find_compound_pos(TranslationUnit& tu, SourceLoc anchor) {
  CompoundPos pos;
  auto scan = [&](CompoundStmt& c) {
    for (std::size_t i = 0; i < c.body.size(); ++i) {
      if (c.body[i] && c.body[i]->loc == anchor) {
        pos.compound = &c;
        pos.index = i;
        return true;
      }
    }
    return false;
  };
  for (auto& fn : tu.functions) {
    if (!fn->body) continue;
    if (scan(*fn->body)) return pos;
  }
  walk_unit(tu, [&](StmtPtr& slot) {
    if (auto* c = stmt_cast<CompoundStmt>(slot.get())) return scan(*c);
    return false;
  });
  return pos;
}

bool chain_walk(Stmt* s, SourceLoc loc, std::vector<Stmt*>& chain) {
  chain.push_back(s);
  const bool in_child = for_child_slots(*s, [&](StmtPtr& c) {
    return c && chain_walk(c.get(), loc, chain);
  });
  if (in_child) return true;
  bool hit = (s->loc == loc);
  if (!hit) {
    visit_stmt_exprs(*s, [&](const Expr& e) {
      if (e.loc == loc) hit = true;
    });
  }
  if (hit) return true;
  chain.pop_back();
  return false;
}

// ---------------------------------------------------------------------------
// Textual operations

struct TextOp {
  enum Type { InsertAfter = 0, Replace = 1, Delete = 2, InsertBefore = 3 };
  int line = 0;  // 1-based original line the op targets
  Type type = Replace;
  std::string text;
};

std::string indent_of(const std::string& line) {
  std::size_t i = 0;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  return line.substr(0, i);
}

/// Trailing comment of a pragma line ("" if none). Pragma lines cannot
/// contain string literals, so a plain substring search is exact.
std::string trailing_comment(const std::string& line) {
  const std::size_t sl = line.find("//");
  const std::size_t bl = line.find("/*");
  const std::size_t pos = std::min(sl, bl);
  if (pos == std::string::npos) return "";
  return line.substr(pos);
}

std::string loc_str(SourceLoc loc) {
  return std::to_string(loc.line) + ":" + std::to_string(loc.col);
}

/// Strips `vars` out of the other data-sharing clause lists of `d` so an
/// added clause never conflicts with an existing classification; clauses
/// whose variable list empties out are dropped.
void strip_sharing_conflicts(OmpDirective& d,
                             const std::vector<std::string>& vars,
                             OmpClauseKind keep) {
  auto is_sharing = [](OmpClauseKind k) {
    return k == OmpClauseKind::Private || k == OmpClauseKind::FirstPrivate ||
           k == OmpClauseKind::LastPrivate || k == OmpClauseKind::Shared ||
           k == OmpClauseKind::Reduction || k == OmpClauseKind::Linear;
  };
  for (auto& c : d.clauses) {
    if (!is_sharing(c.kind) || c.kind == keep) continue;
    std::erase_if(c.vars, [&](const std::string& v) {
      return std::find(vars.begin(), vars.end(), v) != vars.end();
    });
  }
  std::erase_if(d.clauses, [&](const OmpClause& c) {
    return is_sharing(c.kind) && c.vars.empty();
  });
}

}  // namespace

const char* edit_kind_name(EditKind k) noexcept {
  switch (k) {
    case EditKind::AddClause: return "add-clause";
    case EditKind::RemoveClause: return "remove-clause";
    case EditKind::SetCriticalName: return "set-critical-name";
    case EditKind::DemoteSimd: return "demote-simd";
    case EditKind::WrapStmt: return "wrap-stmt";
    case EditKind::WrapLock: return "wrap-lock";
    case EditKind::InsertPragmaBefore: return "insert-pragma";
  }
  return "?";
}

namespace {

int apply_events(const std::vector<LineMap::Event>& events,
                 const std::vector<int>& dropped, int line) noexcept {
  if (std::find(dropped.begin(), dropped.end(), line) != dropped.end()) {
    return 0;
  }
  int out = line;
  for (const auto& ev : events) {
    if (ev.line <= line) out += ev.delta;
  }
  return out;
}

}  // namespace

int LineMap::to_patched_trimmed(int line) const noexcept {
  return apply_events(trimmed_events, dropped_trimmed, line);
}

int LineMap::to_patched_original(int line) const noexcept {
  return apply_events(original_events, dropped_original, line);
}

std::vector<Stmt*> stmt_chain_at(TranslationUnit& tu, SourceLoc loc) {
  std::vector<Stmt*> chain;
  for (auto& fn : tu.functions) {
    if (!fn->body) continue;
    if (chain_walk(fn->body.get(), loc, chain)) return chain;
    chain.clear();
  }
  return chain;
}

OmpStmt* enclosing_region(const std::vector<Stmt*>& chain) noexcept {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (auto* omp = stmt_cast<OmpStmt>(*it)) {
      if (omp->directive.forks_team() ||
          omp->directive.is_worksharing_loop()) {
        return omp;
      }
    }
  }
  return nullptr;
}

int subtree_first_line(const Stmt& s) {
  int best = 0;
  auto note = [&](SourceLoc loc) {
    if (loc.valid() && (best == 0 || loc.line < best)) best = loc.line;
  };
  std::function<void(const Stmt&)> walk = [&](const Stmt& st) {
    note(st.loc);
    visit_stmt_exprs(st, [&](const Expr& e) { note(e.loc); });
    for_child_slots(const_cast<Stmt&>(st), [&](StmtPtr& c) {
      if (c) walk(*c);
      return false;
    });
  };
  walk(s);
  return best;
}

int subtree_last_line(const Stmt& s) {
  int best = 0;
  auto note = [&](SourceLoc loc) {
    if (loc.valid() && loc.line > best) best = loc.line;
  };
  std::function<void(const Stmt&)> walk = [&](const Stmt& st) {
    note(st.loc);
    visit_stmt_exprs(st, [&](const Expr& e) { note(e.loc); });
    for_child_slots(const_cast<Stmt&>(st), [&](StmtPtr& c) {
      if (c) walk(*c);
      return false;
    });
  };
  walk(s);
  return best;
}

namespace {

/// Earliest (line, col) of any node in the subtree -- the point the
/// statement's text starts at, in trimmed coordinates.
SourceLoc subtree_first_loc(const Stmt& s) {
  SourceLoc best;
  auto note = [&](SourceLoc loc) {
    if (!loc.valid()) return;
    if (!best.valid() || loc.line < best.line ||
        (loc.line == best.line && loc.col < best.col)) {
      best = loc;
    }
  };
  std::function<void(const Stmt&)> walk = [&](const Stmt& st) {
    note(st.loc);
    visit_stmt_exprs(st, [&](const Expr& e) { note(e.loc); });
    for_child_slots(const_cast<Stmt&>(st), [&](StmtPtr& c) {
      if (c) walk(*c);
      return false;
    });
  };
  walk(s);
  return best;
}

}  // namespace

ApplyResult apply_patch(const std::string& source, const Patch& patch) {
  ApplyResult r;
  if (patch.edits.empty()) {
    r.message = "empty patch";
    return r;
  }

  Program prog;
  try {
    prog = parse_program(source);
  } catch (const Error& e) {
    r.message = std::string("parse failed: ") + e.what();
    return r;
  }

  // Original text as lines (without terminators).
  std::vector<std::string> lines;
  {
    std::size_t start = 0;
    while (start <= source.size()) {
      const std::size_t nl = source.find('\n', start);
      if (nl == std::string::npos) {
        if (start < source.size()) lines.push_back(source.substr(start));
        break;
      }
      lines.push_back(source.substr(start, nl - start));
      start = nl + 1;
    }
  }

  // Inverse of the strip map: trimmed line -> original line.
  std::vector<int> orig_of(1, 0);
  for (int o = 1; o <= static_cast<int>(lines.size()); ++o) {
    const int t = prog.strip.to_trimmed_line(o);
    if (t <= 0) continue;
    if (static_cast<int>(orig_of.size()) <= t) orig_of.resize(t + 1, 0);
    orig_of[t] = o;
  }
  auto orig_line_of = [&](SourceLoc loc) -> int {
    if (loc.line <= 0 || loc.line >= static_cast<int>(orig_of.size())) return 0;
    return orig_of[loc.line];
  };
  auto line_text = [&](int o) -> const std::string& { return lines[o - 1]; };

  // Trimmed line text, for locating a statement's column within a line.
  std::vector<std::string> trimmed_lines;
  {
    std::size_t start = 0;
    const std::string& t = prog.strip.trimmed;
    while (start <= t.size()) {
      const std::size_t nl = t.find('\n', start);
      if (nl == std::string::npos) {
        if (start < t.size()) trimmed_lines.push_back(t.substr(start));
        break;
      }
      trimmed_lines.push_back(t.substr(start, nl - start));
      start = nl + 1;
    }
  }

  // Inserting *before* a line hops above any immediately preceding
  // comment/blank lines (lines the stripper dropped), so a
  // `// drbml-lint-suppress(id)` comment stays adjacent to the statement
  // it suppresses rather than ending up covering the inserted pragma.
  auto hop_before = [&](int o) {
    while (o > 1 && prog.strip.to_trimmed_line(o - 1) == 0) --o;
    return o;
  };

  std::vector<TextOp> ops;
  LineMap lm;
  auto insert_after = [&](int orig, int trimmed, std::string text) {
    ops.push_back({orig, TextOp::InsertAfter, std::move(text)});
    lm.trimmed_events.push_back({trimmed + 1, +1});
    lm.original_events.push_back({orig + 1, +1});
  };

  // Where (0-based) the code at trimmed position `loc` starts inside its
  // original line, or npos when it cannot be located.
  auto col_in_original = [&](SourceLoc loc, int orig) -> std::size_t {
    if (loc.line <= 0 || loc.line > static_cast<int>(trimmed_lines.size())) {
      return std::string::npos;
    }
    const std::string& tl = trimmed_lines[static_cast<std::size_t>(loc.line - 1)];
    if (loc.col <= 0 || loc.col > static_cast<int>(tl.size())) {
      return std::string::npos;
    }
    const std::string& ol = line_text(orig);
    // No comments stripped before the statement: columns map 1:1.
    const std::string before = tl.substr(0, static_cast<std::size_t>(loc.col - 1));
    if (ol.compare(0, before.size(), before) == 0) {
      return before.size();
    }
    // Otherwise locate the statement's text within the original line.
    return ol.find(tl.substr(static_cast<std::size_t>(loc.col - 1)));
  };

  // Places `block` (a pragma, possibly followed by an opening brace) on
  // its own lines above the statement starting at trimmed `loc`. When the
  // statement does not start its line (e.g. the body of a one-liner
  // `{ x = x + 1; }`), the line is split so the pragma binds to exactly
  // that statement. Ops inserting at the same index land above earlier
  // ones, so both paths push `block` in reverse to keep its order.
  auto pragma_before_stmt = [&](SourceLoc loc,
                                const std::vector<std::string>& block,
                                std::string* err) {
    const int o = orig_line_of(loc);
    if (o == 0) {
      *err = "statement has no original line";
      return false;
    }
    const std::string& ol = line_text(o);
    const std::size_t col = col_in_original(loc, o);
    if (col == std::string::npos) {
      *err = "statement not locatable in its original line";
      return false;
    }
    const std::string indent = indent_of(ol);
    std::string prefix = ol.substr(0, col);
    if (prefix.find_first_not_of(" \t") == std::string::npos) {
      const int at = hop_before(o);
      for (auto it = block.rbegin(); it != block.rend(); ++it) {
        ops.push_back({at, TextOp::InsertBefore, indent + *it});
      }
      const int n = static_cast<int>(block.size());
      lm.trimmed_events.push_back({loc.line, n});
      lm.original_events.push_back({at, n});
      return true;
    }
    // Split: prefix stays, the block and the statement move to new lines.
    while (!prefix.empty() &&
           (prefix.back() == ' ' || prefix.back() == '\t')) {
      prefix.pop_back();
    }
    ops.push_back({o, TextOp::Replace, std::move(prefix)});
    ops.push_back({o, TextOp::InsertAfter, indent + ol.substr(col)});
    for (auto it = block.rbegin(); it != block.rend(); ++it) {
      ops.push_back({o, TextOp::InsertAfter, indent + *it});
    }
    const int n = static_cast<int>(block.size()) + 1;
    lm.trimmed_events.push_back({loc.line, n});
    lm.original_events.push_back({o, n});
    return true;
  };

  TranslationUnit& tu = *prog.unit;

  for (const Edit& e : patch.edits) {
    auto fail = [&](const std::string& why) {
      r.message = std::string(edit_kind_name(e.kind)) + "@" +
                  loc_str(e.anchor) + ": " + why;
    };
    switch (e.kind) {
      case EditKind::AddClause:
      case EditKind::RemoveClause:
      case EditKind::SetCriticalName:
      case EditKind::DemoteSimd: {
        OmpStmt* omp = find_directive(tu, e.anchor);
        if (omp == nullptr) {
          fail("no directive at anchor");
          return r;
        }
        const int o = orig_line_of(omp->directive.loc);
        if (o == 0 || line_text(o).find("#pragma") == std::string::npos) {
          fail("anchor line is not a pragma line");
          return r;
        }
        OmpDirective& d = omp->directive;
        if (e.kind == EditKind::AddClause) {
          strip_sharing_conflicts(d, e.clause_vars, e.clause_kind);
          OmpClause clause;
          clause.kind = e.clause_kind;
          clause.vars = e.clause_vars;
          clause.arg = e.clause_arg;
          d.clauses.push_back(std::move(clause));
        } else if (e.kind == EditKind::RemoveClause) {
          const std::size_t before = d.clauses.size();
          std::erase_if(d.clauses, [&](const OmpClause& c) {
            return c.kind == e.clause_kind;
          });
          if (d.clauses.size() == before) {
            fail("directive has no such clause");
            return r;
          }
        } else if (e.kind == EditKind::SetCriticalName) {
          if (d.kind != OmpDirectiveKind::Critical) {
            fail("not a critical directive");
            return r;
          }
          d.critical_name = e.name;
        } else {  // DemoteSimd
          std::erase_if(d.clauses, [](const OmpClause& c) {
            return c.kind == OmpClauseKind::Safelen ||
                   c.kind == OmpClauseKind::Linear;
          });
          if (d.kind == OmpDirectiveKind::ForSimd) {
            d.kind = OmpDirectiveKind::For;
          } else if (d.kind == OmpDirectiveKind::ParallelForSimd) {
            d.kind = OmpDirectiveKind::ParallelFor;
          } else if (d.kind == OmpDirectiveKind::Simd) {
            // A bare `simd` demotes to a plain sequential loop: the pragma
            // line disappears and the loop replaces the OmpStmt.
            StmtPtr* slot = nullptr;
            walk_unit(tu, [&](StmtPtr& s) {
              if (s.get() == static_cast<Stmt*>(omp)) {
                slot = &s;
                return true;
              }
              return false;
            });
            if (slot == nullptr || !omp->body) {
              fail("simd statement not replaceable");
              return r;
            }
            StmtPtr body = std::move(omp->body);
            *slot = std::move(body);
            ops.push_back({o, TextOp::Delete, ""});
            lm.dropped_trimmed.push_back(e.anchor.line);
            lm.dropped_original.push_back(o);
            lm.trimmed_events.push_back({e.anchor.line + 1, -1});
            lm.original_events.push_back({o + 1, -1});
            break;
          } else {
            fail("not a simd directive");
            return r;
          }
        }
        if (e.kind != EditKind::DemoteSimd ||
            (d.kind != OmpDirectiveKind::Simd)) {
          std::string text = indent_of(line_text(o)) + directive_to_string(d);
          const std::string comment = trailing_comment(line_text(o));
          if (!comment.empty()) text += " " + comment;
          ops.push_back({o, TextOp::Replace, std::move(text)});
        }
        break;
      }
      case EditKind::WrapStmt: {
        StmtPtr* slot = find_slot(tu, e.anchor);
        if (slot == nullptr) {
          fail("no statement at anchor");
          return r;
        }
        auto omp = std::make_unique<OmpStmt>();
        omp->directive.kind = e.directive_kind;
        if (e.directive_kind == OmpDirectiveKind::Critical) {
          omp->directive.critical_name = e.name;
        }
        const std::string pragma = directive_to_string(omp->directive);
        std::string err;
        if (auto* compound = stmt_cast<CompoundStmt>(slot->get())) {
          // Wrapping a block (e.g. a loop body whose `{` shares the `for`
          // line): wrap its *children* in a fresh block instead, so the
          // pragma and braces land on clean lines of their own.
          if (compound->body.empty()) {
            fail("cannot wrap an empty block");
            return r;
          }
          const SourceLoc floc = subtree_first_loc(*compound->body.front());
          const int last = subtree_last_line(*compound->body.back());
          const int ol = orig_line_of({last, 1});
          if (ol == 0) {
            fail("statement has no original lines");
            return r;
          }
          const std::string indent = indent_of(line_text(orig_line_of(floc)));
          if (!pragma_before_stmt(floc, {pragma, "{"}, &err)) {
            fail(err);
            return r;
          }
          insert_after(ol, last, indent + "}");
          auto inner = std::make_unique<CompoundStmt>();
          inner->body = std::move(compound->body);
          omp->body = std::move(inner);
          compound->body.clear();
          compound->body.push_back(std::move(omp));
        } else {
          const SourceLoc floc = subtree_first_loc(**slot);
          if (!pragma_before_stmt(floc, {pragma}, &err)) {
            fail(err);
            return r;
          }
          omp->body = std::move(*slot);
          *slot = std::move(omp);
        }
        break;
      }
      case EditKind::WrapLock: {
        const CompoundPos pos = find_compound_pos(tu, e.anchor);
        if (pos.compound == nullptr) {
          fail("statement is not a direct child of a block");
          return r;
        }
        Stmt& target = *pos.compound->body[pos.index];
        const SourceLoc floc = subtree_first_loc(target);
        const int last = subtree_last_line(target);
        const int of = orig_line_of(floc);
        const int ol = orig_line_of({last, 1});
        if (of == 0 || ol == 0) {
          fail("statement has no original lines");
          return r;
        }
        auto make_call = [&](const char* fn) {
          auto call = std::make_unique<Call>();
          call->callee = fn;
          auto ident = std::make_unique<Ident>();
          ident->name = e.name;
          auto addr = std::make_unique<Unary>();
          addr->op = UnaryOp::AddrOf;
          addr->operand = std::move(ident);
          call->args.push_back(std::move(addr));
          auto stmt = std::make_unique<ExprStmt>();
          stmt->expr = std::move(call);
          return stmt;
        };
        const std::string indent = indent_of(line_text(of));
        std::string err;
        if (!pragma_before_stmt(floc, {"omp_set_lock(&" + e.name + ");"},
                                &err)) {
          fail(err);
          return r;
        }
        insert_after(ol, last, indent + "omp_unset_lock(&" + e.name + ");");
        pos.compound->body.insert(
            pos.compound->body.begin() +
                static_cast<std::ptrdiff_t>(pos.index + 1),
            make_call("omp_unset_lock"));
        pos.compound->body.insert(
            pos.compound->body.begin() +
                static_cast<std::ptrdiff_t>(pos.index),
            make_call("omp_set_lock"));
        break;
      }
      case EditKind::InsertPragmaBefore: {
        const CompoundPos pos = find_compound_pos(tu, e.anchor);
        if (pos.compound == nullptr) {
          fail("statement is not a direct child of a block");
          return r;
        }
        Stmt& target = *pos.compound->body[pos.index];
        auto omp = std::make_unique<OmpStmt>();
        omp->directive.kind = e.directive_kind;
        std::string err;
        if (!pragma_before_stmt(subtree_first_loc(target),
                                {directive_to_string(omp->directive)},
                                &err)) {
          fail(err);
          return r;
        }
        pos.compound->body.insert(
            pos.compound->body.begin() +
                static_cast<std::ptrdiff_t>(pos.index),
            std::move(omp));
        break;
      }
    }
  }

  // Later lines first, so earlier op positions stay valid. Ties: append
  // after the line, then rewrite/delete it, then prepend before it.
  std::stable_sort(ops.begin(), ops.end(), [](const TextOp& a, const TextOp& b) {
    if (a.line != b.line) return a.line > b.line;
    return a.type < b.type;
  });
  for (const TextOp& op : ops) {
    const auto idx = static_cast<std::ptrdiff_t>(op.line);
    switch (op.type) {
      case TextOp::InsertAfter:
        lines.insert(lines.begin() + idx, op.text);
        break;
      case TextOp::Replace:
        lines[static_cast<std::size_t>(op.line - 1)] = op.text;
        break;
      case TextOp::Delete:
        lines.erase(lines.begin() + (idx - 1));
        break;
      case TextOp::InsertBefore:
        lines.insert(lines.begin() + (idx - 1), op.text);
        break;
    }
  }

  std::string patched;
  for (const auto& l : lines) {
    patched += l;
    patched += '\n';
  }
  if (!source.empty() && source.back() != '\n' && !patched.empty()) {
    patched.pop_back();
  }

  // Consistency gate: the textual route must parse to exactly the mutated
  // AST's canonical form, or the patch is rejected outright.
  std::string reparsed_form;
  try {
    const Program check = parse_program(patched);
    reparsed_form = unit_to_string(*check.unit);
  } catch (const Error& e) {
    r.message = std::string("patched text does not parse: ") + e.what();
    return r;
  }
  const std::string mutated_form = unit_to_string(tu);
  if (reparsed_form != mutated_form) {
    r.message = "textual and AST routes disagree";
    return r;
  }

  r.ok = true;
  r.patched = std::move(patched);
  r.line_map = std::move(lm);
  return r;
}

}  // namespace drbml::repair
