// Recursive-descent parser for the Mini-C + OpenMP subset.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "minic/ast.hpp"
#include "minic/token.hpp"

namespace drbml::minic {

/// Cap on the depth of the tree the parser returns, so hostile nesting is
/// a ParseError instead of a stack overflow in the parser or in any later
/// pass that recurses over the tree (resolve, region collection, constant
/// folding, expr_to_string, bytecode compile, lint, repair, the AST
/// destructors). A level is a statement, a node of an expression, or a
/// bracket pair: bracket and statement nesting, unary and cast chains,
/// and left-deep binary, comma, subscript and postfix chains all count.
/// The token at which the tree would pass the cap gets the error.
///
/// Measured with GCC 12 on x86-64 Linux, parsing a program and running
/// every one of those passes over it on an 8 MiB stack overflows at about
/// 18,000 levels of parentheses and 29,000 of unary minuses or sum terms
/// in a release build; under AddressSanitizer at about 1,350 levels of
/// parentheses (the parser itself), 1,600 of blocks, 1,900 of unary,
/// cast, sum, assignment or else-if chains (the bytecode compiler) and
/// 3,400 of subscripts. The deepest tree in the corpus needs 17 levels, in
/// the golden synth kernels 12. A flat sum of up to 496 terms parses.
inline constexpr int kMaxNestingDepth = 500;

/// Parses a token stream into a translation unit. Throws ParseError. The
/// source the tokens view must stay alive during the call.
[[nodiscard]] std::unique_ptr<TranslationUnit> parse_tokens(
    std::vector<Token> tokens);

/// Convenience pipeline: strips comments, lexes the trimmed text (so all
/// AST locations are in trimmed-code coordinates), and parses.
[[nodiscard]] Program parse_program(std::string_view source);

/// Parses the text of a single `#pragma` (everything after `#pragma`),
/// e.g. " omp parallel for private(i)". Used by the parser itself and by
/// tests. `loc` is the location of the pragma line.
[[nodiscard]] OmpDirective parse_omp_pragma(std::string_view pragma_text,
                                            SourceLoc loc);

}  // namespace drbml::minic
