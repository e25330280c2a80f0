// AST -> bytecode compiler for the Mini-C VM.
#pragma once

#include "minic/ast.hpp"
#include "runtime/bc/bc.hpp"

namespace drbml::runtime::bc {

/// Compiles every executable body of `tu` into a Module. The module
/// references AST nodes of `tu`; the unit must outlive it. The result is
/// NOT yet verified -- pass it through verify() (or use compile_verified)
/// before execution.
[[nodiscard]] Module compile(const minic::TranslationUnit& tu);

/// compile() + verify(); throws support Error if verification fails
/// (which would indicate a compiler bug). The returned module has
/// `verified == true` and is ready for run_program.
[[nodiscard]] Module compile_verified(const minic::TranslationUnit& tu);

}  // namespace drbml::runtime::bc
