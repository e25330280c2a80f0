// The OpenMP correctness linter: source text in, LintReport out.
//
// lint_source parses the program, resolves it and collects its parallel
// regions once, runs the static race detector over those regions, then
// the six checks of lint/checks.hpp in order. It sorts the diagnostics by
// location and applies `// drbml-lint-suppress(check-id)` comment
// suppression (comma-separated ids, or `all`).
//
// A suppression comment covers the trimmed-code line it lives on; a
// comment-only line (dropped by the stripper) covers the next surviving
// line, so annotations can sit above the offending statement.
#pragma once

#include <string_view>

#include "lint/diagnostic.hpp"
#include "lint/emit.hpp"

namespace drbml::lint {

/// Parses and lints one program. Throws ParseError on malformed input.
[[nodiscard]] LintReport lint_source(std::string_view source);

}  // namespace drbml::lint
