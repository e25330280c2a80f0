// Metamorphic tests for the explored dynamic detector: race-preserving
// source mutations (identifier renaming, loop-bound literal padding,
// swapping adjacent independent declarations) must not flip the
// exploration verdict on synthesized kernels.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "drb/synth.hpp"
#include "explore/explore.hpp"
#include "support/parallel.hpp"

namespace drbml::explore {
namespace {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Word-boundary rename of `name` to `name + suffix`. The synthesized
/// kernels only put format directives inside string literals, so a
/// boundary check on the surrounding characters is sufficient.
std::string rename_identifier(const std::string& src, const std::string& name,
                              const std::string& suffix) {
  std::string out;
  std::size_t i = 0;
  while (i < src.size()) {
    const bool boundary_before = i == 0 || !is_word(src[i - 1]);
    if (boundary_before && src.compare(i, name.size(), name) == 0 &&
        (i + name.size() == src.size() || !is_word(src[i + name.size()]))) {
      out += name + suffix;
      i += name.size();
    } else {
      out += src[i++];
    }
  }
  return out;
}

std::string mutate_rename(const std::string& src) {
  // The synth identifier pools, plus the fixed names some templates use.
  static const char* kNames[] = {"a",    "buf",   "vec",  "dataa", "cells",
                                 "wk",   "acc",   "total", "tally", "agg",
                                 "summ", "i",     "k",     "idx0",  "it",
                                 "outt", "scratch"};
  std::string out = src;
  for (const char* name : kNames) {
    out = rename_identifier(out, name, "_mm");
  }
  return out;
}

/// Pads every literal `for` bound `< N;` / `< N)` into `< (N + 0)` --
/// same trip count, extra constant arithmetic shifting the step stream.
std::string mutate_pad_bounds(const std::string& src) {
  std::string out;
  std::size_t i = 0;
  while (i < src.size()) {
    if (src[i] == '<' && i + 1 < src.size() && src[i + 1] == ' ' &&
        std::isdigit(static_cast<unsigned char>(src[i + 2]))) {
      std::size_t j = i + 2;
      while (j < src.size() &&
             std::isdigit(static_cast<unsigned char>(src[j]))) {
        ++j;
      }
      if (j < src.size() && (src[j] == ';' || src[j] == ')')) {
        out += "< (" + src.substr(i + 2, j - i - 2) + " + 0)";
        i = j;
        continue;
      }
    }
    out += src[i++];
  }
  return out;
}

bool is_plain_int_decl(const std::string& line) {
  if (line.rfind("  int ", 0) != 0) return false;
  if (line.empty() || line.back() != ';') return false;
  // Reject declarations whose initializer reads other state; the synth
  // templates only initialize scalars to constants, which any adjacent
  // swap preserves.
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) return true;
  for (std::size_t i = eq + 1; i + 1 < line.size(); ++i) {
    const char c = line[i];
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != ' ' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

/// Swaps the first pair of adjacent independent declarations.
std::string mutate_swap_decls(const std::string& src) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= src.size()) {
    const std::size_t nl = src.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(src.substr(start));
      break;
    }
    lines.push_back(src.substr(start, nl - start));
    start = nl + 1;
  }
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    if (is_plain_int_decl(lines[i]) && is_plain_int_decl(lines[i + 1])) {
      std::swap(lines[i], lines[i + 1]);
      break;
    }
  }
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size()) out += '\n';
  }
  return out;
}

bool explored_verdict(const std::string& src) {
  ExploreOptions opts;
  opts.strategy = runtime::ScheduleStrategy::Pct;
  opts.max_schedules = 4;
  opts.plateau_window = 2;
  opts.minimize = false;
  return explore_source(src, opts).race_detected;
}

TEST(Metamorphic, RacePreservingMutationsKeepExploredVerdict) {
  drb::SynthConfig config;
  config.count = 50;
  config.seed = 21;
  const std::vector<drb::SynthEntry> kernels = drb::synthesize(config);
  ASSERT_EQ(kernels.size(), 50u);

  struct Case {
    std::string name;
    std::string original;
    std::string mutated;
    const char* mutation;
  };
  std::vector<Case> cases;
  int renamed = 0;
  int padded = 0;
  int swapped = 0;
  for (const drb::SynthEntry& e : kernels) {
    const std::string rename = mutate_rename(e.code);
    const std::string pad = mutate_pad_bounds(e.code);
    const std::string swap = mutate_swap_decls(e.code);
    if (rename != e.code) ++renamed;
    if (pad != e.code) ++padded;
    if (swap != e.code) ++swapped;
    cases.push_back({e.name, e.code, rename, "rename"});
    cases.push_back({e.name, e.code, pad, "pad-bounds"});
    cases.push_back({e.name, e.code, swap, "swap-decls"});
  }
  // Every mutation kind must actually fire on the corpus; a mutation
  // that never changes the source verifies nothing.
  EXPECT_EQ(renamed, 50);
  EXPECT_EQ(padded, 50);
  EXPECT_GE(swapped, 40);

  struct Verdicts {
    bool original;
    bool mutated;
  };
  const std::vector<Verdicts> verdicts = support::parallel_map(
      0, cases, [](const Case& c) -> Verdicts {
        return {explored_verdict(c.original), explored_verdict(c.mutated)};
      });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(verdicts[i].original, verdicts[i].mutated)
        << cases[i].name << " flipped under " << cases[i].mutation
        << " mutation";
  }
}

// Compound mutations (padded bounds, then renamed identifiers) on a
// second batch of kernels: the explored verdict must survive them, and
// exploring the same source twice must agree with itself.
TEST(Metamorphic, CompoundMutationsKeepVerdictAndRepeat) {
  drb::SynthConfig config;
  config.count = 24;
  config.seed = 77;
  const std::vector<drb::SynthEntry> kernels = drb::synthesize(config);

  struct Case {
    std::string name;
    std::string original;
    std::string mutated;
  };
  std::vector<Case> cases;
  for (const drb::SynthEntry& e : kernels) {
    cases.push_back({e.name, e.code, mutate_rename(mutate_pad_bounds(e.code))});
  }

  struct Verdicts {
    bool original;
    bool original_again;
    bool mutated;
    bool mutated_again;
  };
  const std::vector<Verdicts> verdicts = support::parallel_map(
      0, cases, [](const Case& c) -> Verdicts {
        return {explored_verdict(c.original), explored_verdict(c.original),
                explored_verdict(c.mutated), explored_verdict(c.mutated)};
      });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Verdicts& v = verdicts[i];
    EXPECT_EQ(v.original, v.original_again) << cases[i].name;
    EXPECT_EQ(v.mutated, v.mutated_again) << cases[i].name;
    EXPECT_EQ(v.original, v.mutated)
        << cases[i].name << " flipped under the compound mutation";
  }
}

TEST(Metamorphic, MutationsPreserveSourceValidity) {
  drb::SynthConfig config;
  config.count = 8;
  config.seed = 4;
  for (const drb::SynthEntry& e : drb::synthesize(config)) {
    // A mutated kernel must still parse, run, and (modulo scheduling)
    // print the same output as the original when no race is present.
    if (e.race) continue;
    ExploreOptions opts;
    opts.max_schedules = 1;
    opts.plateau_window = 0;
    opts.minimize = false;
    const ExploreResult orig = explore_source(e.code, opts);
    const ExploreResult mut =
        explore_source(mutate_rename(mutate_pad_bounds(e.code)), opts);
    EXPECT_EQ(orig.race_detected, mut.race_detected) << e.name;
    EXPECT_EQ(orig.faulted_runs, mut.faulted_runs) << e.name;
  }
}

}  // namespace
}  // namespace drbml::explore
