// Byte-level mutation of a valid document, shared by the fuzz targets and
// the static golden file: deletions, insertions and replacements of
// printable bytes at random positions.
#pragma once

#include <string>

#include "support/rng.hpp"

namespace drbml {

/// Mutates a valid document: deletions, duplications, byte flips.
inline std::string mutate(const std::string& base, Rng& rng) {
  std::string s = base;
  const int edits = static_cast<int>(rng.between(1, 8));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.below(s.size());
    switch (rng.below(3)) {
      case 0: s.erase(pos, 1); break;
      case 1: s.insert(pos, 1, static_cast<char>(rng.between(32, 126))); break;
      default: s[pos] = static_cast<char>(rng.between(32, 126)); break;
    }
  }
  return s;
}

}  // namespace drbml
