// A program's source text together with its cache key.
//
// Every artifact the ArtifactCache holds for a program is keyed by
// fnv1a64 of its text (combined with an options hash where options
// matter). A Source hashes the text once, at construction, so the
// accessors one request calls -- a hybrid analyze probes the token
// count, the static report and the dynamic report -- share that hash
// instead of each hashing the text again.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/hash.hpp"

namespace drbml::eval {

/// A view of a program's text and its key, fnv1a64(text). It does not own
/// the text: the string it was made from must outlive it. It converts
/// implicitly from std::string, std::string_view and const char*, so
/// functions that take a Source also take the strings callers hold.
class Source {
 public:
  Source(std::string_view text) noexcept : text_(text), key_(fnv1a64(text)) {}
  Source(const std::string& text) noexcept : Source(std::string_view(text)) {}
  Source(const char* text) noexcept : Source(std::string_view(text)) {}

  [[nodiscard]] std::string_view text() const noexcept { return text_; }
  [[nodiscard]] std::uint64_t key() const noexcept { return key_; }

 private:
  std::string_view text_;
  std::uint64_t key_;
};

}  // namespace drbml::eval
