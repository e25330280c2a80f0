// Tokenizers for the simulated LLM substrate.
//
// SimpleTokenizer: a deterministic code-aware subword tokenizer used for
// context-window accounting (the paper's 4k-token dataset cut) and for
// hashed bag-of-token features in fine-tuning.
//
// BpeTokenizer: a trainable byte-pair-encoding tokenizer (greedy merges of
// the most frequent adjacent pair), demonstrating the full vocabulary
// pipeline; exercised by tests and the substrate benchmarks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace drbml::llm {

/// Splits code text into subword tokens: identifiers chunked to at most 8
/// characters, numbers, one token per operator, whitespace dropped.
class SimpleTokenizer {
 public:
  [[nodiscard]] std::vector<std::string> tokenize(std::string_view text) const;
  [[nodiscard]] int count_tokens(std::string_view text) const;
};

/// Byte-pair encoding over a byte alphabet.
class BpeTokenizer {
 public:
  /// Learns `merge_count` merges from the training texts.
  void train(const std::vector<std::string>& texts, int merge_count);

  /// Encodes text into token ids (byte ids 0..255, merged ids above).
  [[nodiscard]] std::vector<int> encode(std::string_view text) const;

  /// Inverse of encode.
  [[nodiscard]] std::string decode(const std::vector<int>& ids) const;

  [[nodiscard]] std::size_t merge_count() const noexcept {
    return merges_.size();
  }

 private:
  // Learned merges in order: (left id, right id) -> new id 256+index.
  std::vector<std::pair<int, int>> merges_;
  std::map<std::pair<int, int>, int> merge_rank_;
};

}  // namespace drbml::llm
