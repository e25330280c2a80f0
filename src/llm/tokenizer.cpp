#include "llm/tokenizer.hpp"

#include <algorithm>
#include <cctype>

namespace drbml::llm {

namespace {

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// The one tokenizing scan: calls emit(token) for each token of `text`,
/// a view into `text` (or into a static operator spelling).
template <typename Emit>
void scan_tokens(std::string_view text, Emit&& emit) {
  std::size_t i = 0;
  constexpr std::size_t kChunk = 8;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (word_char(c)) {
      std::size_t start = i;
      while (i < text.size() && word_char(text[i])) ++i;
      // Long identifiers split into subword chunks.
      for (std::size_t p = start; p < i; p += kChunk) {
        emit(text.substr(p, std::min(kChunk, i - p)));
      }
      continue;
    }
    // Two-character operators count as one token.
    static constexpr std::string_view kTwo[] = {
        "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=",
        "*=", "/=", "<<", ">>", "->",
    };
    bool matched = false;
    if (i + 1 < text.size()) {
      for (std::string_view op : kTwo) {
        if (text[i] == op[0] && text[i + 1] == op[1]) {
          emit(op);
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      emit(text.substr(i, 1));
      ++i;
    }
  }
}

}  // namespace

std::vector<std::string> SimpleTokenizer::tokenize(
    std::string_view text) const {
  std::vector<std::string> tokens;
  scan_tokens(text, [&](std::string_view t) { tokens.emplace_back(t); });
  return tokens;
}

int SimpleTokenizer::count_tokens(std::string_view text) const {
  int count = 0;
  scan_tokens(text, [&](std::string_view) { ++count; });
  return count;
}

void BpeTokenizer::train(const std::vector<std::string>& texts,
                         int merge_count) {
  merges_.clear();
  merge_rank_.clear();

  // Work on the concatenated corpus as id sequences.
  std::vector<std::vector<int>> seqs;
  seqs.reserve(texts.size());
  for (const auto& t : texts) {
    std::vector<int> ids;
    ids.reserve(t.size());
    for (char c : t) ids.push_back(static_cast<unsigned char>(c));
    seqs.push_back(std::move(ids));
  }

  for (int m = 0; m < merge_count; ++m) {
    // Count adjacent pairs.
    std::map<std::pair<int, int>, int> counts;
    for (const auto& ids : seqs) {
      for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
        ++counts[{ids[i], ids[i + 1]}];
      }
    }
    if (counts.empty()) break;
    auto best = counts.begin();
    for (auto it = counts.begin(); it != counts.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    if (best->second < 2) break;  // nothing worth merging

    const std::pair<int, int> pair = best->first;
    const int new_id = 256 + static_cast<int>(merges_.size());
    merges_.push_back(pair);
    merge_rank_[pair] = static_cast<int>(merges_.size()) - 1;

    // Apply the merge in place.
    for (auto& ids : seqs) {
      std::vector<int> out;
      out.reserve(ids.size());
      std::size_t i = 0;
      while (i < ids.size()) {
        if (i + 1 < ids.size() && ids[i] == pair.first &&
            ids[i + 1] == pair.second) {
          out.push_back(new_id);
          i += 2;
        } else {
          out.push_back(ids[i]);
          ++i;
        }
      }
      ids = std::move(out);
    }
  }
}

std::vector<int> BpeTokenizer::encode(std::string_view text) const {
  std::vector<int> ids;
  ids.reserve(text.size());
  for (char c : text) ids.push_back(static_cast<unsigned char>(c));
  // Repeatedly apply the lowest-rank applicable merge (standard BPE).
  for (;;) {
    int best_rank = -1;
    std::size_t best_pos = 0;
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      auto it = merge_rank_.find({ids[i], ids[i + 1]});
      if (it == merge_rank_.end()) continue;
      if (best_rank == -1 || it->second < best_rank) {
        best_rank = it->second;
        best_pos = i;
      }
    }
    if (best_rank == -1) break;
    ids[best_pos] = 256 + best_rank;
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(best_pos) + 1);
  }
  return ids;
}

std::string BpeTokenizer::decode(const std::vector<int>& ids) const {
  std::string out;
  // Expand ids recursively via the merge table.
  std::vector<int> stack;
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) stack.push_back(*it);
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (id < 256) {
      out.push_back(static_cast<char>(id));
    } else {
      const auto& [l, r] = merges_[static_cast<std::size_t>(id - 256)];
      stack.push_back(r);
      stack.push_back(l);
    }
  }
  return out;
}

}  // namespace drbml::llm
