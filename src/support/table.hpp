// Plain-text table rendering for bench/report output.
//
// Renders aligned, pipe-delimited tables similar to the paper's layout so
// that bench output can be compared side by side with the published tables.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace drbml {

/// An aligned text table with a header row: the first column is
/// left-aligned and the rest right-aligned (numeric convention).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Renders the table, including a separator under the header.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders a titled section heading used by the bench binaries.
[[nodiscard]] std::string heading(std::string_view title);

}  // namespace drbml
