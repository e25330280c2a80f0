#include "support/table.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace drbml {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw Error("TextTable::add_row: row width mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = widths[c] - row[c].size();
      out += ' ';
      if (c > 0) out.append(pad, ' ');
      out += row[c];
      if (c == 0) out.append(pad, ' ');
      out += " |";
    }
    out += '\n';
    return out;
  };

  std::string out = render_row(header_);
  std::string sep = "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    sep.append(widths[c] + 2, '-');
    sep += '|';
  }
  out += sep + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string heading(std::string_view title) {
  std::string out = "\n== ";
  out += title;
  out += " ==\n";
  return out;
}

}  // namespace drbml
