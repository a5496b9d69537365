#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace p2ps::util {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  P2PS_REQUIRE(!headers_.empty());
}

TextTable& TextTable::new_row() {
  rows_.emplace_back();
  return *this;
}

TextTable& TextTable::add_cell(std::string value) {
  P2PS_REQUIRE_MSG(!rows_.empty(), "call new_row() before add_cell()");
  P2PS_REQUIRE_MSG(rows_.back().size() < headers_.size(), "row has too many cells");
  rows_.back().push_back(std::move(value));
  return *this;
}

TextTable& TextTable::add_cell(double value, int precision) {
  return add_cell(format_double(value, precision));
}

TextTable& TextTable::add_cell(long long value) {
  return add_cell(std::to_string(value));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << std::setw(static_cast<int>(widths[c])) << cell;
      if (c + 1 < headers_.size()) os << "  ";
    }
    os << '\n';
  };

  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace p2ps::util
