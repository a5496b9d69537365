// Plain-text table rendering for the examples and the engines' console
// reports.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace p2ps::util {

/// Column-aligned text table. Cells are strings; numeric helpers format
/// with a fixed precision so series line up visually.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_cell calls fill it left to right.
  TextTable& new_row();
  TextTable& add_cell(std::string value);
  TextTable& add_cell(double value, int precision = 2);
  TextTable& add_cell(long long value);

  /// Renders with column padding. Rows shorter than the header are padded
  /// with empty cells.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with TextTable).
[[nodiscard]] std::string format_double(double value, int precision);

}  // namespace p2ps::util
