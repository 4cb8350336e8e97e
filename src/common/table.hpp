// Console table / CSV rendering for the experiment harnesses.
//
// Every bench binary prints its paper table or figure series through this
// class so that the output format is uniform and greppable.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace ssm {

/// A simple column-aligned text table with an optional title. Cells are
/// strings; numeric helpers format with fixed precision.
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row; must be called before addRow.
  Table& header(std::vector<std::string> names);

  /// Appends a data row; width must match the header.
  Table& addRow(std::vector<std::string> cells);

  /// Renders as an aligned ASCII table.
  void print(std::ostream& os) const;

  /// Renders as CSV (RFC-4180-ish quoting of commas/quotes/newlines).
  void printCsv(std::ostream& os) const;

  /// Formats a double with `digits` decimal places.
  static std::string num(double v, int digits = 2);

  /// Formats a percentage, e.g. pct(0.1109) -> "11.09%".
  static std::string pct(double fraction, int digits = 2);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ssm
