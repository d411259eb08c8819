// Fixed-width ASCII table rendering for bench/example stdout output,
// mirroring the rows/series of the paper's tables and figures.
#pragma once

#include <string>
#include <vector>

namespace dicer::util {

/// Accumulates rows of strings and renders an aligned ASCII table with a
/// header separator. All rows are padded to the widest cell per column;
/// the first column is left-aligned, every other column right-aligned.
class TextTable {
 public:
  void set_header(std::vector<std::string> cols);

  void add_row(std::vector<std::string> cells);
  /// Leading label + %.6g-formatted numeric cells.
  void add_row(const std::string& label, const std::vector<double>& cells,
               int decimals = -1);
  /// Insert a horizontal rule before the next row.
  void add_rule();

  std::size_t num_rows() const noexcept { return rows_.size(); }

  /// Render the table to a string (trailing newline included).
  std::string str() const;
  /// Render to stdout.
  void print() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool rule_before = false;
  };

  std::vector<std::string> header_;
  std::vector<Row> rows_;
  bool pending_rule_ = false;
};

/// A titled section header ("== Figure 6: ... ==") for bench stdout.
std::string section(const std::string& title);

}  // namespace dicer::util
