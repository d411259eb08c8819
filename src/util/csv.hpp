// Minimal CSV emission. Every bench binary writes its figure/table data both
// to stdout (human-readable table) and to a CSV file next to the binary so
// the series can be re-plotted.
#pragma once

#include <fstream>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dicer::util {

/// Quote a CSV field if needed (commas, quotes, newlines).
std::string csv_escape(std::string_view field);

/// Row-at-a-time CSV writer with RAII file handling.
class CsvWriter {
 public:
  /// Opens (truncates) `path`. Throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  /// Writes the header row. Call at most once, before any data row.
  void header(std::initializer_list<std::string_view> cols);
  void header(const std::vector<std::string>& cols);

  /// Append one row of string cells.
  void row(const std::vector<std::string>& cells);

  /// Convenience: format doubles compactly with fmt (%.6g). Not exact:
  /// exact outputs use fmt17.
  void row_numeric(const std::vector<double>& cells);

  /// Mixed row: a leading label plus numeric cells.
  void row_labeled(std::string_view label, const std::vector<double>& cells);

  const std::string& path() const noexcept { return path_; }

 private:
  void write_cells(const std::vector<std::string>& cells);

  std::string path_;
  std::ofstream out_;
  bool header_written_ = false;
};

/// Write `path` atomically: `write` streams the contents into a uniquely
/// named temp file in the same directory (`<path>.tmp.<pid>.<counter>`),
/// which is then renamed over `path`. Concurrent writers each stage their
/// own temp file and the last rename wins with a complete file; a failed
/// write never leaves a truncated `path`, nor a temp file. Throws
/// std::runtime_error when the temp file cannot be opened, written or
/// renamed; callers choose whether that warns or fails.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write);

/// Format a double compactly (%.6g) — for table cells.
std::string fmt(double x);
/// Format a double with %.17g, which round-trips it exactly.
std::string fmt17(double x);
/// Format a double with fixed decimals.
std::string fmt_fixed(double x, int decimals);

}  // namespace dicer::util
