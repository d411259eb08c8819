#include "util/csv.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace dicer::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

void CsvWriter::header(std::initializer_list<std::string_view> cols) {
  std::vector<std::string> v;
  v.reserve(cols.size());
  for (auto c : cols) v.emplace_back(c);
  header(v);
}

void CsvWriter::header(const std::vector<std::string>& cols) {
  if (header_written_) {
    throw std::logic_error("CsvWriter: header written twice for " + path_);
  }
  write_cells(cols);
  header_written_ = true;
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  write_cells(cells);
}

void CsvWriter::row_numeric(const std::vector<double>& cells) {
  std::vector<std::string> s;
  s.reserve(cells.size());
  for (double x : cells) s.push_back(fmt(x));
  row(s);
}

void CsvWriter::row_labeled(std::string_view label,
                            const std::vector<double>& cells) {
  std::vector<std::string> s;
  s.reserve(cells.size() + 1);
  s.emplace_back(label);
  for (double x : cells) s.push_back(fmt(x));
  row(s);
}

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  bool first = true;
  for (const auto& c : cells) {
    if (!first) out_ << ',';
    out_ << csv_escape(c);
    first = false;
  }
  out_ << '\n';
}

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + tmp);
  try {
    write(out);
  } catch (...) {
    out.close();
    std::remove(tmp.c_str());
    throw;
  }
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    throw std::runtime_error("failed writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

std::string fmt(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

std::string fmt17(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string fmt_fixed(double x, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, x);
  return buf;
}

}  // namespace dicer::util
