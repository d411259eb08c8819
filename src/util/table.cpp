#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "util/csv.hpp"

namespace dicer::util {

void TextTable::set_header(std::vector<std::string> cols) {
  header_ = std::move(cols);
}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back({std::move(cells), pending_rule_});
  pending_rule_ = false;
}

void TextTable::add_row(const std::string& label,
                        const std::vector<double>& cells, int decimals) {
  std::vector<std::string> s;
  s.reserve(cells.size() + 1);
  s.push_back(label);
  for (double x : cells) {
    s.push_back(decimals < 0 ? fmt(x) : fmt_fixed(x, decimals));
  }
  add_row(std::move(s));
}

void TextTable::add_rule() { pending_rule_ = true; }

std::string TextTable::str() const {
  std::size_t ncols = header_.size();
  for (const auto& r : rows_) ncols = std::max(ncols, r.cells.size());
  if (ncols == 0) return {};

  std::vector<std::size_t> width(ncols, 0);
  for (std::size_t i = 0; i < header_.size(); ++i) {
    width[i] = std::max(width[i], header_[i].size());
  }
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
      width[i] = std::max(width[i], r.cells[i].size());
    }
  }

  auto emit_row = [&](std::ostringstream& os,
                      const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < ncols; ++i) {
      const std::string cell = i < cells.size() ? cells[i] : "";
      const auto pad = width[i] - cell.size();
      if (i) os << "  ";
      if (i == 0) os << cell << std::string(pad, ' ');
      else os << std::string(pad, ' ') << cell;
    }
    os << '\n';
  };

  std::size_t total = 0;
  for (std::size_t i = 0; i < ncols; ++i) total += width[i] + (i ? 2 : 0);
  const std::string rule(total, '-');

  std::ostringstream os;
  if (!header_.empty()) {
    emit_row(os, header_);
    os << rule << '\n';
  }
  for (const auto& r : rows_) {
    if (r.rule_before) os << rule << '\n';
    emit_row(os, r.cells);
  }
  return os.str();
}

void TextTable::print() const { std::cout << str(); }

std::string section(const std::string& title) {
  return "\n== " + title + " ==\n";
}

}  // namespace dicer::util
