#include "util/cache_file.hpp"

#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/log.hpp"

namespace dicer::util {

KeyHasher& KeyHasher::add(std::string_view s) {
  bytes(s.data(), s.size());
  const unsigned char end = 0xff;
  bytes(&end, 1);
  return *this;
}

void KeyHasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string KeyHasher::key(std::string_view version) const {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h_));
  return std::string(version) + ":" + hex;
}

void CacheRowReader::fail(const std::string& what, unsigned column) const {
  throw std::invalid_argument("column " + std::to_string(column) + ": " +
                              what);
}

std::string_view CacheRowReader::next() {
  ++column_;
  if (done_) fail("missing", column_);
  const std::size_t comma = rest_.find(',');
  const std::string_view cell = rest_.substr(0, comma);
  done_ = comma == std::string_view::npos;
  if (!done_) rest_.remove_prefix(comma + 1);
  return cell;
}

template <class T>
CacheRowReader& CacheRowReader::parse(T& out, const char* what) {
  const std::string_view cell = next();
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, out);
  if (ec != std::errc() || ptr != end) {
    fail(std::string(what) + " '" + std::string(cell) + "'", column_);
  }
  return *this;
}
template CacheRowReader& CacheRowReader::parse(double&, const char*);
template CacheRowReader& CacheRowReader::parse(unsigned&, const char*);

CacheRowReader& CacheRowReader::flag(bool& out) {
  const std::string_view cell = next();
  if (cell != "0" && cell != "1") {
    fail("bad flag '" + std::string(cell) + "'", column_);
  }
  out = cell == "1";
  return *this;
}

void CacheRowReader::finish() const {
  if (!done_) fail("trailing column", column_ + 1);
}

CacheRowWriter& CacheRowWriter::text(std::string_view s) {
  if (s.find_first_of(",\n\r") != std::string_view::npos) {
    throw std::invalid_argument("text cell '" + std::string(s) +
                                "' contains a separator");
  }
  out_ << (first_ ? "" : ",") << s;
  first_ = false;
  return *this;
}

bool CacheFile::load(std::size_t rows,
                     const std::function<void(CacheRowReader&)>& row) const {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line != "# " + key) {
    DICER_INFO << name << ' ' << path << " is stale; recomputing";
    return false;
  }
  if (!std::getline(in, line) || line != header) {
    DICER_WARN << name << ' ' << path
               << " has an unexpected column header; recomputing";
    return false;
  }
  std::size_t lineno = 2;
  try {
    while (std::getline(in, line)) {
      ++lineno;
      CacheRowReader reader(line);
      row(reader);
      reader.finish();
    }
  } catch (const std::exception& e) {
    DICER_WARN << name << " is malformed (" << path << ':' << lineno << ": "
               << e.what() << "); recomputing";
    return false;
  }
  if (lineno - 2 != rows) {
    DICER_WARN << name << ' ' << path << " has " << lineno - 2
               << " rows, expected " << rows << "; recomputing";
    return false;
  }
  return true;
}

void CacheFile::save(const std::function<void(CacheRowWriter&)>& write) const {
  try {
    write_file_atomic(path, [&](std::ostream& out) {
      out << "# " << key << '\n' << header << '\n';
      CacheRowWriter writer(out);
      write(writer);
    });
  } catch (const std::exception& e) {
    DICER_WARN << "cannot write " << name << ' ' << path << ": " << e.what();
  }
}

}  // namespace dicer::util
