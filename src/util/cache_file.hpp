// One on-disk format for the result caches (baseline study, policy sweep,
// trace-profile MRC tables): a "# <key>" line (version tag + hash of every
// input the rows depend on), the cache's column header, then one CSV line
// per record with numbers as %.17g, so a cached value is bit-identical to
// the computed one. Loading streams the file a line at a time into the
// caller's row mapping; any defect is logged (file:line: column) and is a
// miss, so the caller recomputes. Saving is atomic and only warns.
//
// A cache writes its row mapping once, as a template over the row type,
// and gets loading (CacheRowReader) and saving (CacheRowWriter, const
// entry) from it:
//
//   template <class Row, class Entry>
//   void map_row(Row& row, Entry& e) { row.text(e.name).real(e.ipc); }
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

#include "util/csv.hpp"

namespace dicer::util {

/// 64-bit FNV-1a over exact bytes, behind every cache key. Doubles hash
/// by their bits (0.5 and 0.5000001 differ); strings end with a
/// terminator, so ("ab", "c") != ("a", "bc").
class KeyHasher {
 public:
  KeyHasher& add(std::string_view s);
  KeyHasher& add(double x) { return add(std::bit_cast<std::uint64_t>(x)); }
  template <std::integral T>
  KeyHasher& add(T x) {
    const auto bits = static_cast<std::uint64_t>(x);
    bytes(&bits, sizeof bits);
    return *this;
  }

  std::uint64_t value() const noexcept { return h_; }
  /// "<version>:<value as 16 hex digits>".
  std::string key(std::string_view version) const;

 private:
  void bytes(const void* data, std::size_t n);

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One row being loaded: each call parses the next cell into its argument,
/// throwing std::invalid_argument ("column N: ...") when the cell is
/// missing or is not exactly a value of that type.
class CacheRowReader {
 public:
  explicit CacheRowReader(std::string_view line) : rest_(line) {}

  CacheRowReader& text(std::string& out) {
    out = next();
    return *this;
  }
  CacheRowReader& real(double& out) { return parse(out, "bad number"); }
  CacheRowReader& count(unsigned& out) { return parse(out, "bad count"); }
  CacheRowReader& flag(bool& out);  ///< "0" or "1"
  /// Throws when cells remain after the mapping read its last one.
  void finish() const;

 private:
  std::string_view next();
  template <class T>
  CacheRowReader& parse(T& out, const char* what);
  [[noreturn]] void fail(const std::string& what, unsigned column) const;

  std::string_view rest_;
  unsigned column_ = 0;
  bool done_ = false;
};

/// One row being saved: each call appends a cell, end_row() ends the line.
/// Text cells may not contain ',' or a line break.
class CacheRowWriter {
 public:
  explicit CacheRowWriter(std::ostream& out) : out_(out) {}

  CacheRowWriter& text(std::string_view s);
  CacheRowWriter& real(double x) { return text(fmt17(x)); }
  CacheRowWriter& count(unsigned n) { return text(std::to_string(n)); }
  CacheRowWriter& flag(bool b) { return text(b ? "1" : "0"); }
  void end_row() {
    out_ << '\n';
    first_ = true;
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

/// A cache file: its path, its name in log lines, the key it must carry
/// (without the "# ") and its column header.
struct CacheFile {
  std::string path;
  std::string_view name;  ///< e.g. "sweep cache"
  std::string key;
  std::string_view header;

  /// Streams every row into `row`. True when the file exists with `key`
  /// and `header`, every row parses and is accepted by `row` (which
  /// rejects one by throwing std::invalid_argument) and there are exactly
  /// `rows` rows. Otherwise logs why (a missing file quietly) and returns
  /// false; the caller drops whatever `row` stored. Never throws.
  bool load(std::size_t rows,
            const std::function<void(CacheRowReader&)>& row) const;

  /// Atomically (re)writes the key line, the header and the rows `write`
  /// emits. A failure only warns: the next run recomputes.
  void save(const std::function<void(CacheRowWriter&)>& write) const;
};

}  // namespace dicer::util
