// Small command-line flag parser shared by bench/example binaries.
// Supports --flag, --key=value and "--key value" forms.
//
// Numeric getters are strict: the whole value must parse ("4x", "abc",
// "1.5.2" and out-of-range numbers all throw CliError), so a typo fails
// loudly instead of silently becoming 0. Front-ends catch CliError at the
// top of main (see cli_main_guard) and turn it into a one-line error plus
// a non-zero exit.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dicer::util {

/// A malformed flag value (e.g. `--jobs=4x`). what() is a complete,
/// actionable one-liner: "invalid value for --jobs: '4x' (expected
/// integer)".
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& def) const;
  /// Strict integer flag: returns `def` when absent/empty, throws CliError
  /// on trailing junk, non-numeric text or out-of-range values.
  long get_int(const std::string& key, long def) const;
  /// Strict floating-point flag: same contract as get_int, and also
  /// throws CliError on "inf" / "nan" (non-finite values).
  double get_double(const std::string& key, double def) const;
  /// Count flag in [lo, hi]: returns `def` when absent/empty, throws
  /// CliError naming the flag and the range for anything outside it — a
  /// negative value included, which a cast to unsigned would wrap.
  unsigned get_count(const std::string& key, unsigned def, unsigned lo = 0,
                     unsigned hi = std::numeric_limits<unsigned>::max()) const;
  /// Fraction flag in (0, 1] (an SLO, a share): returns `def` when
  /// absent/empty, throws CliError naming the flag for anything outside.
  double get_fraction(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// Run `body` and translate CliError (and std::exception generally) into a
/// one-line `program: error: ...` on stderr plus exit code 2 — the shared
/// epilogue of every example/bench main:
///
///   int main(int argc, char** argv) {
///     return util::cli_main_guard(argv[0], [&] { ...; return 0; });
///   }
int cli_main_guard(const char* program, const std::function<int()>& body);

}  // namespace dicer::util
