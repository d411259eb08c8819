#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace dicer::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& key) const { return kv_.count(key) > 0; }

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key,
                            const std::string& def) const {
  return get(key).value_or(def);
}

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw CliError("invalid value for --" + key + ": '" + value +
                 "' (expected " + expected + ")");
}

}  // namespace

long CliArgs::get_int(const std::string& key, long def) const {
  const auto v = get(key);
  if (!v || v->empty()) return def;
  errno = 0;
  char* end = nullptr;
  const long r = std::strtol(v->c_str(), &end, 10);
  // Full consumption: `end` must land on the terminator, having consumed
  // at least one character — "4x", "x4" and "" are all rejected.
  if (end == v->c_str() || *end != '\0') bad_value(key, *v, "integer");
  if (errno == ERANGE) bad_value(key, *v, "integer in range");
  return r;
}

double CliArgs::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v || v->empty()) return def;
  errno = 0;
  char* end = nullptr;
  const double r = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') bad_value(key, *v, "number");
  if (errno == ERANGE) bad_value(key, *v, "number in range");
  // strtod parses "inf" and "nan"; no flag has a use for either.
  if (!std::isfinite(r)) bad_value(key, *v, "finite number");
  return r;
}

unsigned CliArgs::get_count(const std::string& key, unsigned def, unsigned lo,
                           unsigned hi) const {
  const long v = get_int(key, def);
  if (v < static_cast<long>(lo) || v > static_cast<long>(hi)) {
    throw CliError("invalid value for --" + key + ": '" + std::to_string(v) +
                   "' (expected an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "])");
  }
  return static_cast<unsigned>(v);
}

double CliArgs::get_fraction(const std::string& key, double def) const {
  const double v = get_double(key, def);
  if (!(v > 0.0 && v <= 1.0)) {
    throw CliError("invalid value for --" + key + ": '" + get_or(key, "") +
                   "' (expected a number in (0, 1])");
  }
  return v;
}

bool CliArgs::get_bool(const std::string& key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  if (v->empty()) return true;  // bare --flag means true
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  bad_value(key, *v, "boolean (true/false/1/0/yes/no/on/off)");
}

int cli_main_guard(const char* program, const std::function<int()>& body) {
  try {
    return body();
  } catch (const CliError& e) {
    std::cerr << program << ": error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << program << ": error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dicer::util
