#include "util/timer.hpp"

#include <algorithm>
#include <cstdio>

namespace dicer::trace {

TimerRegistry& TimerRegistry::global() {
  static TimerRegistry registry;
  return registry;
}

void TimerRegistry::record(const std::string& label, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  TimerStat& s = stats_[label];
  if (s.count == 0) {
    s.min_ms = ms;
    s.max_ms = ms;
  } else {
    s.min_ms = std::min(s.min_ms, ms);
    s.max_ms = std::max(s.max_ms, ms);
  }
  ++s.count;
  s.total_ms += ms;
}

void TimerRegistry::add_count(const std::string& label, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[label] += n;
}

std::vector<std::pair<std::string, TimerStat>> TimerRegistry::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {stats_.begin(), stats_.end()};
}

std::vector<std::pair<std::string, std::uint64_t>> TimerRegistry::counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {counters_.begin(), counters_.end()};
}

void TimerRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
  counters_.clear();
}

std::string TimerRegistry::format() const {
  const auto stats = snapshot();
  const auto counts = counters();
  if (stats.empty() && counts.empty()) return "";
  std::string out;
  if (!counts.empty()) {
    std::size_t cwidth = 7;
    for (const auto& [label, _] : counts) {
      cwidth = std::max(cwidth, label.size());
    }
    char cbuf[192];
    std::snprintf(cbuf, sizeof cbuf, "%-*s %16s\n",
                  static_cast<int>(cwidth), "counter", "count");
    out += cbuf;
    for (const auto& [label, n] : counts) {
      std::snprintf(cbuf, sizeof cbuf, "%-*s %16llu\n",
                    static_cast<int>(cwidth), label.c_str(),
                    static_cast<unsigned long long>(n));
      out += cbuf;
    }
  }
  if (stats.empty()) return out;
  if (!out.empty()) out += "\n";
  std::size_t width = 5;
  for (const auto& [label, _] : stats) width = std::max(width, label.size());
  char buf[192];
  std::snprintf(buf, sizeof buf, "%-*s %8s %12s %12s %12s %12s\n",
                static_cast<int>(width), "timer", "count", "total ms",
                "mean ms", "min ms", "max ms");
  out += buf;
  for (const auto& [label, s] : stats) {
    std::snprintf(buf, sizeof buf,
                  "%-*s %8llu %12.3f %12.3f %12.3f %12.3f\n",
                  static_cast<int>(width), label.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_ms,
                  s.count ? s.total_ms / static_cast<double>(s.count) : 0.0,
                  s.min_ms, s.max_ms);
    out += buf;
  }
  return out;
}

ScopedTimer::ScopedTimer(std::string label, Tracer* tracer,
                         TimerRegistry* registry)
    : label_(std::move(label)),
      tracer_(tracer),
      registry_(registry ? registry : &TimerRegistry::global()),
      start_(std::chrono::steady_clock::now()) {}

double ScopedTimer::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

ScopedTimer::~ScopedTimer() {
  const double ms = elapsed_ms();
  registry_->record(label_, ms);
  if (tracer_) {
    tracer_->emit(Kind::kTimer, 0.0, [&] {
      return std::vector<Field>{{"label", label_}, {"ms", ms}};
    });
  }
}

}  // namespace dicer::trace
