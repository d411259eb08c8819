#include "telemetry/registry.hpp"

#include <stdexcept>

namespace dicer::telemetry {

namespace {

bool valid_metric_name(const std::string& name) noexcept {
  if (name.empty()) return false;
  const auto word = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    return alpha || (!first && c >= '0' && c <= '9');
  };
  if (!word(name[0], true)) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!word(name[i], false)) return false;
  }
  return true;
}

}  // namespace

Registry::Metric& Registry::metric_slot(const std::string& name,
                                        const std::string& help) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("Registry: invalid metric name '" + name +
                                "' (want [a-zA-Z_:][a-zA-Z0-9_:]*)");
  }
  Metric& m = metrics_[name];
  if (m.help.empty()) m.help = help;
  return m;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric& m = metric_slot(name, help);
  if (m.gauge || m.histogram) {
    throw std::invalid_argument("Registry: '" + name +
                                "' is already registered as a non-counter");
  }
  if (!m.counter) m.counter = std::make_unique<Counter>();
  return *m.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric& m = metric_slot(name, help);
  if (m.counter || m.histogram) {
    throw std::invalid_argument("Registry: '" + name +
                                "' is already registered as a non-gauge");
  }
  if (!m.gauge) m.gauge = std::make_unique<Gauge>();
  return *m.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const HistogramSpec& spec,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric& m = metric_slot(name, help);
  if (m.counter || m.gauge) {
    throw std::invalid_argument("Registry: '" + name +
                                "' is already registered as a non-histogram");
  }
  if (m.histogram) {
    if (!(m.histogram->spec() == spec)) {
      throw std::invalid_argument("Registry: histogram '" + name +
                                  "' re-registered with a different spec");
    }
    return *m.histogram;
  }
  m.histogram = std::make_unique<Histogram>(spec);
  return *m.histogram;
}

std::vector<Registry::Entry> Registry::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) {  // std::map: sorted by name
    Entry e;
    e.name = name;
    e.help = m.help;
    e.counter = m.counter.get();
    e.gauge = m.gauge.get();
    e.histogram = m.histogram.get();
    out.push_back(std::move(e));
  }
  return out;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

}  // namespace dicer::telemetry
