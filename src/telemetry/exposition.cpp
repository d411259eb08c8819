#include "telemetry/exposition.hpp"

#include <stdexcept>

#include "util/csv.hpp"

namespace dicer::telemetry {

namespace {

using util::fmt17;

void append_histogram(std::string& out, const Registry::Entry& e) {
  const Histogram& h = *e.histogram;
  std::uint64_t cumulative = 0;
  for (unsigned b = 0; b <= h.num_buckets(); ++b) {
    cumulative += h.bucket_count(b);
    const std::string le =
        b < h.num_buckets() ? fmt17(h.upper_bound(b)) : "+Inf";
    out += e.name + "_bucket{le=\"" + le + "\"} " +
           std::to_string(cumulative) + '\n';
  }
  out += e.name + "_sum " + fmt17(h.sum()) + '\n';
  out += e.name + "_count " + std::to_string(h.count()) + '\n';
}

}  // namespace

std::string to_prometheus(const Registry& registry) {
  std::string out;
  for (const auto& e : registry.entries()) {
    if (!e.help.empty()) out += "# HELP " + e.name + ' ' + e.help + '\n';
    if (e.counter) {
      out += "# TYPE " + e.name + " counter\n";
      out += e.name + ' ' + std::to_string(e.counter->value()) + '\n';
    } else if (e.gauge) {
      out += "# TYPE " + e.name + " gauge\n";
      out += e.name + ' ' + fmt17(e.gauge->value()) + '\n';
    } else if (e.histogram) {
      out += "# TYPE " + e.name + " histogram\n";
      append_histogram(out, e);
    }
  }
  return out;
}

void write_prometheus(const Registry& registry, const std::string& path) {
  try {
    util::write_file_atomic(
        path, [&](std::ostream& out) { out << to_prometheus(registry); });
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("write_prometheus: ") + e.what());
  }
}

}  // namespace dicer::telemetry
