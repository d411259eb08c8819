#include "telemetry/trace_counter_sink.hpp"

#include <string>

namespace dicer::telemetry {

TraceCounterSink::TraceCounterSink(Registry& registry) {
  for (std::size_t k = 0; k < counters_.size(); ++k) {
    const auto kind = static_cast<trace::Kind>(k);
    if (kind == trace::Kind::kTimer) continue;  // wall clock: never counted
    counters_[k] = &registry.counter(
        std::string("dicer_events_") + trace::kind_name(kind) + "_total",
        std::string("trace events of kind ") + trace::kind_name(kind));
  }
}

void TraceCounterSink::count(trace::Kind kind) noexcept {
  const auto k = static_cast<std::size_t>(kind);
  if (k < counters_.size() && counters_[k]) counters_[k]->inc();
}

}  // namespace dicer::telemetry
