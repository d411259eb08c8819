// Bridges the dicer::trace event stream into telemetry counters.
//
// Policies already narrate every actuation as typed trace events (mask
// writes land as kAllocation, CT-T reclassifications as kSampling*,
// donations/resets likewise), so fleet-scale actuation accounting needs no
// new emission sites: attach a TraceCounterSink to the tracer the policies
// use and every delivered event bumps a per-kind counter
// (`dicer_events_<kind>_total`).
//
// The sink is count-only (records() is false): while it is the only kind
// of sink attached, the tracer hands it each event's kind without building
// the event or taking its mutex. Attaching a recording sink as well makes
// every event built once, and this sink then counts it through write().
//
// Determinism: counter increments are commutative integer adds, and each
// machine's policy emits a fixed event sequence regardless of how the data
// plane is sharded — so the totals are identical at any worker count even
// though emission order is not. kTimer events are ignored (they carry
// wall-clock durations and exist outside the deterministic contract).
#pragma once

#include <array>

#include "telemetry/registry.hpp"
#include "util/trace.hpp"

namespace dicer::telemetry {

class TraceCounterSink final : public trace::Sink {
 public:
  /// Registers one counter per event kind in `registry` (which must
  /// outlive the sink).
  explicit TraceCounterSink(Registry& registry);

  void write(const trace::Event& event) override { count(event.kind); }
  bool records() const noexcept override { return false; }
  void count(trace::Kind kind) noexcept override;

 private:
  std::array<Counter*, static_cast<std::size_t>(trace::Kind::kCount)>
      counters_{};
};

}  // namespace dicer::telemetry
