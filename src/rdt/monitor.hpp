// CMT / MBM / IPC monitoring — the emulated counterpart of
// pqos_mon_start() / pqos_mon_poll() plus the perf IPC counters DICER
// reads each monitoring period.
//
// Real RDT tags traffic with a Resource Monitoring ID (RMID) per core and
// exposes, per RMID: LLC occupancy (CMT) and cumulative local memory
// traffic (MBM). DICER additionally samples instructions/cycles. This
// layer mirrors the poll/delta shape of pqos: counters are cumulative and
// each poll reports the delta since the previous poll of that group.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rdt/capability.hpp"
#include "sim/machine.hpp"

namespace dicer::trace {
class Tracer;
}

namespace dicer::rdt {

/// One poll's worth of data for one monitored core.
struct MonSample {
  double interval_sec = 0.0;        ///< wall (simulated) time since last poll
  double llc_occupancy_bytes = 0.0; ///< CMT: instantaneous occupancy
  double mbm_bytes = 0.0;           ///< MBM: memory traffic in the interval
  double mbm_bytes_per_sec = 0.0;   ///< MBM traffic rate
  double instructions = 0.0;        ///< perf: retired in the interval
  double cycles = 0.0;              ///< perf: active cycles in the interval
  double ipc = 0.0;                 ///< instructions / cycles (0 if idle)
};

class Monitor {
 public:
  /// `tracer` (null = process-global) receives one Kind::kMonitorPoll
  /// event per poll_all() — a verbose kind, off by default.
  Monitor(const sim::Machine& machine, const Capability& capability,
          trace::Tracer* tracer = nullptr);

  /// Start monitoring a core (allocates an RMID). Idempotent.
  void track(unsigned core);
  void untrack(unsigned core);
  bool tracked(unsigned core) const;

  /// Poll one core: returns the delta since this core's previous poll.
  /// The first poll after track() covers everything since track() time.
  MonSample poll(unsigned core);

  /// Poll all tracked cores at once (one coherent snapshot), in core
  /// order. The snapshot lives in a per-thread buffer that the next
  /// poll_all() on this thread, of any monitor, overwrites: read it before
  /// polling again. (A buffer per monitor would cost ~1 KB per machine.)
  const std::vector<std::pair<unsigned, MonSample>>& poll_all();

  /// Sum of mbm_bytes_per_sec across all tracked cores at the last
  /// poll_all() — DICER's "MemBW" in Listing 1.
  double last_total_mbm_bytes_per_sec() const noexcept { return last_total_; }

 private:
  struct Baseline {
    double time_sec = 0.0;
    double instructions = 0.0;
    double cycles = 0.0;
    double mem_bytes = 0.0;
  };

  MonSample sample_from(unsigned core, Baseline& base);

  const sim::Machine& machine_;
  Capability cap_;
  trace::Tracer* tracer_;
  std::unique_ptr<Baseline[]> baselines_;  ///< per core
  std::uint64_t tracked_ = 0;  ///< bit c: core c is tracked (its baseline)
  double last_total_ = 0.0;
};

}  // namespace dicer::rdt
