#include "rdt/monitor.hpp"

#include <bit>
#include <stdexcept>

#include "util/trace.hpp"

namespace dicer::rdt {

Monitor::Monitor(const sim::Machine& machine, const Capability& capability,
                 trace::Tracer* tracer)
    : machine_(machine), cap_(capability), tracer_(tracer),
      baselines_(std::make_unique<Baseline[]>(machine.num_cores())) {
  if (!cap_.cmt_supported || !cap_.mbm_supported) {
    throw std::runtime_error("Monitor: CMT/MBM not supported by platform");
  }
}

void Monitor::track(unsigned core) {
  if (core >= machine_.num_cores()) {
    throw std::out_of_range("Monitor::track: core out of range");
  }
  if ((tracked_ >> core) & 1u) return;
  if (static_cast<unsigned>(std::popcount(tracked_)) >= cap_.num_rmids) {
    throw std::runtime_error("Monitor::track: out of RMIDs");
  }
  const auto& tel = machine_.telemetry(core);
  baselines_[core] = Baseline{machine_.time_sec(), tel.instructions,
                              tel.active_cycles, tel.mem_bytes};
  tracked_ |= std::uint64_t{1} << core;
}

void Monitor::untrack(unsigned core) {
  if (core >= machine_.num_cores()) {
    throw std::out_of_range("Monitor::untrack: core out of range");
  }
  tracked_ &= ~(std::uint64_t{1} << core);
}

bool Monitor::tracked(unsigned core) const {
  if (core >= machine_.num_cores()) {
    throw std::out_of_range("Monitor::tracked: core out of range");
  }
  return ((tracked_ >> core) & 1u) != 0;
}

MonSample Monitor::sample_from(unsigned core, Baseline& base) {
  const auto& tel = machine_.telemetry(core);
  MonSample s;
  s.interval_sec = machine_.time_sec() - base.time_sec;
  s.llc_occupancy_bytes = tel.occupancy_bytes;
  s.mbm_bytes = tel.mem_bytes - base.mem_bytes;
  s.mbm_bytes_per_sec =
      s.interval_sec > 0.0 ? s.mbm_bytes / s.interval_sec : 0.0;
  s.instructions = tel.instructions - base.instructions;
  s.cycles = tel.active_cycles - base.cycles;
  s.ipc = s.cycles > 0.0 ? s.instructions / s.cycles : 0.0;
  base = Baseline{machine_.time_sec(), tel.instructions, tel.active_cycles,
                  tel.mem_bytes};
  return s;
}

MonSample Monitor::poll(unsigned core) {
  if (core >= machine_.num_cores() || ((tracked_ >> core) & 1u) == 0) {
    throw std::logic_error("Monitor::poll: core not tracked");
  }
  return sample_from(core, baselines_[core]);
}

const std::vector<std::pair<unsigned, MonSample>>& Monitor::poll_all() {
  thread_local std::vector<std::pair<unsigned, MonSample>> out;
  out.clear();
  last_total_ = 0.0;
  for (std::uint64_t rest = tracked_; rest != 0; rest &= rest - 1) {
    const auto core = static_cast<unsigned>(std::countr_zero(rest));
    out.emplace_back(core, sample_from(core, baselines_[core]));
    last_total_ += out.back().second.mbm_bytes_per_sec;
  }
  auto& tr = trace::resolve(tracer_);
  if (!out.empty()) {
    tr.emit(trace::Kind::kMonitorPoll, machine_.time_sec(), [&] {
      std::vector<trace::Field> fields;
      fields.reserve(2 + 2 * out.size());
      fields.emplace_back("cores", out.size());
      fields.emplace_back("total_bw_bps", last_total_);
      for (const auto& [core, mon] : out) {
        fields.emplace_back("ipc_c" + std::to_string(core), mon.ipc);
        fields.emplace_back("occ_c" + std::to_string(core),
                            mon.llc_occupancy_bytes);
      }
      return fields;
    });
  }
  return out;
}

}  // namespace dicer::rdt
