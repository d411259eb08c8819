// The simulated solo oracle: drive a real sim::Machine with one app on core
// 0 until its first completion. `harness::solo_steady_state` (the closed-
// form per-phase fixed point every paper metric normalises against) is
// checked against it.
#pragma once

#include <stdexcept>

#include "harness/solo.hpp"
#include "sim/core/app_profile.hpp"
#include "sim/machine.hpp"

namespace dicer::test {

/// Solo result of `profile` with the `ways` lowest LLC ways, measured over
/// one complete run on a stepped machine.
inline harness::SoloResult solo_simulated(const sim::AppProfile& profile,
                                          unsigned ways,
                                          const sim::MachineConfig& config) {
  sim::Machine machine(config);
  machine.attach(0, &profile);
  machine.set_fill_mask(0, sim::WayMask::low(ways));
  const double t0 = machine.time_sec();
  while (machine.telemetry(0).completions == 0) {
    machine.step();
    if (machine.time_sec() - t0 > 3600.0) {
      throw std::runtime_error("solo_simulated: run exceeded one hour");
    }
  }
  const auto& tel = machine.telemetry(0);
  harness::SoloResult out;
  out.time_sec = machine.time_sec() - t0;
  out.ipc = tel.instructions / tel.active_cycles;
  out.mem_bw_bytes_per_sec = tel.mem_bytes / out.time_sec;
  return out;
}

}  // namespace dicer::test
