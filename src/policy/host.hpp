// policy::Host — the one place a governed machine is wired: a sim::Machine,
// its pqos-like RDT surface (CAT, CMT/MBM monitor, MBA when enabled) and the
// PolicyContext, HP on core 0 and BE slots on cores 1..cores_used-1. Its
// control step is the paper's periodic loop (§3, Listing 1): advance to the
// policy's next deadline, then let the policy measure and actuate.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "policy/policy.hpp"

namespace dicer::policy {

struct HostConfig {
  sim::MachineConfig machine{};
  unsigned cores_used = 10;  ///< 1 HP + (cores_used - 1) BE slots
  bool enable_mba = false;   ///< expose an MBA controller to the policy
  /// Event sink (null = process-global tracer) for the policy context, the
  /// monitor and — unless machine.tracer is already set — the machine.
  trace::Tracer* tracer = nullptr;
};

class Host {
 public:
  /// Attaches `hp` to core 0 and, unless null, `be` to every BE slot. The
  /// caller sets the policy up, through context().
  Host(const HostConfig& config, const sim::AppProfile& hp,
       const sim::AppProfile* be = nullptr);
  ~Host();
  Host(Host&&) noexcept;
  Host& operator=(Host&&) noexcept;

  /// One control step: advance interval_sec() in whole quanta (the
  /// nearest count, at least one), or to quantum `limit` if that comes
  /// first, then act().
  void step(Policy& policy,
            std::uint64_t limit = std::numeric_limits<std::uint64_t>::max());
  /// Control steps until the machine reaches quantum `target`; the last
  /// one is cut there, and the policy acts there too.
  void run_until(Policy& policy, std::uint64_t target);

  sim::Machine& machine() noexcept { return *ctx_.machine; }
  rdt::CatController& cat() noexcept { return *ctx_.cat; }
  rdt::Monitor& monitor() noexcept { return *ctx_.monitor; }
  PolicyContext& context() noexcept { return ctx_; }

 private:
  /// The machine and its RDT surface (host.cpp).
  struct Parts;

  // One heap block, so the context's pointers survive moving the host.
  std::unique_ptr<Parts> parts_;
  PolicyContext ctx_;
};

}  // namespace dicer::policy
