// Co-location policy interface.
//
// A policy owns the resource-allocation decisions for one consolidation:
// one High-Priority (HP) app on one core, Best-Effort (BE) apps on the
// others (§2.1). It actuates exclusively through the rdt:: layer (CAT
// masks, optionally MBA throttles) and observes exclusively through
// rdt::Monitor — exactly the interface the real DICER has on a Xeon.
//
// A policy::Host (policy/host.hpp) drives the policy as a timed loop:
//
//     policy->setup(ctx);
//     while (running) {
//       machine.run_until(machine.quantum() +
//                         machine.config().quanta(policy->interval_sec()));
//       policy->act(ctx);
//     }
//
// so a policy chooses its own control cadence: DICER returns its
// monitoring period T (1 s) in steady state and its sample-settle
// interval while sampling; static policies return a long interval and do
// nothing in act().
#pragma once

#include <span>
#include <string>
#include <vector>

#include "rdt/cat.hpp"
#include "rdt/mba.hpp"
#include "rdt/monitor.hpp"
#include "sim/machine.hpp"

namespace dicer::trace {
class Tracer;
}

namespace dicer::policy {

/// Everything a policy may touch. A policy::Host wires it up.
struct PolicyContext {
  sim::Machine* machine = nullptr;
  rdt::CatController* cat = nullptr;
  rdt::Monitor* monitor = nullptr;
  rdt::MbaController* mba = nullptr;  ///< null when the platform lacks MBA
  unsigned hp_core = 0;
  /// The BE cores, ascending (a view of storage that outlives the
  /// context; policy::Host's is a static table of core ids).
  std::span<const unsigned> be_cores;
  /// Event sink for controller decisions (null = the process-global
  /// tracer, which is silent until a sink is attached).
  trace::Tracer* tracer = nullptr;
};

/// CLOS assignment convention shared by all policies: CLOS 1 holds the HP
/// core, CLOS 2 holds every BE core. CLOS 0 keeps the hardware-default
/// full mask for anything else.
inline constexpr unsigned kHpClos = 1;
inline constexpr unsigned kBeClos = 2;

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Called once before the consolidation starts; applies the initial
  /// allocation and starts monitoring.
  virtual void setup(PolicyContext& ctx) = 0;

  /// Simulated seconds until the next act() call.
  virtual double interval_sec() const = 0;

  /// One control action (monitor, decide, actuate).
  virtual void act(PolicyContext& ctx) = 0;
};

/// Associate HP/BE cores with their CLOS and start monitoring them —
/// the shared prologue of every policy's setup().
void associate_and_track(PolicyContext& ctx);

/// Partition the LLC with BEs in the low `be_ways` ways and HP in the rest
/// (non-overlapping, §3.3). Validates 1 <= be_ways < total.
void apply_split(PolicyContext& ctx, unsigned hp_ways);

}  // namespace dicer::policy
