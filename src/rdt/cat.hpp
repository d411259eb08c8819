// CAT controller — the emulated counterpart of pqos_l3ca_set() and
// pqos_alloc_assoc_set() in intel-cmt-cat.
//
// Allocation on real hardware is indirect: software programs a *capacity
// bitmask* per Class of Service (CLOS) and then associates each logical
// core with a CLOS. This layer reproduces that indirection plus the
// hardware's validation rules (non-empty, contiguous masks; bounded CLOS
// ids), and pushes the resolved per-core mask down into the simulated
// machine. DICER and all baseline policies actuate exclusively through
// this interface, so they would port to real pqos unchanged.
#pragma once

#include <array>
#include <cstdint>

#include "rdt/capability.hpp"
#include "sim/cache/way_mask.hpp"
#include "sim/machine.hpp"

namespace dicer::rdt {

class CatController {
 public:
  /// Classes of service a controller holds (Broadwell and later Xeons
  /// expose 16).
  static constexpr unsigned kMaxClos = 16;

  /// Binds to a machine. All CLOS start with the full mask and every core
  /// is associated with CLOS 0, like hardware after reset. Throws
  /// std::invalid_argument past kMaxClos classes of service.
  CatController(sim::Machine& machine, const Capability& capability);

  const Capability& capability() const noexcept { return cap_; }

  /// Program a CLOS mask. Enforces CAT rules: CLOS id in range, mask
  /// non-empty, contiguous, within the cache's ways and at least
  /// cat_min_ways wide. Takes effect immediately on associated cores.
  void set_clos_mask(unsigned clos, sim::WayMask mask);
  sim::WayMask clos_mask(unsigned clos) const;

  /// Associate a core with a CLOS (pqos_alloc_assoc_set).
  void associate(unsigned core, unsigned clos);
  unsigned clos_of(unsigned core) const;

  /// Reset to hardware defaults: full masks, everything in CLOS 0.
  void reset();

  unsigned num_clos() const noexcept { return cap_.cat_num_clos; }
  unsigned num_ways() const noexcept { return cap_.cat_ways; }

 private:
  void apply(unsigned core);

  sim::Machine& machine_;
  Capability cap_;
  std::array<sim::WayMask, kMaxClos> clos_masks_{};
  std::array<std::uint8_t, sim::kMaxCores> assoc_{};  ///< core -> CLOS
};

}  // namespace dicer::rdt
