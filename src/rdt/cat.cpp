#include "rdt/cat.hpp"

#include <stdexcept>
#include <string>

#include "util/log.hpp"

namespace dicer::rdt {

CatController::CatController(sim::Machine& machine,
                             const Capability& capability)
    : machine_(machine), cap_(capability) {
  if (!cap_.cat_supported) {
    throw std::runtime_error("CatController: CAT not supported by platform");
  }
  if (cap_.cat_ways != machine_.num_ways()) {
    throw std::invalid_argument(
        "CatController: capability way count does not match machine");
  }
  if (cap_.cat_num_clos == 0 || cap_.cat_num_clos > kMaxClos) {
    throw std::invalid_argument("CatController: CLOS count outside 1..16");
  }
  reset();
}

void CatController::set_clos_mask(unsigned clos, sim::WayMask mask) {
  if (clos >= cap_.cat_num_clos) {
    throw std::out_of_range("CatController: CLOS " + std::to_string(clos) +
                            " out of range");
  }
  if (mask.empty()) {
    throw std::invalid_argument("CatController: empty capacity bitmask");
  }
  if (!mask.contiguous()) {
    throw std::invalid_argument(
        "CatController: CAT requires a contiguous capacity bitmask, got " +
        mask.to_string());
  }
  if (!sim::WayMask::full(cap_.cat_ways).contains(mask)) {
    throw std::invalid_argument(
        "CatController: mask exceeds the cache's ways: " + mask.to_string());
  }
  if (mask.count() < cap_.cat_min_ways) {
    throw std::invalid_argument("CatController: mask narrower than " +
                                std::to_string(cap_.cat_min_ways) + " ways");
  }
  clos_masks_[clos] = mask;
  DICER_DEBUG << "CAT: CLOS" << clos << " <- " << mask.to_string();
  for (unsigned core = 0; core < machine_.num_cores(); ++core) {
    if (assoc_[core] == clos) apply(core);
  }
}

sim::WayMask CatController::clos_mask(unsigned clos) const {
  if (clos >= cap_.cat_num_clos) {
    throw std::out_of_range("CatController: CLOS out of range");
  }
  return clos_masks_[clos];
}

void CatController::associate(unsigned core, unsigned clos) {
  if (core >= machine_.num_cores()) {
    throw std::out_of_range("CatController: core out of range");
  }
  if (clos >= cap_.cat_num_clos) {
    throw std::out_of_range("CatController: CLOS out of range");
  }
  assoc_[core] = static_cast<std::uint8_t>(clos);
  apply(core);
}

unsigned CatController::clos_of(unsigned core) const {
  if (core >= machine_.num_cores()) {
    throw std::out_of_range("CatController: core out of range");
  }
  return assoc_[core];
}

void CatController::reset() {
  clos_masks_.fill(sim::WayMask::full(cap_.cat_ways));
  assoc_.fill(0);
  for (unsigned c = 0; c < machine_.num_cores(); ++c) apply(c);
}

void CatController::apply(unsigned core) {
  machine_.set_fill_mask(core, clos_masks_[assoc_[core]]);
}

}  // namespace dicer::rdt
