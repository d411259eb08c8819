#include "fleet/placement_index.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <stdexcept>
#include <utility>

namespace dicer::fleet {

// --- PlacementIndex -------------------------------------------------------

PlacementIndex::PlacementIndex(const AppDirectory& dir, unsigned be_slots)
    : dir_(&dir),
      be_slots_(be_slots),
      apps_(dir.size()) {
  if (be_slots == 0) {
    throw std::invalid_argument("PlacementIndex: need at least one BE slot");
  }
}

unsigned PlacementIndex::add_machine(const sim::AppProfile* hp) {
  const auto index = static_cast<unsigned>(slots_.size());
  Slot slot;
  slot.hp = &dir_->signal(hp->name);
  slot.free_cores = be_slots_;
  tenants_.resize(tenants_.size() + be_slots_ + 1);
  slots_.push_back(slot);
  reclass(index);
  return index;
}

void PlacementIndex::reserve(unsigned machines) {
  slots_.reserve(machines);
  tenants_.reserve(std::size_t{machines} * (be_slots_ + 1));
}

void PlacementIndex::throw_out_of_range() {
  throw std::out_of_range("PlacementIndex: machine index out of range");
}

unsigned PlacementIndex::admit(unsigned machine, const Tenant& tenant) {
  Slot& slot = at(machine);
  if (tenant.sig == nullptr) {
    throw std::logic_error("PlacementIndex: admit of a tenant with no app");
  }
  unsigned core = 1;
  while (core <= be_slots_ && core_tenant(machine, core).sig != nullptr) {
    ++core;
  }
  if (core > be_slots_) {
    throw std::logic_error("PlacementIndex: admit to a full machine");
  }
  core_tenant(machine, core) = tenant;
  --slot.free_cores;
  ++running_;
  ++mutations_;
  reclass(machine);
  return core;
}

Tenant PlacementIndex::detach(unsigned machine, unsigned core) {
  Slot& slot = at(machine);
  if (core == 0 || core > be_slots_ ||
      core_tenant(machine, core).sig == nullptr) {
    throw std::logic_error("PlacementIndex: detach from an invalid/free core");
  }
  const Tenant gone = std::exchange(core_tenant(machine, core), Tenant{});
  ++slot.free_cores;
  --running_;
  ++mutations_;
  reclass(machine);
  return gone;
}

void PlacementIndex::tenant_signals(
    unsigned machine, std::vector<const AppSignal*>& out) const {
  const std::span<const Tenant> cores = tenants(machine);
  out.clear();
  for (unsigned c = 1; c <= be_slots_; ++c) {
    if (cores[c].sig) out.push_back(cores[c].sig);
  }
}

// --- placement classes -----------------------------------------------------

std::size_t PlacementIndex::ClassKeyHash::operator()(
    const ClassKey& key) const noexcept {
  std::size_t h = key.size();
  for (const AppSignal* sig : key) {
    h ^= sig->id + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

void PlacementIndex::reclass(unsigned machine) {
  if (!classed_) return;
  Slot& slot = slots_[machine];
  if (slot.cls != kNone) {
    Class& c = classes_[slot.cls];
    c.members.erase(machine);
    if (c.members.empty()) {
      class_of_.erase(c.key);
      // Swap-remove from the live list.
      classes_[live_.back().slot].live_pos = c.live_pos;
      live_[c.live_pos] = live_.back();
      live_.pop_back();
      free_slots_.push_back(slot.cls);
    } else if (live_[c.live_pos].rep == machine) {
      live_[c.live_pos].rep = *c.members.begin();
    }
    slot.cls = kNone;
  }
  if (slot.free_cores > 0) {
    tenant_signals(machine, key_);
    key_.push_back(slot.hp);
    const auto [it, fresh] = class_of_.try_emplace(key_, kNone);
    if (fresh) {
      it->second = claim_slot(machine);
      Class& c = classes_[it->second];
      c.key = key_;
      c.members.insert(machine);
      c.before = kStale;
      ++created_;
    } else {
      Class& c = classes_[it->second];
      // Classification adds machines in index order: the hint is exact.
      c.members.emplace_hint(c.members.end(), machine);
      std::uint32_t& rep = live_[c.live_pos].rep;
      rep = std::min(rep, machine);
    }
    slot.cls = it->second;
  }
}

std::uint32_t PlacementIndex::claim_slot(std::uint32_t rep) {
  if (free_slots_.empty()) {
    // Live classes never outnumber open machines, so the cap leaves room.
    const std::size_t old = classes_.size();
    const std::size_t cap = std::min(std::max<std::size_t>(1, 2 * old),
                                     slots_.size());
    classes_.resize(cap);
    for (std::size_t s = cap; s-- > old;) {
      free_slots_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  const std::uint32_t s = free_slots_.back();
  free_slots_.pop_back();
  if (++gen_ == 0) {
    // The generations wrapped: renumber the live classes from 1 and
    // forget every score, so no stale stamp can match a reused number.
    for (LiveClass& l : live_) l.gen = ++gen_;
    ++gen_;
    for (AppScores& a : apps_) std::fill(a.gen.begin(), a.gen.end(), 0);
  }
  classes_[s].live_pos = static_cast<std::uint32_t>(live_.size());
  live_.push_back({s, gen_, rep});
  return s;
}

// --- marginal-EFU scores ----------------------------------------------------

double PlacementIndex::score(std::uint32_t s, const AppSignal& app) {
  Class& c = classes_[s];
  const std::span<const AppSignal* const> bes(c.key.data(),
                                              c.key.size() - 1);
  if (std::isnan(c.before)) {
    // A class claiming a recycled slot starts stale, so its operands
    // never outlive its key.
    c.ops.assign(*dir_, *c.key.back(), bes);
    c.before = predict_efu(c.ops, bes);
    ++predictions_;
  }
  ++predictions_;
  return predict_efu(c.ops, bes, &app) - c.before;
}

std::optional<unsigned> PlacementIndex::best_fit(
    const AppSignal& app, std::optional<unsigned> exclude) {
  if (!classed_) {
    classed_ = true;
    for (unsigned m = 0; m < slots_.size(); ++m) reclass(m);
  }
  AppScores& a = apps_.at(app.id);
  a.queried = true;
  if (a.gen.size() < classes_.size()) {
    a.score.resize(classes_.size());
    a.gen.resize(classes_.size(), 0);
  }
  const std::uint32_t excluded = exclude ? *exclude : kNone;
  std::uint32_t best = kNone;
  double best_score = 0.0;
  for (const LiveClass& l : live_) {
    if (a.gen[l.slot] != l.gen) {
      a.score[l.slot] = score(l.slot, app);
      a.gen[l.slot] = l.gen;
    }
    // An excluded representative hands the class to its next member,
    // which ties it on the score.
    std::uint32_t cand = l.rep;
    if (cand == excluded) {
      const auto& members = classes_[l.slot].members;
      const auto next = std::next(members.begin());
      if (next == members.end()) continue;
      cand = *next;
    }
    const double v = a.score[l.slot];
    if (best == kNone || v > best_score || (v == best_score && cand < best)) {
      best = cand;
      best_score = v;
    }
  }
  scans_ += live_.size();
  if (best == kNone) return std::nullopt;
  return best;
}

double PlacementIndex::marginal_efu(unsigned machine,
                                    const AppSignal& app) const {
  const AppScores& a = apps_.at(app.id);
  if (!a.queried) {
    throw std::logic_error("PlacementIndex: app has no scores before best_fit");
  }
  const std::uint32_t s = at(machine).cls;
  if (s == kNone) return -std::numeric_limits<double>::infinity();
  if (s >= a.gen.size() || a.gen[s] != live_[classes_[s].live_pos].gen) {
    throw std::logic_error("PlacementIndex: class created since best_fit");
  }
  return a.score[s];
}

}  // namespace dicer::fleet
