#include "fleet/placement_index.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

namespace dicer::fleet {

// --- OpenBits -------------------------------------------------------------

void PlacementIndex::OpenBits::push_back(bool open) {
  if (tree_.empty()) tree_.push_back(0);  // 1-based sentinel
  // Appending index j (1-based): tree_[j] covers (j - lowbit(j), j], all of
  // which is already summable from existing entries plus the new bit.
  const std::size_t j = tree_.size();
  const std::size_t lowbit = j & (~j + 1);
  const std::uint64_t v = open ? 1 : 0;
  tree_.push_back(v + prefix(j - 1) - prefix(j - lowbit));
  bits_.push_back(open);
  total_ += v;
}

void PlacementIndex::OpenBits::set(std::size_t i, bool open) {
  if (bits_[i] == open) return;
  const std::int64_t d = open ? 1 : -1;
  bits_[i] = open;
  total_ += d;
  for (std::size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
    tree_[j] += static_cast<std::uint64_t>(d);
  }
}

std::uint64_t PlacementIndex::OpenBits::prefix(std::size_t n) const {
  std::uint64_t sum = 0;
  for (std::size_t j = n; j > 0; j -= j & (~j + 1)) sum += tree_[j];
  return sum;
}

std::size_t PlacementIndex::OpenBits::select(std::uint64_t k) const {
  if (k >= total_) {
    throw std::out_of_range("PlacementIndex: open-machine rank past end");
  }
  // Binary-lifting descent: find the largest prefix holding <= k set bits;
  // the answer is the next index.
  std::size_t pos = 0;
  std::size_t step = 1;
  const std::size_t n = bits_.size();
  while ((step << 1) <= n) step <<= 1;
  std::uint64_t remaining = k + 1;
  for (; step > 0; step >>= 1) {
    const std::size_t next = pos + step;
    if (next <= n && tree_[next] < remaining) {
      pos = next;
      remaining -= tree_[next];
    }
  }
  return pos;  // prefix(pos) == k, bits_[pos] is the k-th open machine
}

// --- PlacementIndex -------------------------------------------------------

PlacementIndex::PlacementIndex(const AppDirectory& dir, unsigned be_slots)
    : dir_(&dir),
      be_slots_(be_slots),
      by_free_(be_slots + 1),
      trees_(dir.size()) {
  if (be_slots == 0) {
    throw std::invalid_argument("PlacementIndex: need at least one BE slot");
  }
}

unsigned PlacementIndex::add_machine(const sim::AppProfile* hp) {
  const auto index = static_cast<unsigned>(slots_.size());
  Slot slot;
  slot.hp = &dir_->signal(hp->name);
  slot.tenants.resize(be_slots_ + 1);
  slot.free_cores = be_slots_;
  slots_.push_back(std::move(slot));
  open_.push_back(true);
  by_free_[be_slots_].insert(index);
  reclass(index);
  return index;
}

const PlacementIndex::Slot& PlacementIndex::at(unsigned machine) const {
  if (machine >= slots_.size()) {
    throw std::out_of_range("PlacementIndex: machine index out of range");
  }
  return slots_[machine];
}

PlacementIndex::Slot& PlacementIndex::at(unsigned machine) {
  if (machine >= slots_.size()) {
    throw std::out_of_range("PlacementIndex: machine index out of range");
  }
  return slots_[machine];
}

void PlacementIndex::rebucket(unsigned machine, unsigned from, unsigned to) {
  if (from > 0) by_free_[from].erase(machine);
  if (to > 0) by_free_[to].insert(machine);
  if ((from > 0) != (to > 0)) open_.set(machine, to > 0);
}

unsigned PlacementIndex::admit(unsigned machine, const Tenant& tenant) {
  Slot& slot = at(machine);
  if (tenant.sig == nullptr) {
    throw std::logic_error("PlacementIndex: admit of a tenant with no app");
  }
  unsigned core = 1;
  while (core <= be_slots_ && slot.tenants[core].sig != nullptr) ++core;
  if (core > be_slots_) {
    throw std::logic_error("PlacementIndex: admit to a full machine");
  }
  slot.tenants[core] = tenant;
  rebucket(machine, slot.free_cores, slot.free_cores - 1);
  --slot.free_cores;
  ++running_;
  ++mutations_;
  reclass(machine);
  return core;
}

Tenant PlacementIndex::detach(unsigned machine, unsigned core) {
  Slot& slot = at(machine);
  if (core == 0 || core > be_slots_ || slot.tenants[core].sig == nullptr) {
    throw std::logic_error("PlacementIndex: detach from an invalid/free core");
  }
  const Tenant gone = std::exchange(slot.tenants[core], Tenant{});
  rebucket(machine, slot.free_cores, slot.free_cores + 1);
  ++slot.free_cores;
  --running_;
  ++mutations_;
  reclass(machine);
  return gone;
}

const AppSignal& PlacementIndex::hp(unsigned machine) const {
  return *at(machine).hp;
}

unsigned PlacementIndex::free_cores(unsigned machine) const {
  return at(machine).free_cores;
}

const std::vector<Tenant>& PlacementIndex::tenants(unsigned machine) const {
  return at(machine).tenants;
}

void PlacementIndex::tenant_signals(
    unsigned machine, std::vector<const AppSignal*>& out) const {
  const Slot& slot = at(machine);
  out.clear();
  for (unsigned c = 1; c <= be_slots_; ++c) {
    if (slot.tenants[c].sig) out.push_back(slot.tenants[c].sig);
  }
}

std::uint64_t PlacementIndex::open_count() const noexcept {
  return open_.total();
}

unsigned PlacementIndex::nth_open(std::uint64_t k) const {
  return static_cast<unsigned>(open_.select(k));
}

std::uint64_t PlacementIndex::open_rank(unsigned machine) const {
  return open_.prefix(machine);
}

std::optional<unsigned> PlacementIndex::least_loaded(
    std::optional<unsigned> exclude) const {
  for (unsigned f = be_slots_; f >= 1; --f) {
    for (const unsigned m : by_free_[f]) {
      if (exclude && *exclude == m) continue;
      return m;
    }
  }
  return std::nullopt;
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
  // The left slot, when the class died or its representative moved. Its
  // re-fix is queued last, and not at all when a new class refills the
  // slot, which queues it anyway.
  std::uint32_t refix = kNone;
  if (slot.cls != kNone) {
    Class& c = classes_[slot.cls];
    c.members.erase(machine);
    if (c.members.empty()) {
      class_of_.erase(c.key);
      c.rep = kNone;
      free_slots_.push_back(slot.cls);
      refix = slot.cls;
    } else if (c.rep == machine) {
      c.rep = *c.members.begin();
      refix = slot.cls;
    }
    slot.cls = kNone;
  }
  if (slot.free_cores > 0) {
    tenant_signals(machine, key_);
    key_.push_back(slot.hp);
    const auto [it, fresh] = class_of_.try_emplace(key_, kNone);
    if (fresh) {
      it->second = claim_slot();
      Class& c = classes_[it->second];
      c.key = key_;
      c.members.insert(machine);
      c.rep = machine;
      c.before = kStale;
      ++created_;
      enqueue(it->second, true);
      if (it->second == refix) refix = kNone;
    } else {
      Class& c = classes_[it->second];
      // Classification adds machines in index order: the hint is exact.
      c.members.emplace_hint(c.members.end(), machine);
      if (machine < c.rep) {
        c.rep = machine;
        enqueue(it->second, false);
      }
    }
    slot.cls = it->second;
  }
  if (refix != kNone) enqueue(refix, false);
}

std::uint32_t PlacementIndex::claim_slot() {
  if (free_slots_.empty()) {
    // Live classes never outnumber open machines, so the cap leaves room.
    const std::size_t old = classes_.size();
    const std::size_t cap = std::min(std::max<std::size_t>(1, 2 * old),
                                     slots_.size());
    classes_.resize(cap);
    for (std::size_t s = cap; s-- > old;) {
      free_slots_.push_back(static_cast<std::uint32_t>(s));
    }
    for (AppTree& t : trees_) {
      if (!t.built) continue;
      t.leaf.resize(cap);
      t.win.resize(cap);
      t.state.resize(cap, 0);
      t.relayout = true;
    }
  }
  const std::uint32_t s = free_slots_.back();
  free_slots_.pop_back();
  return s;
}

void PlacementIndex::enqueue(std::uint32_t s, bool unscored) {
  for (AppTree& t : trees_) {
    if (!t.built) continue;
    if (!(t.state[s] & kQueued)) t.pending.push_back(s);
    t.state[s] |= unscored ? kQueued | kUnscored : kQueued;
  }
}

// --- marginal-EFU trees -----------------------------------------------------

double PlacementIndex::score(std::uint32_t s, const AppSignal& app) {
  Class& c = classes_[s];
  const AppSignal& hp = *c.key.back();
  bes_.assign(c.key.begin(), c.key.end() - 1);
  if (std::isnan(c.before)) {
    c.before = predict_efu(*dir_, hp, bes_, pairs_);
    ++predictions_;
  }
  bes_.push_back(&app);
  ++predictions_;
  return predict_efu(*dir_, hp, bes_, pairs_) - c.before;
}

bool PlacementIndex::beats(const AppTree& t, std::uint32_t a,
                           std::uint32_t b) const {
  const std::uint32_t ra = a == kNone ? kNone : classes_[a].rep;
  const std::uint32_t rb = b == kNone ? kNone : classes_[b].rep;
  if (ra == kNone) return false;
  if (rb == kNone) return true;
  return t.leaf[a] > t.leaf[b] || (t.leaf[a] == t.leaf[b] && ra < rb);
}

std::uint32_t PlacementIndex::winner(const AppTree& t,
                                     std::size_t node) const {
  const std::size_t n = classes_.size();
  return node >= n ? static_cast<std::uint32_t>(node - n) : t.win[node];
}

void PlacementIndex::fix(AppTree& t, std::size_t i) {
  const std::uint32_t l = winner(t, 2 * i);
  const std::uint32_t r = winner(t, 2 * i + 1);
  t.win[i] = beats(t, r, l) ? r : l;
  ++node_visits_;
}

void PlacementIndex::build(AppTree& t, const AppSignal& app) {
  const std::size_t n = classes_.size();
  t.leaf.assign(n, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (classes_[s].rep != kNone) t.leaf[s] = score(s, app);
  }
  t.win.resize(n);
  for (std::size_t i = n; i-- > 1;) fix(t, i);
  t.state.assign(n, 0);
  t.built = true;
}

void PlacementIndex::refresh(AppTree& t, const AppSignal& app) {
  const std::size_t n = classes_.size();
  // Score the new classes. Every queued slot stays marked in `state`
  // while its ancestors are recomputed: its leaf, its representative or
  // its liveness changed.
  for (const std::uint32_t s : t.pending) {
    if ((t.state[s] & kUnscored) && classes_[s].rep != kNone) {
      t.leaf[s] = score(s, app);
    }
    t.state[s] = kQueued;
  }
  if (t.relayout) {
    for (std::size_t i = n; i-- > 1;) fix(t, i);
    t.relayout = false;
  } else {
    auto& nodes = repair_scratch_;
    nodes.clear();
    for (const std::uint32_t s : t.pending) nodes.push_back((n + s) / 2);
    // Recompute the ancestors in rounds of decreasing node index, so a
    // node comes after its children (which have higher indices); the next
    // round is the parents, which keep that order. A node whose winner is
    // the same unqueued slot as before moves nothing above it.
    std::sort(nodes.begin(), nodes.end(), std::greater<>());
    for (;;) {
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      if (!nodes.empty() && nodes.back() == 0) nodes.pop_back();  // root's
      if (nodes.empty()) break;
      std::size_t moved = 0;
      for (const std::size_t i : nodes) {
        const std::uint32_t old = t.win[i];
        fix(t, i);
        if (t.win[i] != old || (t.state[t.win[i]] & kQueued)) {
          nodes[moved++] = i / 2;
        }
      }
      nodes.resize(moved);
    }
  }
  for (const std::uint32_t s : t.pending) t.state[s] = 0;
  t.pending.clear();
}

std::uint32_t PlacementIndex::best_in(const AppTree& t, std::size_t lo,
                                      std::size_t hi, std::uint32_t best) {
  const std::size_t n = classes_.size();
  for (lo += n, hi += n; lo < hi; lo /= 2, hi /= 2) {
    if (lo & 1) {
      const std::uint32_t w = winner(t, lo++);
      if (beats(t, w, best)) best = w;
      ++node_visits_;
    }
    if (hi & 1) {
      const std::uint32_t w = winner(t, --hi);
      if (beats(t, w, best)) best = w;
      ++node_visits_;
    }
  }
  return best;
}

std::optional<unsigned> PlacementIndex::best_fit(
    const AppSignal& app, std::optional<unsigned> exclude) {
  if (!classed_) {
    classed_ = true;
    for (unsigned m = 0; m < slots_.size(); ++m) reclass(m);
  }
  AppTree& t = trees_.at(app.id);
  if (t.built) {
    refresh(t, app);
  } else {
    build(t, app);
  }
  if (classes_.empty()) return std::nullopt;  // never an open machine
  const std::uint32_t w = winner(t, 1);
  const Class& top = classes_[w];
  if (top.rep == kNone) return std::nullopt;  // no open machine
  if (!exclude || *exclude != top.rep) return top.rep;
  // The excluded representative's next member ties it on the leaf; it
  // goes unless the best other class ties too with a lower representative.
  const std::uint32_t other =
      best_in(t, w + 1, classes_.size(), best_in(t, 0, w, kNone));
  const auto next = std::next(top.members.begin());
  if (next != top.members.end() &&
      (other == kNone || t.leaf[w] > t.leaf[other] ||
       *next < classes_[other].rep)) {
    return *next;
  }
  if (other == kNone) return std::nullopt;
  return classes_[other].rep;
}

double PlacementIndex::marginal_efu(unsigned machine,
                                    const AppSignal& app) const {
  const AppTree& t = trees_.at(app.id);
  if (!t.built) {
    throw std::logic_error("PlacementIndex: app has no tree before best_fit");
  }
  const std::uint32_t s = at(machine).cls;
  if (s == kNone) return -std::numeric_limits<double>::infinity();
  if (t.state[s] & kUnscored) {
    throw std::logic_error("PlacementIndex: class created since best_fit");
  }
  return t.leaf[s];
}

std::size_t PlacementIndex::backlog(std::size_t app_id) const {
  return app_id < trees_.size() ? trees_[app_id].pending.size() : 0;
}

}  // namespace dicer::fleet
