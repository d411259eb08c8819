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
  for (AppTree& t : trees_) {
    if (!t.leaf.empty()) t = AppTree{};
  }
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
  touch(machine);
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
  touch(machine);
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

// --- marginal-EFU trees -----------------------------------------------------

void PlacementIndex::touch(unsigned machine) {
  ++mutations_;
  slots_[machine].before = kStale;
  for (AppTree& t : trees_) {
    if (!t.leaf.empty() && !t.queued[machine]) {
      t.queued[machine] = true;
      t.pending.push_back(machine);
    }
  }
}

double PlacementIndex::score(unsigned machine, const AppSignal& app) {
  Slot& slot = slots_[machine];
  if (slot.free_cores == 0) return -std::numeric_limits<double>::infinity();
  tenant_signals(machine, bes_);
  if (std::isnan(slot.before)) {
    slot.before = predict_efu(*dir_, *slot.hp, bes_, pairs_);
    ++predictions_;
  }
  bes_.push_back(&app);
  ++predictions_;
  return predict_efu(*dir_, *slot.hp, bes_, pairs_) - slot.before;
}

bool PlacementIndex::beats(const AppTree& t, std::uint32_t a,
                           std::uint32_t b) {
  return t.leaf[a] > t.leaf[b] || (t.leaf[a] == t.leaf[b] && a < b);
}

std::uint32_t PlacementIndex::winner(const AppTree& t,
                                     std::size_t node) const {
  const std::size_t n = slots_.size();
  return node >= n ? static_cast<std::uint32_t>(node - n) : t.win[node];
}

void PlacementIndex::fix(AppTree& t, std::size_t i) {
  const std::uint32_t l = winner(t, 2 * i);
  const std::uint32_t r = winner(t, 2 * i + 1);
  t.win[i] = beats(t, r, l) ? r : l;
  ++node_visits_;
}

void PlacementIndex::build(AppTree& t, const AppSignal& app) {
  const std::size_t n = slots_.size();
  t.leaf.resize(n);
  for (unsigned m = 0; m < n; ++m) t.leaf[m] = score(m, app);
  t.win.resize(n);
  for (std::size_t i = n - 1; i >= 1; --i) fix(t, i);
  t.queued.assign(n, false);
}

void PlacementIndex::refresh(AppTree& t, const AppSignal& app) {
  const std::size_t n = slots_.size();
  // Re-score the backlog. A leaf that kept its value moves nothing above
  // it; a changed one stays marked in `queued` while its ancestors are
  // recomputed.
  auto& nodes = repair_scratch_;
  nodes.clear();
  for (const std::uint32_t m : t.pending) {
    const double d = score(m, app);
    const bool same = d == t.leaf[m];
    t.leaf[m] = d;
    if (same) {
      t.queued[m] = false;
    } else {
      nodes.push_back((n + m) / 2);
    }
  }
  // Recompute the ancestors in rounds of decreasing node index, so a node
  // comes after its children (which have higher indices); the next round
  // is the parents, which keep that order. A node whose winner is the
  // same machine as before, with an unchanged leaf, moves nothing above
  // it.
  std::sort(nodes.begin(), nodes.end(), std::greater<>());
  for (;;) {
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    if (!nodes.empty() && nodes.back() == 0) nodes.pop_back();  // above root
    if (nodes.empty()) break;
    std::size_t moved = 0;
    for (const std::size_t i : nodes) {
      const std::uint32_t old = t.win[i];
      fix(t, i);
      if (t.win[i] != old || t.queued[t.win[i]]) nodes[moved++] = i / 2;
    }
    nodes.resize(moved);
  }
  for (const std::uint32_t m : t.pending) t.queued[m] = false;
  t.pending.clear();
}

std::uint32_t PlacementIndex::best_in(const AppTree& t, std::size_t lo,
                                      std::size_t hi, std::uint32_t best) {
  const std::size_t n = slots_.size();
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
  const std::size_t n = slots_.size();
  if (n == 0) return std::nullopt;
  AppTree& t = trees_.at(app.id);
  if (t.leaf.empty()) {
    build(t, app);
  } else {
    refresh(t, app);
  }
  std::uint32_t best = winner(t, 1);
  if (exclude && *exclude == best) {
    // The best of the two ranges around the excluded winner, folded into
    // a seed that is neither: "better" is a total order, so the left
    // range wins ties by index alone.
    if (n == 1) return std::nullopt;
    const std::size_t ex = *exclude;
    best = best_in(t, 0, ex, ex == 0 ? 1 : 0);
    best = best_in(t, ex + 1, n, best);
  }
  if (slots_[best].free_cores == 0) return std::nullopt;
  return best;
}

double PlacementIndex::marginal_efu(unsigned machine,
                                    const AppSignal& app) const {
  const AppTree& t = trees_.at(app.id);
  if (t.leaf.empty()) {
    throw std::logic_error("PlacementIndex: app has no tree before best_fit");
  }
  return t.leaf.at(machine);
}

std::size_t PlacementIndex::backlog(std::size_t app_id) const {
  return app_id < trees_.size() ? trees_[app_id].pending.size() : 0;
}

}  // namespace dicer::fleet
